"""Partition extenders and their interval certificates.

The seed construction joins two d-simplices along a shared k-face and
bridges them with facets that slide a window of consecutive labels across
the non-shared vertices; the off-facet part of that complex, with the
shared face adjoined, carries an explicit interval partitioning.  The
recursive construction repairs the missing partitioning of the off-facet
part by gluing smaller extenders onto every face strictly between the
shared face and its interval top, swapping certificate pieces as it goes.
Every gadget, k = d included, is built by that path and checked once, on
masks; its with-face certificate holds the seed's intervals.

Whole-complex extenders attach one such gadget per face of the base
complex, yielding a same-dimension supercomplex together with interval
partitionings of both the supercomplex and the relative family, verified
before anything is returned.  Every face a gadget adds holds one of its
fresh vertices, whose labels exceed every label before them, so the
attachment log records only where each gadget went: its intervals are
the certificates' intervals whose tops hold its fresh vertices.

Both constructions glue through one mutable builder and differ only in
which list each mapped piece certificate joins.  The two certificates
share most intervals, so they are kept as three lists, ``shared``,
``with_only`` and ``without_only``: a gadget's swap moves only the last
two, and each shared interval is mapped, decoded, ordered and verified
once for both.  The builder works on ``int`` face masks from a copy of
its host's mask view: each gadget is cached as masks together with its
marked complex, and gluing maps a gadget mask through a table over its
specified facet plus one shift for its fresh vertices, which also gives
each glued face's frozenset, made once.  Frozensets leave the builder
only at the result boundary, :meth:`_Builder.freeze`, which orders both
certificates with one sort.

One checker, :func:`_check_result`, checks every result and is the only
code that derives a value from one: it reads the result as masks (a built
result passes the masks it was frozen from, any other is read through its
extender's view), validates both certificates whole in one joint
exact-cover test, and caches the h-vectors and h-triangles on the
result, which :func:`h_decomposition` and the CLI read.  It certifies h(base) = h(extender) - h(relative), and the same of
h-triangles: only the base's numbers are counted from faces; the others
are read off the verified certificates' interval counts, by bottom size
(Stanley) or by (top size, bottom size) for a layer-compatible one
(Björner and Wachs).  A pure base whose certificates have only full tops
needs no facet-size pass.  A result is frozen, so the cached values stay
true of it; a hand-built or copied result starts with empty caches and is
checked on the first read of either.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from operator import eq, itemgetter, sub
from typing import NamedTuple, Optional

from .complexes import (
    Face,
    SimplicialComplex,
    _bit_values,
    _integer,
    _MaskCodec,
    _MaskView,
    _submasks,
    build_complex,
    h_triangle,
    h_vector,
    lex_key,
)
from .errors import (
    InternalCheckError,
    InvalidParameters,
    InvalidResult,
    NotPure,
    VoidComplex,
)
from .partitions import (
    IntervalPartition,
    PartitionReport,
    _interval_h,
    _verify_joint,
)


@dataclass(frozen=True)
class PieceAttachment:
    """One glued gadget: its face, its target facet and its fresh labels.
    Every face it adds holds one of them, so its intervals are the host
    certificates' intervals whose tops do; a gadget with none, on a facet
    F, contributes only (F, F)."""

    face: Face
    attachment_facet: Face
    fresh_vertices: tuple


@dataclass(frozen=True)
class MarkedComplex:
    """A pure complex with a specified facet, a specified face inside it,
    and interval certificates for the off-facet family with and (when
    available) without the specified face adjoined."""

    complex: SimplicialComplex
    specified_facet: Face
    specified_face: Face
    with_face_partition: IntervalPartition
    without_face_partition: Optional[IntervalPartition]
    attachments: tuple = ()


_CERTIFICATES = ("extender", "relative")


@dataclass(frozen=True)
class ExtenderResult:
    """A verified partition extender for a whole complex.

    The h-vectors and h-triangles of the base, the extender and the
    relative family are cached on the result by :func:`_check_result`.  A
    result built by this module was checked before it was returned; a
    hand-built or copied result starts with empty caches, and its first
    read of either runs the same check, which raises :class:`InvalidResult`
    with the checker's message if the result fails it.
    """

    extender: SimplicialComplex
    base: SimplicialComplex
    extender_partition: IntervalPartition
    relative_partition: IntervalPartition
    attachment_log: tuple

    @cached_property
    def h_vectors(self) -> tuple:
        """h-vectors of the base, the extender and the relative family."""
        return _checked(self)["h_vectors"]

    @cached_property
    def h_triangles(self) -> tuple:
        """h-triangles of the base, the extender and the relative family."""
        return _checked(self)["h_triangles"]


def _checked(result: ExtenderResult) -> dict:
    """The result's cache, after checking a result that was not built here."""
    try:
        _check_result(result)
    except InternalCheckError as exc:
        raise InvalidResult(str(exc)) from None
    return vars(result)


def _ensure_valid(report: PartitionReport, what: str) -> PartitionReport:
    if not report.valid:
        raise InternalCheckError(f"{what}: {report.violation}")
    return report


@lru_cache(maxsize=None)
def _prepartition(d: int, k: int) -> MarkedComplex:
    # Vertex blocks: 1..d-k private to the first cell, d-k+1..2d-2k private
    # to the second, 2d-2k+1..2d-k+1 shared.
    private = d - k
    core = frozenset(range(2 * private + 1, 2 * private + k + 2))
    first_cell = frozenset(range(1, private + 1)) | core
    second_cell = frozenset(range(private + 1, 2 * private + 1)) | core

    def window(j):
        return frozenset(range(j + 1, j + private + 2))

    facets = {first_cell, second_cell}
    for j in range(private):
        for i in core:
            facets.add(window(j) | (core - {i}))
    complex_ = build_complex(facets)

    intervals = [(core, first_cell)]
    for i in sorted(core):
        below = frozenset(v for v in core if v < i)
        for j in range(private):
            intervals.append((frozenset([j + 1]) | below, window(j) | (core - {i})))
    return MarkedComplex(complex_, second_cell, core, IntervalPartition.of(intervals), None)


class _Gadget(NamedTuple):
    """A gadget's off-facet faces and certificates as masks, laid out for
    gluing: the specified face's vertices, sorted, take the lowest bits,
    the rest of the specified facet's, sorted, the bits up to
    facet_size - 1, and the other vertices the bits above them, sorted.
    So bit ``i`` of the facet goes to entry ``i`` of the host's targets,
    laid out the same way.  ``face_bits`` lists each face's bit
    positions, in the order of ``faces``.  The with-face certificate is
    ``shared`` and ``with_only``, the without-face one ``shared`` and
    ``without_only``, as (bottom, top) mask pairs in build order."""

    facet_size: int
    fresh: int
    faces: tuple
    face_bits: tuple
    shared: tuple
    with_only: tuple
    without_only: tuple


class _Builder:
    """A complex under construction, on masks: face set, codec (labels of
    the host's vertices, then of the fresh ones), attachment log, and the
    (bottom, top) lists of the with-face (or extender) certificate,
    ``shared`` and ``with_only``, and the without-face (or relative) one,
    ``shared`` and ``without_only``; each is verified whole.  Each
    attachment adds a closed face set, so the face set stays closed, and
    writes the frozenset of each face it adds into the codec's decode
    table, so each face is decoded once."""

    def __init__(self, host: SimplicialComplex, shared=(), with_only=(), without_only=()):
        self.codec = codec = host._view.codec.extended(())
        self.faces = set(host._view.masks)
        self.next_label = max(host.vertices, default=-1) + 1
        self.shared, self.with_only, self.without_only = (
            [(codec.mask(b), codec.mask(t)) for b, t in part]
            for part in (shared, with_only, without_only))
        self.log: list[tuple] = []

    def attach(self, piece: _Gadget, facet: int, face: int) -> tuple:
        """Glue ``piece``'s specified facet onto ``facet`` and its specified
        face onto ``face``, order-preserving on sorted labels; its other
        vertices get the next labels, in order.  Returns its shared,
        with-only and without-only intervals in the new labels, as mask
        pair lists, each pair mapped once."""
        targets = [*_bit_values(face), *_bit_values(facet & ~face)]
        tab = [0]  # tab[m]: the host face of the piece's facet face m
        for bit in targets:
            tab += [x | bit for x in tab]
        low, width, shift = len(tab) - 1, piece.facet_size, len(self.codec.labels)
        images = [tab[m & low] | (m >> width) << shift for m in piece.faces]
        self.faces.update(images)
        mapped = tuple(
            [(tab[b & low] | (b >> width) << shift, tab[t & low] | (t >> width) << shift)
             for b, t in pairs]
            for pairs in (piece.shared, piece.with_only, piece.without_only))
        fresh = tuple(range(self.next_label, self.next_label + piece.fresh))
        self.codec.extend(fresh)
        self.next_label += piece.fresh
        self.log.append((face, facet, fresh))
        # The glued faces are decoded in bulk: image(i) is the codec's label
        # of the bit that piece bit i maps to, the target's or a fresh one,
        # so no image is decoded bit by bit.
        labels = self.codec.labels
        image = ([labels[bit.bit_length() - 1] for bit in targets]
                 + labels[shift:shift + piece.fresh]).__getitem__
        self.codec.face.update(
            zip(images, [frozenset(map(image, bits)) for bits in piece.face_bits]))
        return mapped

    def freeze(self) -> tuple:
        """(complex, with-face partition, without-face partition, log).

        Every frozenset returned is ``codec.face[m]`` for a mask ``m`` of
        the builder, so what is verified on the masks is true of the
        result, and the complex, intervals and log share those frozensets.
        :meth:`attach` has already written each glued face into
        ``codec.face``.  Both partitions come from one :func:`_canonical`
        call, so a shared interval is decoded and ordered once."""
        face = self.codec.face
        complex_ = SimplicialComplex(frozenset(map(face.__getitem__, self.faces)))
        return (complex_,
                *_canonical(self.codec, self.shared, self.with_only, self.without_only),
                tuple(PieceAttachment(face[sigma], face[facet], fresh)
                      for sigma, facet, fresh in self.log))


def _canonical(codec: _MaskCodec, shared: list, *only: list) -> list:
    """The certificates ``shared`` + ``o``, for each mask pair list ``o``
    of ``only``, as interval partitions ordered as
    :meth:`IntervalPartition.of` orders pairs: by top and then bottom as
    sorted labels.  Each pair's key and frozenset pair are made once, and
    the union is sorted once, by top.  Distinct tops, which every valid
    certificate has, already order a certificate's pairs; one whose tops
    repeat, side by side once sorted, is sorted again by top and bottom."""
    face = codec.face
    pairs = [*shared, *itertools.chain(*only)]
    tops = list(map(face.__getitem__, map(itemgetter(1), pairs)))
    keys = list(map(sorted, tops))
    decoded = list(zip(map(face.__getitem__, map(itemgetter(0), pairs)), tops))
    order = sorted(range(len(pairs)), key=keys.__getitem__)
    certificates = []
    common = start = len(shared)
    for part in only:
        stop = start + len(part)
        mine = [i for i in order if i < common or start <= i < stop]
        start = stop
        ordered = list(map(keys.__getitem__, mine))
        if any(map(eq, ordered, ordered[1:])):
            mine.sort(key=lambda i: (keys[i], sorted(decoded[i][0])))
        certificates.append(IntervalPartition(tuple(map(decoded.__getitem__, mine))))
    return certificates


def _as_masks(codec: _MaskCodec, partitions: tuple) -> list:
    """Each partition's (bottom, top) pairs as masks, in its order."""
    mask = codec.mask
    return [[(mask(b), mask(t)) for b, t in part] for part in partitions]


def _gadget(marked: MarkedComplex, build: _Builder, host: SimplicialComplex) -> _Gadget:
    """The mask form of a frozen gadget build on ``host``.  The builder's
    bits follow label order; the specified face's bits and then the rest
    of the specified facet's move to the bottom.  Fresh labels exceed
    every host label, so only host bits move."""
    codec, facet, face = build.codec, marked.specified_facet, marked.specified_face
    host_labels = sorted(host.vertices)
    order = sorted(host_labels, key=lambda v: (v not in facet, v not in face, v))
    perm = [0]  # perm[m]: the host-bit mask m in the gadget layout
    for v in host_labels:
        bit = 1 << order.index(v)
        perm += [x | bit for x in perm]
    low = len(perm) - 1

    def move(m):
        return perm[m & low] | (m & ~low)

    closed = frozenset(_submasks(codec.mask(facet)))
    faces = tuple(move(m) for m in build.faces if m not in closed)
    shared, with_only, without_only = (
        tuple((move(b), move(t)) for b, t in part)
        for part in (build.shared, build.with_only, build.without_only))
    return _Gadget(
        facet_size=len(facet),
        fresh=len(codec.labels) - len(facet),
        faces=faces,
        face_bits=tuple(tuple(b.bit_length() - 1 for b in _bit_values(m)) for m in faces),
        shared=shared, with_only=with_only, without_only=without_only)


@lru_cache(maxsize=None)
def _partition_extender(d: int, k: int) -> tuple[MarkedComplex, _Gadget]:
    """The marked gadget (d, k) and its mask form, built once and checked
    once, on masks.  The base case k = d needs no branch: its seed is one
    facet with the single interval (sigma, sigma), and nothing is glued."""
    seed = _prepartition(d, k)
    sigma = seed.specified_face
    anchor = next(t for b, t in seed.with_face_partition if b <= sigma <= t)
    build = _Builder(
        seed.complex, [iv for iv in seed.with_face_partition if iv != (sigma, anchor)],
        [(sigma, anchor)])
    mask = build.codec.mask
    top, bottom = mask(anchor), mask(sigma)
    # The faces strictly between sigma and its interval top, as submasks;
    # each piece's own with-face and without-face intervals swap sides.
    for tau in sorted((bottom | extra for extra in _submasks(top & ~bottom) if extra),
                      key=build.codec.key):
        shared, with_only, without_only = build.attach(
            _partition_extender(d, tau.bit_count() - 1)[1], top, tau)
        build.shared.extend(shared)
        build.with_only.extend(without_only)
        build.without_only.extend(with_only)
    complex_, with_part, without_part, log = build.freeze()
    marked = MarkedComplex(complex_, seed.specified_facet, sigma,
                           with_part, without_part, log)
    off_facet = build.faces.difference(_submasks(mask(seed.specified_facet)))
    # This also checks the seed: the glued with-face intervals are the pieces'
    # without-face ones, which hold only faces with fresh vertices, so the
    # seed's intervals must partition its off-facet faces and sigma; and its
    # tops have d + 1 vertices, so they stay maximal.
    reports = _verify_joint(
        _MaskView(build.codec, off_facet | {bottom}), frozenset({bottom}), build.shared,
        (build.with_only, build.without_only), build.codec,
        lambda: _as_masks(build.codec, (with_part, without_part)))
    for report, what in zip(reports, ("adjoined", "off-facet")):
        _ensure_valid(report, f"{what} certificate for (d={d}, k={k})")
    return marked, _gadget(marked, build, seed.complex)


def partition_extender(d: int, k: int) -> MarkedComplex:
    """A marked complex whose off-facet family is partitionable both with
    and without the specified face, built recursively from the seed."""
    if not (_integer(d) and _integer(k)):
        raise InvalidParameters(f"d and k must be integers, got d={d!r}, k={k!r}")
    if not -1 <= k <= d:
        raise InvalidParameters(f"need -1 <= k <= d, got k={k}, d={d}")
    return _partition_extender(d, k)[0]


def _assemble(base: SimplicialComplex) -> ExtenderResult:
    build = _Builder(base)
    base_masks, face = base._view.masks, build.codec.face
    # The facets, largest first and then lexicographically, so a face's
    # target, the first that contains it, has its facet depth.
    facets = sorted((m for m in base_masks if face[m] in base.facets),
                    key=lambda f: (-f.bit_count(), lex_key(face[f])))
    for sigma in sorted(base_masks, key=build.codec.key):
        target = next(f for f in facets if f & sigma == sigma)
        shared, with_only, without_only = build.attach(
            _partition_extender(target.bit_count() - 1, sigma.bit_count() - 1)[1],
            target, sigma)
        build.shared.extend(shared)
        build.with_only.extend(with_only)
        build.without_only.extend(without_only)
    extender, extender_part, relative_part, log = build.freeze()
    result = ExtenderResult(extender, base, extender_part, relative_part, log)
    _check_result(result, (_MaskView(build.codec, build.faces), build.shared,
                           (build.with_only, build.without_only)))
    return result


def _check_result(result: ExtenderResult, masks: Optional[tuple] = None) -> None:
    """Check a result on masks and cache its h-vectors and h-triangles on
    it.  ``masks`` is (extender view, shared pairs, (extender-only pairs,
    relative-only pairs)): a built result passes a view of the masks it
    was frozen from, kept off the result, whose codec reads the base's own
    view bit for bit, and its intervals split as built.  Any other result
    is read through its extender's view, whose codec, or a copy extended
    by the labels it lacks, reads the base and intervals, and shares
    none.  Both certificates are checked whole by one
    :func:`_verify_joint` call; the split only says what is listed once.

    Certified: the base lies in the extender, of its dimension; both
    certificates are valid; for a nonpure result, facet depths are kept
    and both certificates are layer-compatible; and the base's h-vector
    and h-triangle, the only numbers counted from faces, are the
    extender's less the relative family's, which are read off the
    certificates' interval counts (Stanley; Björner and Wachs).

    The pure shortcut is decided from the tops before anything is
    verified.  If the base is pure and every top of both certificates is
    full (d + 1 vertices), then once both certificates are valid every
    member of the three families lies under a full top: facet depths and
    layers hold, each h-triangle is its h-vector in row d + 1, and no
    facet-size map is read.  Otherwise the maps of the base's view and
    then the extender's are read, one mask pass each; the relative
    family's view shares the extender's, so it serves both verifications
    as their test of maximality.

    The values are read from the masks that the result's frozensets stand
    for, so they are true of the result; they are written into the
    instance dictionary, as a first read of the cached property would,
    only once every check has passed."""
    parts = (result.extender_partition, result.relative_partition)
    if masks is None:
        view = result.extender._view
        codec = view.reading(itertools.chain(
            *result.base.faces, *itertools.chain(*parts[0], *parts[1])))
        base_view = _MaskView(codec, frozenset(map(codec.mask, result.base.faces)))
        masks = (view, (), _as_masks(codec, parts))
    else:
        base_view, codec = result.base._view, masks[0].codec
    (view, shared, only), base, d = masks, base_view.masks, result.extender.dim
    if d != result.base.dim:
        raise InternalCheckError("extender changed the dimension")
    if not base <= view.masks:
        missing = min(base - view.masks, key=codec.key)
        raise InternalCheckError(f"base face {codec.name(missing)} is not in the extender")
    pure = result.base.is_pure and set(map(int.bit_count, map(
        itemgetter(1), itertools.chain(shared, *only)))) <= {d + 1}
    if not pure:
        base_sizes, sizes = base_view.sizes, view.sizes
    reports = _verify_joint(view, base, shared, only, codec, lambda: _as_masks(codec, parts))
    for what, report in zip(_CERTIFICATES, reports):
        _ensure_valid(report, f"{what} certificate")
    if not pure:
        changed = [s for s in base if base_sizes[s] != sizes[s]]
        if changed:
            raise InternalCheckError(
                f"facet depth of {codec.name(min(changed, key=codec.key))} changed")
        # As in is_layer_compatible; a shared pair is named with the extender.
        for what, part in zip(_CERTIFICATES, (itertools.chain(shared, only[0]), only[1])):
            if not all(sizes[b] == sizes[t] for b, t in part):
                raise InternalCheckError(f"{what} certificate is not layer-compatible")
    (h_big, tri_big), (h_rel, tri_rel) = (_interval_h(report, d) for report in reports)
    h_base = tuple(map(sub, h_big, h_rel))
    tri_base = tuple(tuple(map(sub, *rows)) for rows in zip(tri_big, tri_rel))
    if h_vector(result.base) != h_base or not pure and h_triangle(result.base) != tri_base:
        raise InternalCheckError("h(base) is not h(extender) - h(relative)")
    vars(result).update(h_vectors=(h_base, h_big, h_rel),
                        h_triangles=(tri_base, tri_big, tri_rel))


def extender_for_complex(base: SimplicialComplex) -> ExtenderResult:
    """A partition extender for a pure complex: one gadget per face, glued
    to the lexicographically smallest facet containing it."""
    if base.is_void:
        raise VoidComplex("the void complex has no extender")
    if not base.is_pure:
        raise NotPure("base must be pure; use nonpure_extender_for_complex")
    return _assemble(base)


def nonpure_extender_for_complex(base: SimplicialComplex) -> ExtenderResult:
    """A depth-preserving extender for an arbitrary complex, with
    layer-compatible and h-compatible certificates."""
    if base.is_void:
        raise VoidComplex("the void complex has no extender")
    return _assemble(base)


def h_decomposition(result: ExtenderResult) -> tuple[tuple, tuple, tuple]:
    """(h(extender), h(relative), h(base)) of a checked result.

    The extender's h-vector less the relative family's is the base's.  The
    values are read from the result's cache, so a hand-built or copied
    result is checked here on first use, as any read of
    :attr:`ExtenderResult.h_vectors` checks it, and raises
    :class:`InvalidResult` if it fails.
    """
    h_base, h_big, h_rel = result.h_vectors
    return h_big, h_rel, h_base


def size_estimate(d: int, k: int) -> tuple[int, int]:
    """The paper's face-count recurrence g(k) and its crude bound for a
    (d, d-k) extender.

    ``k`` is the co-dimension of the attached face.  Returns g(k) and the
    closed-form upper bound ``2**(2**k - 1 + d)``.  The recurrence is the
    paper's, and it under-counts the gadgets built here: for every
    1 <= k <= d <= 4, the gadget :func:`partition_extender` builds adds
    more faces than g(k), 3069 against 2920 at d = k = 4.
    """
    if not (_integer(d) and _integer(k)):
        raise InvalidParameters(f"d and k must be integers, got d={d!r}, k={k!r}")
    if not 0 <= k <= d:
        raise InvalidParameters(f"need 0 <= k <= d, got k={k}, d={d}")
    # 2**14284 is the largest power of two that Python prints by default
    # (4300 digits); d is tested first, so 2**k is never huge.
    if d > 14284 or 2 ** k - 1 + d > 14284:
        raise InvalidParameters(f"the bound 2^(2^{k}-1+{d}) has more than 4300 digits")
    g = [0]
    for j in range(1, k + 1):
        g.append(j * (2 ** (d + 1) - 2 ** j) + sum(comb(j, i) * g[i] for i in range(j)))
    return g[k], 2 ** (2 ** k - 1 + d)
