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
before anything is returned.

Both constructions glue through one mutable builder and differ only in
which list each mapped piece certificate joins.  The builder works on
``int`` face masks from a copy of its host's mask view: each gadget is
cached as masks together with its marked complex, and gluing maps a
gadget mask through a table over its specified facet plus one shift for
its fresh vertices, which also gives each glued face's frozenset, made
once as the gadget is glued.  Frozensets leave the builder only at the
result boundary, :meth:`_Builder.freeze`, which canonicalises each built
certificate once.

One checker, :func:`_check_result`, checks every result and is the only
code that derives a value from one: it reads the result as masks (a built
result passes the masks it was frozen from, any other is read through its
extender's view), validates both certificates, and caches the h-vectors
and h-triangles on the result, which :func:`h_decomposition` and the CLI
read.  Whether the pure shortcut applies is read off the result's tops: a
pure base whose certificates have only full tops needs no facet-size
pass.  A result is frozen, so the cached values stay true of it; a
hand-built or copied result starts with empty caches and is checked on
the first read of either.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from operator import itemgetter
from typing import NamedTuple, Optional

from .complexes import (
    Face,
    SimplicialComplex,
    _bit_values,
    _f_triangle,
    _facet_sizes,
    _h_from_f_triangle,
    _mask_layers,
    _MaskCodec,
    _submasks,
    build_complex,
    f_vector,
    face_key,
    h_from_f,
    lex_key,
    subsets_of,
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
    _h_compatible,
    _verify_masks,
)


@dataclass(frozen=True)
class PieceAttachment:
    """One glued gadget: where it went and what it contributed.  The
    intervals are (bottom, top) pairs in the new labels, in gadget order."""

    face: Face
    attachment_facet: Face
    fresh_vertices: tuple
    with_face_intervals: tuple
    without_face_intervals: tuple


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
    gluing: the specified facet's vertices, sorted, take bits
    0..facet_size-1 and the other vertices the bits above them, sorted.

    Bit ``i`` of the facet goes to entry ``slots[i]`` of the host's
    targets: the face's bits, then the rest of the facet's, each sorted.
    ``face_bits`` lists each face's bit positions, in the order of
    ``faces``; the pairs are in the order of the marked complex's
    certificates."""

    facet_size: int
    slots: tuple
    fresh: int
    faces: tuple
    face_bits: tuple
    with_pairs: tuple
    without_pairs: tuple


class _Builder:
    """A complex under construction, on masks: face set, codec (labels of
    the host's vertices, then of the fresh ones), with-face and
    without-face (bottom, top) lists and attachment log.  Each attachment
    adds a closed face set, so the face set stays closed, and writes the
    frozenset of each face it adds into the codec's decode table, so each
    face is decoded once."""

    def __init__(self, host: SimplicialComplex, with_parts=(), without_parts=()):
        self.codec = codec = host._view.codec.extended(())
        self.faces = set(host._view.masks)
        self.next_label = max(host.vertices, default=-1) + 1
        self.with_parts = [(codec.mask(b), codec.mask(t)) for b, t in with_parts]
        self.without_parts = [(codec.mask(b), codec.mask(t)) for b, t in without_parts]
        self.log: list[tuple] = []

    def attach(self, piece: _Gadget, facet: int, face: int) -> tuple:
        """Glue ``piece``'s specified facet onto ``facet`` and its specified
        face onto ``face``, order-preserving on sorted labels; its other
        vertices get the next labels, in order.  Returns its (with-face,
        without-face) certificates in the new labels, as mask pair lists
        in the piece's order."""
        targets = [*_bit_values(face), *_bit_values(facet & ~face)]
        tab = [0]  # tab[m]: the host face of the piece's facet face m
        for slot in piece.slots:
            bit = targets[slot]
            tab += [x | bit for x in tab]
        low, width, shift = len(tab) - 1, piece.facet_size, len(self.codec.labels)
        images = [tab[m & low] | (m >> width) << shift for m in piece.faces]
        self.faces.update(images)
        mapped_with, mapped_without = (
            [(tab[b & low] | (b >> width) << shift, tab[t & low] | (t >> width) << shift)
             for b, t in pairs]
            for pairs in (piece.with_pairs, piece.without_pairs))
        fresh = tuple(range(self.next_label, self.next_label + piece.fresh))
        self.codec.extend(fresh)
        self.next_label += piece.fresh
        self.log.append((face, facet, fresh, mapped_with, mapped_without))
        # The glued faces are decoded in bulk: image(i) is the codec's label
        # of the bit that piece bit i maps to, read off the same table and
        # shift as the images, so no image is decoded bit by bit.
        labels = self.codec.labels
        image = ([labels[tab[1 << i].bit_length() - 1] for i in range(width)]
                 + labels[shift:shift + piece.fresh]).__getitem__
        self.codec.face.update(
            zip(images, [frozenset(map(image, bits)) for bits in piece.face_bits]))
        return mapped_with, mapped_without

    def freeze(self) -> tuple:
        """(complex, with-face partition, without-face partition, log).

        Every frozenset returned is ``codec.face[m]`` for a mask ``m`` of
        the builder, so what is verified on the masks is true of the
        result, and the complex, intervals and log share those frozensets.
        :meth:`attach` has already written each glued face into
        ``codec.face``.  The with-face and without-face lists are sorted in
        place into the partitions' canonical order."""
        face = self.codec.face
        complex_ = SimplicialComplex(frozenset(map(face.__getitem__, self.faces)))

        def pairs(masks):
            return tuple([(face[b], face[t]) for b, t in masks])

        return (complex_,
                _canonical(self.with_parts, self.codec),
                _canonical(self.without_parts, self.codec),
                tuple(PieceAttachment(face[sigma], face[facet], fresh, pairs(w), pairs(wo))
                      for sigma, facet, fresh, w, wo in self.log))


def _canonical(parts: list, codec: _MaskCodec) -> IntervalPartition:
    """Sort mask pairs in place as :meth:`IntervalPartition.of` orders
    pairs, by top and then bottom as sorted labels, and wrap their faces.
    Distinct tops, which every valid certificate has, already order the
    pairs, so the bottoms are read only when a top repeats."""
    face = codec.face
    if len(set(map(itemgetter(1), parts))) == len(parts):
        parts.sort(key=lambda bt: sorted(face[bt[1]]))
    else:
        parts.sort(key=lambda bt: (sorted(face[bt[1]]), sorted(face[bt[0]])))
    return IntervalPartition(tuple([(face[b], face[t]) for b, t in parts]))


def _gadget(marked: MarkedComplex, build: _Builder, host: SimplicialComplex) -> _Gadget:
    """The mask form of a frozen gadget build on ``host``.  The builder's
    bits follow label order; the specified facet's bits move to the
    bottom.  Fresh labels exceed every host label, so only host bits move."""
    codec, facet, face = build.codec, marked.specified_facet, marked.specified_face
    host_labels = sorted(host.vertices)
    order = sorted(host_labels, key=lambda v: (v not in facet, v))
    perm = [0]  # perm[m]: the host-bit mask m in the gadget layout
    for v in host_labels:
        bit = 1 << order.index(v)
        perm += [x | bit for x in perm]
    low = len(perm) - 1

    def move(m):
        return perm[m & low] | (m & ~low)

    closed = frozenset(_submasks(codec.mask(facet)))
    rank = {v: i for i, v in enumerate([*sorted(face), *sorted(facet - face)])}
    faces = tuple(move(m) for m in build.faces if m not in closed)
    return _Gadget(
        facet_size=len(facet),
        slots=tuple(rank[v] for v in sorted(facet)),
        fresh=len(codec.labels) - len(facet),
        faces=faces,
        face_bits=tuple(tuple(b.bit_length() - 1 for b in _bit_values(m)) for m in faces),
        with_pairs=tuple((move(b), move(t)) for b, t in build.with_parts),
        without_pairs=tuple((move(b), move(t)) for b, t in build.without_parts))


@lru_cache(maxsize=None)
def _partition_extender(d: int, k: int) -> tuple[MarkedComplex, _Gadget]:
    """The marked gadget (d, k) and its mask form, built once and checked
    once, on masks.  The base case k = d needs no branch: its seed is one
    facet with the single interval (sigma, sigma), and nothing is glued."""
    seed = _prepartition(d, k)
    sigma = seed.specified_face
    anchor = next(t for b, t in seed.with_face_partition if b <= sigma <= t)
    build = _Builder(
        seed.complex, seed.with_face_partition,
        [iv for iv in seed.with_face_partition if iv != (sigma, anchor)])
    mask = build.codec.mask
    for tau in sorted((t for t in subsets_of(anchor) if sigma < t), key=face_key):
        mapped_with, mapped_without = build.attach(
            _partition_extender(d, len(tau) - 1)[1], mask(anchor), mask(tau))
        build.with_parts.extend(mapped_without)
        build.without_parts.extend(mapped_with)
    complex_, with_part, without_part, log = build.freeze()
    marked = MarkedComplex(complex_, seed.specified_facet, sigma,
                           with_part, without_part, log)
    off_facet = build.faces.difference(_submasks(mask(seed.specified_facet)))
    # This also checks the seed: the glued with-face intervals are the pieces'
    # without-face ones, which hold only faces with fresh vertices, so the
    # seed's intervals must partition its off-facet faces and sigma; and its
    # tops have d + 1 vertices, so they stay maximal.
    _ensure_valid(_verify_masks(off_facet | {mask(sigma)}, build.with_parts, build.codec),
                  f"adjoined certificate for (d={d}, k={k})")
    _ensure_valid(_verify_masks(off_facet, build.without_parts, build.codec),
                  f"off-facet certificate for (d={d}, k={k})")
    return marked, _gadget(marked, build, seed.complex)


def partition_extender(d: int, k: int) -> MarkedComplex:
    """A marked complex whose off-facet family is partitionable both with
    and without the specified face, built recursively from the seed."""
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
        mapped_with, mapped_without = build.attach(
            _partition_extender(target.bit_count() - 1, sigma.bit_count() - 1)[1],
            target, sigma)
        build.with_parts.extend(mapped_with)
        build.without_parts.extend(mapped_without)
    extender, extender_part, relative_part, log = build.freeze()
    result = ExtenderResult(extender, base, extender_part, relative_part, log)
    _check_result(result, (build.codec, base_masks, build.faces,
                           (build.with_parts, build.without_parts)))
    return result


def _check_result(result: ExtenderResult, masks: Optional[tuple] = None) -> None:
    """Check a result on masks and cache its h-vectors and h-triangles on
    it.  ``masks`` is (codec, base faces, extender faces, (extender pairs,
    relative pairs)): a built result passes the masks it was frozen from,
    and any other is read through its extender's view, whose codec, or a
    copy extended by the labels it lacks, reads the base and intervals.

    The pure shortcut is decided from the tops before anything is
    verified.  If the base is pure and every top of both certificates is
    full (d + 1 vertices), then once both certificates are valid every
    member of the three families lies under a full top: facet depths,
    layers and h-compatibility hold, each h-triangle is its h-vector in
    row d + 1, and no facet-size map is built.  Otherwise the facet sizes
    of the base and then the extender are read from one mask pass each;
    the extender's map also serves both verifications as their test of
    maximality, and every nonpure condition is checked.

    The values are read from the masks that the result's frozensets stand
    for, so they are true of the result; they are written into the
    instance dictionary, as a first read of the cached property would,
    only once every check has passed."""
    if masks is None:
        parts = (result.extender_partition, result.relative_partition)
        view = result.extender._view
        codec = view.reading(itertools.chain(
            *result.base.faces, *itertools.chain(*parts[0], *parts[1])))
        mask = codec.mask
        masks = (codec, frozenset(map(mask, result.base.faces)), view.masks,
                 tuple([(mask(b), mask(t)) for b, t in p] for p in parts))
    codec, base, big, pairs = masks
    d = result.extender.dim
    if d != result.base.dim:
        raise InternalCheckError("extender changed the dimension")
    if not base <= big:
        missing = min(base - big, key=codec.key)
        raise InternalCheckError(f"base face {codec.name(missing)} is not in the extender")
    pure = result.base.is_pure and all(t.bit_count() == d + 1 for part in pairs for _, t in part)
    base_sizes = sizes = None
    if not pure:
        base_sizes, sizes = _facet_sizes(base), _facet_sizes(big)
    # A face of the extender that contains a relative face is relative
    # itself, so the relative family's facet sizes are the extender's.
    reports = (_verify_masks(big, pairs[0], codec, sizes),
               _verify_masks(big - base, pairs[1], codec, sizes))
    # Certified: both partitionings and, if nonpure, depths, layers and
    # h-compatibility.  Relative counts are the extender's less the base's
    # through linear maps, so h(base) = h(extender) - h(relative) by arithmetic.
    f_base, f_big = f_vector(result.base), f_vector(result.extender)
    h_vectors = tuple(map(h_from_f, (
        f_base, f_big, tuple(a - b for a, b in zip(f_big, f_base)))))
    for what, report in zip(_CERTIFICATES, reports):
        _ensure_valid(report, f"{what} certificate")
    if pure:
        zero_rows = tuple((0,) * (i + 1) for i in range(d + 1))
        vars(result).update(h_vectors=h_vectors,
                            h_triangles=tuple((*zero_rows, h) for h in h_vectors))
        return
    changed = [s for s in base if base_sizes[s] != sizes[s]]
    if changed:
        raise InternalCheckError(
            f"facet depth of {codec.name(min(changed, key=codec.key))} changed")
    # With depths preserved, the relative layers are the extender's less
    # the base's.
    layers_base, layers_big = _mask_layers(base_sizes), _mask_layers(sizes)
    h_triangles = tuple(
        _h_from_f_triangle(_f_triangle(layers, d))
        for layers in (layers_base, layers_big, layers_big - layers_base))
    for what, part, report, h_tri in zip(_CERTIFICATES, pairs, reports, h_triangles[1:]):
        if not all(sizes[b] == sizes[t] for b, t in part):  # as in is_layer_compatible
            raise InternalCheckError(f"{what} certificate is not layer-compatible")
        if not _h_compatible(report, h_tri):
            raise InternalCheckError(f"{what} certificate is not h-compatible")
    vars(result).update(h_vectors=h_vectors, h_triangles=h_triangles)


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


def _growth_sequence(d: int, upto: int) -> list[int]:
    g = [0]
    for k in range(1, upto + 1):
        g.append(k * (2 ** (d + 1) - 2 ** k)
                 + sum(comb(k, j) * g[j] for j in range(k)))
    return g


def size_estimate(d: int, k: int) -> tuple[int, int]:
    """Face-count recurrence and crude bound for a (d, d-k) extender.

    ``k`` is the co-dimension of the attached face.  Returns the exact
    recurrence value and the closed-form upper bound ``2**(2**k - 1 + d)``.
    """
    if not 0 <= k <= d:
        raise InvalidParameters(f"need 0 <= k <= d, got k={k}, d={d}")
    # 2**14284 is the largest power of two that Python prints by default
    # (4300 digits); d is tested first, so 2**k is never huge.
    if d > 14284 or 2 ** k - 1 + d > 14284:
        raise InvalidParameters(f"the bound 2^(2^{k}-1+{d}) has more than 4300 digits")
    return _growth_sequence(d, k)[k], 2 ** (2 ** k - 1 + d)


def total_size_estimate(c: SimplicialComplex) -> int:
    """Recurrence-based estimate of the faces added by
    :func:`extender_for_complex`, summed over the base's faces."""
    d = c.dim
    if c.is_void:
        return 0
    g = _growth_sequence(d, d + 1)
    f = f_vector(c)
    return sum(f[k + 1] * g[d - k] for k in range(-1, d + 1))
