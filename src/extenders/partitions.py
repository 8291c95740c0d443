"""Boolean-interval partitionings: verification, statistics, and search.

A partitioning claims that a face family is a disjoint union of Boolean
intervals whose tops are maximal members.  Verification decides the
claim in bulk: the faces of all intervals, each enumerated, must be the
family once over, so the listing stops once they outnumber the family,
and only a failing claim is walked interval by interval to name its
first offence.  Whether a top is maximal is read from one place, the
facet-size map of the family's mask view, ``view.sizes``, built once per
face set: a top is maximal when its facet size is its own size.  Nothing
is assumed about the family being closed under subsets.  It runs on
``int`` face masks, through one entry, :func:`_verify`: the intervals
some certificates share, and each certificate's own intervals and the
members its family lacks.  :func:`verify_partitioning` passes one
certificate; the construction core two, of a family and a subfamily,
which share most intervals.  One exact-cover test, :func:`_exact_covers`,
decides them all, listing each shared interval's faces once; claims that
fail it are walked one whole certificate at a time, so every report is
the one :func:`verify_partitioning` gives, word for word.  The walk
visits each interval's faces by size and then in bit order, which is
label order, so every failure names its least offending face by
:func:`face_key`, the first it meets.  The searches backtrack
exhaustively over the view's masks, with fully lexicographic
tie-breaking, so witnesses and verdicts are reproducible.

Every function here reads only ``faces`` and ``dim`` and the view of the
faces, which a complex and a relative family both expose, so either can
be passed as it is; the faces are the members of the family.  The
shelling functions take a complex and an optional subcomplex and read the
pair through :func:`pair_family`, whose view shares the complex's codec:
the faces of the subcomplex are the complex's masks less the family's.
Each step adds a facet F's Boolean interval [R(F), F] of masks, read off
the restriction face R(F) (Björner).

The layer check runs on a partitioning validated once, plus the
facet-size map of the family's view (each member's largest containing
member), from which the search also reads its tops.  The h-numbers a
partitioning witnesses are read off its report's interval counts, by
:func:`_interval_h` for the h-compatibility check and the construction.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .complexes import (
    ComplexOrFamily,
    Face,
    SimplicialComplex,
    _MaskCodec,
    _MaskView,
    _bit_values,
    _face_order,
    _label_key,
    _submasks,
    face_of,
    format_face,
    h_from_f,
    h_triangle,
    h_vector,
    pair_family,
)
from .errors import (
    InvalidParameters,
    InvalidPartitioning,
    NotAPermutation,
    SizeLimitExceeded,
)

DEFAULT_MAX_MEMBERS = 40
DEFAULT_MAX_FACETS = 12
_UNIT = 1 << 32  # above any face size: an interval count key's top-size unit


@dataclass(frozen=True)
class IntervalPartition:
    """A sequence of (bottom, top) face pairs in canonical order."""

    intervals: tuple

    @classmethod
    def of(cls, pairs: Iterable[tuple[Iterable[int], Iterable[int]]]) -> "IntervalPartition":
        normalized = []
        for bottom, top in pairs:
            b, t = face_of(bottom), face_of(top)
            if not b <= t:
                raise InvalidParameters(
                    f"interval bottom {format_face(b)} is not contained in "
                    f"top {format_face(t)}")
            normalized.append((b, t))
        # By top, then by bottom, each as its sorted label list.
        normalized.sort(key=lambda bt: (sorted(bt[1]), sorted(bt[0])))
        return cls(tuple(normalized))

    def __iter__(self) -> Iterator[tuple[Face, Face]]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def to_records(self) -> list[dict]:
        return [{"bottom": sorted(b), "top": sorted(t)} for b, t in self.intervals]

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "IntervalPartition":
        return cls.of((rec["bottom"], rec["top"]) for rec in records)


@dataclass(frozen=True)
class PartitionReport:
    """Outcome of verifying a partitioning against a family."""

    valid: bool
    violation: Optional[str]
    interval_stats: tuple  # sorted ((top size, bottom size), count) pairs


def verify_partitioning(fam: ComplexOrFamily, p: IntervalPartition) -> PartitionReport:
    """Check that ``p`` partitions ``fam`` into Boolean intervals.

    Valid means: every set between each bottom and top is a member, the
    intervals are pairwise disjoint, their union is exactly the family,
    and every top is a maximal member.  Failures are reported, not raised.
    :func:`_verify` checks the intervals, read through the family's codec
    (a copy extended by any label it lacks), as one claim on its view.
    """
    codec = fam._view.reading(itertools.chain(*itertools.chain(*p)))
    pairs = [(codec.mask(b), codec.mask(t)) for b, t in p]
    return _verify(fam._view, (), ((frozenset(), pairs),), codec, lambda: (pairs,))[0]


def _verify(view: _MaskView, shared: Sequence[tuple[int, int]], claims: Sequence[tuple],
            codec: _MaskCodec, full: Callable[[], Sequence]) -> tuple:
    """One report per claim (removed, own): whether the (bottom, top)
    intervals ``shared`` and ``own`` partition the family ``view.masks``
    less the members ``removed``.  ``codec`` names faces, and ``full()``
    lists each claim's whole certificate in the order it is checked.  The
    claims are decided together by :func:`_exact_covers`.  If they fail,
    each whole certificate is walked by :func:`_name_offence` on its own
    family, ``view`` itself when nothing is removed, so each report names
    the offence, word for word, that the certificate alone would name."""
    common = _stats(shared)
    stats = [common + _stats(own) for _, own in claims]
    if _exact_covers(view, shared, claims, stats):
        violations = [None] * len(claims)
    else:
        violations = [_name_offence(
            _MaskView(codec, view.masks - removed, view) if removed else view, pairs, codec)
            for (removed, _), pairs in zip(claims, full())]
    return tuple(PartitionReport(v is None, v, tuple(
        (divmod(key, _UNIT), n) for key, n in sorted(s.items())))
        for v, s in zip(violations, stats))


def _stats(pairs: Sequence[tuple[int, int]]) -> Counter:
    """Interval counts by (top size, bottom size), the two packed into one
    int key, ``top size * _UNIT + bottom size``, which sorts as the pair
    and unpacks by ``divmod(key, _UNIT)``."""
    bits = int.bit_count
    return Counter([bits(t) * _UNIT + bits(b) for b, t in pairs])


def _exact_covers(view: _MaskView, shared: Sequence[tuple[int, int]],
                  claims: Sequence[tuple], stats: Sequence[Counter]) -> bool:
    """Whether, for each claim (removed, own), with interval counts
    ``stats`` (keyed as :func:`_stats` packs them), the intervals of
    ``shared`` and ``own`` partition the family ``view.masks`` less the
    members ``removed``, with maximal tops.

    The claims are decided in bulk, each face listed once for all.  The
    shared faces must be distinct members; each claim's own faces must be
    distinct members, and neither kind may be removed nor both at once,
    and together they must number the claim's family, so that they are
    that family once over.  The listing stops before the faces outnumber
    a family, so the work is bounded by the family whatever the claim.
    An exact cover puts every member under a top, so tops of one size are
    all maximal; otherwise every top must be its own facet size in the
    family, ``view.sizes``, and so also in the subfamily.
    """
    members = view.masks
    listed = _interval_faces(shared, len(members))
    if listed is None:
        return False
    # One pass each: the listed faces that are members, which number the
    # listing only if every listed face is a distinct member.
    common = members.intersection(listed)
    if len(common) < len(listed):
        return False
    for (removed, part), counts in zip(claims, stats):
        size = len(members) - len(removed) - len(common)
        own = _interval_faces(part, size)
        if own is None or not (removed <= members and common.isdisjoint(removed)):
            return False
        distinct = members.intersection(own)
        if not (len(distinct) == len(own) == size
                and distinct.isdisjoint(removed) and distinct.isdisjoint(common)):
            return False
        if len({key // _UNIT for key in counts}) > 1 and not all(
                view.sizes[t] == t.bit_count() for _, t in itertools.chain(shared, part)):
            return False
    return True


def _interval_faces(pairs: Sequence[tuple[int, int]], room: int) -> Optional[list]:
    """The faces of the intervals, the submasks of each gap over its
    bottom, or None once they would outnumber ``room``.  A bottom that
    leaves its top shares a bit with the gap, so each face of its interval
    is listed twice, which the repeat test refuses."""
    faces: list[int] = []
    add = faces.append
    for b, t in pairs:
        gap = sub = t ^ b
        room -= 1 << gap.bit_count()
        if room < 0:
            return None
        while True:
            add(b | sub)
            if not sub:
                break
            sub = (sub - 1) & gap
    return faces


def _name_offence(view: _MaskView, pairs: Sequence[tuple[int, int]],
                  codec: _MaskCodec) -> Optional[str]:
    """The first offence of a claim, or None: the intervals are walked in
    order.  A top must be a member and its own facet size, read from
    ``view.sizes`` only once a top is smaller than the largest member.
    Each interval's faces are then visited by size, and within a size by
    bit order, which is label order, as the top is a member: so the first
    offending face met is the least by :func:`face_key`, since faces of
    one size over one bottom order as their added parts.  Every face
    visited before it is a member covered once, so the walk visits at
    most one face more than the family has members.
    """
    def label(b, t):
        return f"[{codec.name(b)}, {codec.name(t)}]"

    members = view.masks
    top_size = max(map(int.bit_count, members), default=0)
    covered: set[int] = set()
    add = covered.add
    for b, t in pairs:
        if t not in members:
            return f"top of {label(b, t)} is not a member"
        if t.bit_count() < top_size and view.sizes[t] > t.bit_count():
            above = _face_order(m for m in members if m & t == t and m != t)[0]
            return (f"top of {label(b, t)} is not maximal: it is "
                    f"contained in {codec.name(above)}")
        bits = [*_bit_values(t & ~b)]
        for size in range(len(bits) + 1):
            for added in itertools.combinations(bits, size):
                s = b | sum(added)
                if s in covered:
                    return f"face {codec.name(s)} is covered twice"
                if s not in members:
                    return (f"interval {label(b, t)} requires "
                            f"{codec.name(s)}, which is not a member")
                add(s)
    if len(covered) != len(members):
        missing = _face_order(members - covered)[0]
        return f"face {codec.name(missing)} is not covered"
    return None


def _require_valid(fam: ComplexOrFamily, p: IntervalPartition) -> PartitionReport:
    report = verify_partitioning(fam, p)
    if not report.valid:
        raise InvalidPartitioning(report.violation)
    return report


def _interval_h(report: PartitionReport, d: int) -> tuple[tuple, tuple]:
    """The h-vector and h-triangle of the family, of ambient dimension
    ``d``, that a valid report's intervals partition.  An interval [b, t]
    holds C(|t| - |b|, j - |b|) faces of j vertices, which gives the
    f-vector and so the h-vector.  The counts by (top size, bottom size)
    are the h-triangle of a layer-compatible partitioning (Björner and
    Wachs); with full tops only, they are the h-vector by bottom size
    (Stanley)."""
    f = [0] * (d + 2)
    rows = [[0] * (i + 1) for i in range(d + 2)]
    for (top, bottom), n in report.interval_stats:
        rows[top][bottom] = n
        for j in range(bottom, top + 1):
            f[j] += n * comb(top - bottom, j - bottom)
    return h_from_f(tuple(f)), tuple(tuple(row) for row in rows)


def h_from_partitioning(fam: ComplexOrFamily, p: IntervalPartition) -> tuple[int, ...]:
    """Interval counts by bottom size; equals the h-vector for pure families."""
    counts = [0] * (fam.dim + 2)
    for (_, bottom), n in _require_valid(fam, p).interval_stats:
        counts[bottom] += n
    return tuple(counts)


def is_layer_compatible(fam: ComplexOrFamily, p: IntervalPartition) -> bool:
    """Whether every top-dimension layer of ``p`` partitions its own layer.

    For each r, the intervals whose tops have dimension at least r must be
    a valid partitioning of the members lying under a maximal member of
    dimension at least r.  For a valid partitioning that holds when each
    bottom has its top's facet size: every face of [b, t] has a facet size
    between the top's own size and the bottom's.
    """
    _require_valid(fam, p)  # so the view's codec reads every interval face
    mask, sizes = fam._view.codec.mask, fam._view.sizes
    return all(sizes[mask(b)] == sizes[mask(t)] for b, t in p)


def is_h_compatible(fam: ComplexOrFamily, p: IntervalPartition) -> bool:
    """Whether interval counts by (top size, bottom size) match the h-triangle."""
    return _interval_h(_require_valid(fam, p), fam.dim)[1] == h_triangle(fam)


def find_partitioning(
    fam: ComplexOrFamily,
    max_members: int = DEFAULT_MAX_MEMBERS,
) -> Optional[IntervalPartition]:
    """Exhaustive search for a partitioning; ``None`` proves none exists.

    One interval per maximal member, processed by decreasing dimension and
    then lexicographically; candidate bottoms are tried in lexicographic
    order, so the returned witness is deterministic.

    When every maximal member has dimension ``fam.dim``, a partitioning
    has exactly h_i intervals with bottom size i (Stanley 1979), so a
    negative h_i refutes one at once and a branch with more than h_i such
    intervals is cut.  Both prunes cut only failing subtrees, so the
    witness is the one the plain search finds.
    """
    if len(fam.faces) > max_members:
        raise SizeLimitExceeded(
            f"family has {len(fam.faces)} members, above the search bound of "
            f"{max_members}",
            limit=max_members, parameter="max_members")
    if not fam.faces:
        return IntervalPartition.of([])
    members, face, sizes = fam._view.masks, fam._view.codec.face, fam._view.sizes
    # Largest first; the sort is stable, so each size stays in face_key order.
    tops = sorted(_face_order(m for m in members if sizes[m] == m.bit_count()),
                  key=int.bit_count, reverse=True)
    # room[i]: how many more intervals with bottom size i may be chosen.
    if all(top.bit_count() == fam.dim + 1 for top in tops):
        room = list(h_vector(fam))
        if min(room) < 0:
            return None
    else:
        room = [len(tops)] * (fam.dim + 2)
    # A member is due at the last top that can still cover it; once that
    # top is assigned, the member must already be covered.
    due_at = {s: i for i, top in enumerate(tops) for s in _submasks(top)}
    due: list[list[int]] = [[] for _ in tops]
    for m in members:
        due[due_at[m]].append(m)
    options = [sorted(((b, cube) for b in _submasks(top)
                       if (cube := _interval(b, top)) <= members),
                      key=lambda choice: _label_key(choice[0]), reverse=True)
               for top in tops]

    # Depth-first, as a loop so that long families stay off the call stack:
    # ``path`` holds the (bottom, cube) chosen for each assigned top, and
    # ``pending`` the choices still to try at each depth.  Candidates are
    # tried in the order a recursion would try them, and a cube leaves
    # ``covered`` when its choice is undone.
    last, covered, path = len(tops) - 1, set(), []
    pending = [iter(options[0])]
    while pending:
        idx = len(path)
        for bottom, cube in pending[-1]:
            if room[bottom.bit_count()] and covered.isdisjoint(cube):
                covered |= cube
                if covered.issuperset(due[idx]):
                    break
                covered -= cube
        else:
            pending.pop()
            if path:
                bottom, cube = path.pop()
                covered -= cube
                room[bottom.bit_count()] += 1
            continue
        path.append((bottom, cube))
        if idx == last:
            return IntervalPartition.of((face[b], face[t]) for (b, _), t in zip(path, tops))
        room[bottom.bit_count()] -= 1
        pending.append(iter(options[idx + 1]))
    return None


def _restriction(facet: int, closed) -> Optional[int]:
    """The restriction face R = {v in facet : facet - {v} in closed} if R
    is not in ``closed``, else None; faces are masks.

    ``closed`` is closed under subsets, so the new faces of ``facet`` (its
    subsets outside ``closed``) are closed upward inside it, and each
    contains R: if v in R is missing from s, then s lies in facet - {v},
    which is in ``closed``.  So the new faces have a unique minimal
    element exactly when R is new, and then they are [R, facet].  If
    ``facet`` is in ``closed``, R is ``facet`` and there is no step.
    """
    r = sum(b for b in _bit_values(facet) if facet ^ b in closed)
    return None if r in closed else r


def _interval(bottom: int, top: int) -> frozenset:
    """The faces of the Boolean interval [bottom, top], as masks."""
    return frozenset(bottom | s for s in _submasks(top & ~bottom))


def check_shelling_order(
    big: SimplicialComplex,
    order: Sequence[Iterable[int]],
    small: Optional[SimplicialComplex] = None,
) -> bool:
    """Whether ``order`` is a shelling of ``big`` relative to ``small``.

    Each step's new faces (the subsets of the next facet F not generated
    by the earlier facets together with ``small``) must have a unique
    minimal element, R(F) (:func:`_restriction`).  The first step is
    checked against ``small`` alone.
    """
    fam = pair_family(big, small)
    # ``small`` is a subcomplex, so the pair's maximal members are big's facets.
    expected = big.facets & fam.faces
    ordered = [frozenset(f) for f in order]
    if len(ordered) != len(expected) or set(ordered) != expected:
        raise NotAPermutation(
            "order is not a permutation of the maximal members of the pair")
    closed = set(big._view.masks - fam._view.masks)
    for facet in map(big._view.codec.mask, ordered):
        if (bottom := _restriction(facet, closed)) is None:
            return False
        closed.update(_interval(bottom, facet))
    return True


def find_shelling(
    big: SimplicialComplex,
    small: Optional[SimplicialComplex] = None,
    max_facets: int = DEFAULT_MAX_FACETS,
) -> Optional[tuple[Face, ...]]:
    """Backtracking search for a shelling order; ``None`` proves none exists.

    Whether a prefix extends depends only on the set of facets it placed,
    so each set that failed once (an ``int``, one bit per facet) is
    skipped when another order reaches it;
    that cuts only failing subtrees, and the witness is unchanged.
    """
    fam = pair_family(big, small)
    expected = big.facets & fam.faces
    if len(expected) > max_facets:
        raise SizeLimitExceeded(
            f"pair has {len(expected)} facets, above the search bound of "
            f"{max_facets}",
            limit=max_facets, parameter="max_facets")
    if not expected:
        return ()
    face = big._view.codec.face
    facets = sorted(_face_order(m for m in fam._view.masks if face[m] in expected),
                    key=int.bit_count, reverse=True)
    failed: set[int] = set()
    # Depth-first, as a loop so that long orders stay off the call stack:
    # bit i of ``placed`` is set while ``facets[i]`` is placed, ``order``
    # holds each placed index with the faces it added to ``closed``, and
    # ``pending`` the indices still to try after each prefix.  Candidates
    # are tried in the order a recursion would try them, and an undone step
    # takes its faces out of ``closed`` again.
    indices, placed = range(len(facets)), 0
    closed = set(big._view.masks - fam._view.masks)
    order: list[tuple[int, frozenset]] = []
    pending = [iter(indices)]
    while pending:
        for i in pending[-1]:
            if not placed >> i & 1 and (
                    bottom := _restriction(facets[i], closed)) is not None:
                break
        else:
            failed.add(placed)
            pending.pop()
            if order:
                i, added = order.pop()
                placed ^= 1 << i
                closed.difference_update(added)
            continue
        placed |= 1 << i
        if len(order) + 1 == len(facets):
            return tuple(face[facets[j]] for j, _ in order) + (face[facets[i]],)
        if placed in failed:
            placed ^= 1 << i
            continue
        added = _interval(bottom, facets[i])
        closed.update(added)
        order.append((i, added))
        pending.append(iter(indices))
    return None
