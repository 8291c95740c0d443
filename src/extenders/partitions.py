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
``int`` face masks: :func:`verify_partitioning` hands the family's mask
view and the intervals, read through its codec, to :func:`_verify_masks`,
which the construction core also calls on a view of the masks it built,
so both give the same report, word for word.  The walk visits each
interval's faces by size and then in label order, so every failure names
its least offending face by :func:`face_key`, the first it meets.  The
searches backtrack exhaustively over the view's masks, with fully
lexicographic tie-breaking, so witnesses and verdicts are reproducible.

Every function here reads only ``faces`` and ``dim`` and the view of the
faces, which a complex and a relative family both expose, so either can
be passed as it is; the faces are the members of the family.  The
shelling functions take a complex and an optional subcomplex and read the
pair through :func:`pair_family`, whose view shares the complex's codec:
the faces of the subcomplex are the complex's masks less the family's.
Each step adds a facet F's Boolean interval [R(F), F] of masks, read off
the restriction face R(F) (Björner).

The layer and h-compatibility checks run on a partitioning validated once,
plus the facet-size map of the family's view (each member's largest
containing member), from which the search also reads its tops.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .complexes import (
    ComplexOrFamily,
    Face,
    SimplicialComplex,
    _MaskCodec,
    _MaskView,
    _bit_values,
    _submasks,
    face_of,
    format_face,
    h_triangle,
    h_vector,
    lex_key,
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
        # Sorted lists order as lex_key tuples do: by top, then by bottom.
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

    def stats(self) -> dict[tuple[int, int], int]:
        return dict(self.interval_stats)


def verify_partitioning(fam: ComplexOrFamily, p: IntervalPartition) -> PartitionReport:
    """Check that ``p`` partitions ``fam`` into Boolean intervals.

    Valid means: every set between each bottom and top is a member, the
    intervals are pairwise disjoint, their union is exactly the family,
    and every top is a maximal member.  Failures are reported, not raised.
    :func:`_verify_masks` checks the family's mask view and the intervals,
    read through its codec (a copy extended by any label it lacks).
    """
    codec = fam._view.reading(itertools.chain(*itertools.chain(*p)))
    mask = codec.mask
    return _verify_masks(fam._view, [(mask(b), mask(t)) for b, t in p], codec)


def _verify_masks(view: _MaskView, pairs: Sequence[tuple[int, int]],
                  codec: _MaskCodec) -> PartitionReport:
    """:func:`verify_partitioning` on masks: ``view.masks`` is the family
    and ``pairs`` the (bottom, top) intervals, in the order they are
    checked; ``codec`` names faces in the report.  The family's facet-size
    map, ``view.sizes``, is read only if it is needed.

    The claim is decided in bulk.  Every interval's faces, the submasks of
    its gap over its bottom, go into one list; the claim is valid when
    each bottom lies in its top, the list has no more faces than the family
    has members, its set is the family, and each top is maximal.  The size
    bound stops the listing before an interval would pass it, so the work
    is bounded by the family whatever the claim, and with it the set's
    equality to the family leaves no room for repeats.  An exact cover
    puts every member under a top, so tops of one size are all maximal;
    otherwise every top must be its own facet size.  A claim that fails
    any of these is walked by :func:`_name_offence`, which names its first
    offence.
    """
    stats = Counter((t.bit_count(), b.bit_count()) for b, t in pairs)
    stats_out = tuple(sorted(stats.items()))
    members = view.masks
    faces: list[int] = []
    add = faces.append
    room = len(members)
    for b, t in pairs:
        if b & ~t:
            break
        gap = sub = t ^ b
        room -= 1 << gap.bit_count()
        if room < 0:
            break
        while True:
            add(b | sub)
            if not sub:
                break
            sub = (sub - 1) & gap
    else:
        if set(faces) == members:
            if len({size for size, _ in stats}) < 2:
                return PartitionReport(True, None, stats_out)
            if all(view.sizes[t] == t.bit_count() for _, t in pairs):
                return PartitionReport(True, None, stats_out)
    violation = _name_offence(view, pairs, codec)
    return PartitionReport(violation is None, violation, stats_out)


def _name_offence(view: _MaskView, pairs: Sequence[tuple[int, int]],
                  codec: _MaskCodec) -> Optional[str]:
    """The first offence of a claim, or None: the intervals are walked in
    order.  A top must be a member and its own facet size, read from
    ``view.sizes`` only once a top is smaller than the largest member.
    Each interval's faces are then visited by size, and within a
    size by label order, so the first offending face met is the least by
    :func:`face_key`: faces of one size over one bottom order as their
    added parts.  Every face visited before it is a member covered once,
    so the walk visits at most one face more than the family has members.
    """
    def label(b, t):
        return f"[{codec.name(b)}, {codec.name(t)}]"

    labels, members = codec.labels, view.masks
    top_size = max(map(int.bit_count, members), default=0)
    covered: set[int] = set()
    add = covered.add
    for b, t in pairs:
        if t not in members:
            return f"top of {label(b, t)} is not a member"
        if t.bit_count() < top_size and view.sizes[t] > t.bit_count():
            above = min((m for m in members if m & t == t and m != t), key=codec.key)
            return (f"top of {label(b, t)} is not maximal: it is "
                    f"contained in {codec.name(above)}")
        bits = sorted(_bit_values(t & ~b), key=lambda bit: labels[bit.bit_length() - 1])
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
        missing = min(members - covered, key=codec.key)
        return f"face {codec.name(missing)} is not covered"
    return None


def _require_valid(fam: ComplexOrFamily, p: IntervalPartition) -> PartitionReport:
    report = verify_partitioning(fam, p)
    if not report.valid:
        raise InvalidPartitioning(report.violation)
    return report


def h_from_partitioning(fam: ComplexOrFamily, p: IntervalPartition) -> tuple[int, ...]:
    """Interval counts by bottom size; equals the h-vector for pure families."""
    _require_valid(fam, p)
    counts = [0] * (fam.dim + 2)
    for b, _ in p:
        counts[len(b)] += 1
    return tuple(counts)


def _h_compatible(report: PartitionReport, h_tri: tuple) -> bool:
    """Whether a valid report's (top size, bottom size) counts match ``h_tri``."""
    counts = report.stats()
    return all(counts.get((i, j), 0) == expected
               for i, row in enumerate(h_tri) for j, expected in enumerate(row))


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
    return _h_compatible(_require_valid(fam, p), h_triangle(fam))


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
    tops = sorted((m for m in members if sizes[m] == m.bit_count()),
                  key=lambda m: (-m.bit_count(), lex_key(face[m])))
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
                      key=lambda choice: lex_key(face[choice[0]]))
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
    facets = sorted((m for m in fam._view.masks if face[m] in expected),
                    key=lambda m: (-m.bit_count(), lex_key(face[m])))
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
