"""Boolean-interval partitionings: verification, statistics, and search.

A partitioning claims that a face family is a disjoint union of Boolean
intervals whose tops are maximal members.  Verification checks the claim
set by set; nothing is assumed about the family being closed under
subsets.  The searches are exhaustive backtracking with fully
lexicographic tie-breaking, so both witnesses and failure verdicts are
reproducible.

Every function here reads only ``faces`` and ``dim``, which a complex
and a relative family both expose, so either can be passed as it is; the
faces are the members of the family being partitioned.  The shelling
functions take a complex and an optional subcomplex and read the pair
through :func:`pair_family`.

The layer and h-compatibility checks run on a partitioning validated once,
plus the family's facet-size map (each member's largest containing member).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .complexes import (
    ComplexOrFamily,
    Face,
    SimplicialComplex,
    _facet_sizes,
    between,
    face_key,
    format_face,
    h_triangle,
    lex_key,
    maximal_faces,
    pair_family,
    subsets_of,
)
from .errors import (
    InvalidParameters,
    InvalidPartitioning,
    NotAPermutation,
    SizeLimitExceeded,
)

DEFAULT_MAX_MEMBERS = 40
DEFAULT_MAX_FACETS = 12


def _interval_label(bottom: Face, top: Face) -> str:
    return f"[{format_face(bottom)}, {format_face(top)}]"


@dataclass(frozen=True)
class IntervalPartition:
    """A sequence of (bottom, top) face pairs in canonical order."""

    intervals: tuple

    @classmethod
    def of(cls, pairs: Iterable[tuple[Iterable[int], Iterable[int]]]) -> "IntervalPartition":
        normalized = []
        for bottom, top in pairs:
            b, t = frozenset(bottom), frozenset(top)
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
    """
    members = fam.faces
    stats = Counter((len(t), len(b)) for b, t in p)
    stats_out = tuple(sorted(stats.items()))

    def report(violation):
        return PartitionReport(False, violation, stats_out)

    by_size: dict[int, list[Face]] = {}
    for m in members:
        by_size.setdefault(len(m), []).append(m)
    bigger_sizes = sorted(by_size)

    covered = set()
    for b, t in p:
        if t not in members:
            return report(f"top of {_interval_label(b, t)} is not a member")
        for size in bigger_sizes:
            if size <= len(t):
                continue
            for m in by_size[size]:
                if t < m:
                    above = min((m for m in members if t < m), key=face_key)
                    return report(
                        f"top of {_interval_label(b, t)} is not maximal: it is "
                        f"contained in {format_face(above)}")
        for s in between(b, t):
            if s not in members:
                return report(
                    f"interval {_interval_label(b, t)} requires "
                    f"{format_face(s)}, which is not a member")
            if s in covered:
                return report(f"face {format_face(s)} is covered twice")
            covered.add(s)
    if covered != members:
        missing = min(members - covered, key=face_key)
        return report(f"face {format_face(missing)} is not covered")
    return PartitionReport(True, None, stats_out)


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


def _layer_compatible(p: IntervalPartition, sizes: dict[Face, int]) -> bool:
    """Layer compatibility of a valid partitioning, given the facet-size map:
    every face of [b, t] has facet size between ``len(t)`` and ``sizes[b]``."""
    return all(sizes[b] == len(t) for b, t in p)


def _h_compatible(report: PartitionReport, h_tri: tuple) -> bool:
    """Whether a valid report's (top size, bottom size) counts match ``h_tri``."""
    counts = report.stats()
    return all(counts.get((i, j), 0) == expected
               for i, row in enumerate(h_tri) for j, expected in enumerate(row))


def is_layer_compatible(fam: ComplexOrFamily, p: IntervalPartition) -> bool:
    """Whether every top-dimension layer of ``p`` partitions its own layer.

    For each r, the intervals whose tops have dimension at least r must be
    a valid partitioning of the members lying under a maximal member of
    dimension at least r.
    """
    _require_valid(fam, p)
    return _layer_compatible(p, _facet_sizes(fam.faces))


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
    """
    members = fam.faces
    if len(members) > max_members:
        raise SizeLimitExceeded(
            f"family has {len(members)} members, above the search bound of "
            f"{max_members}",
            limit=max_members, parameter="max_members")
    if not members:
        return IntervalPartition.of([])
    tops = sorted(maximal_faces(members), key=lambda f: (-len(f), lex_key(f)))
    options = []
    for top in tops:
        choices = []
        for bottom in sorted(subsets_of(top), key=lex_key):
            cube = frozenset(between(bottom, top))
            if cube <= members:
                choices.append((bottom, cube))
        options.append(choices)
    # A member is due at the last top that can still cover it; once that
    # top is assigned, the member must already be covered.
    due: list[list[Face]] = [[] for _ in tops]
    for m in members:
        due[max(i for i, top in enumerate(tops) if m <= top)].append(m)

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
            if covered.isdisjoint(cube):
                covered |= cube
                if covered.issuperset(due[idx]) and (idx < last or covered == members):
                    break
                covered -= cube
        else:
            pending.pop()
            if path:
                covered -= path.pop()[1]
            continue
        if idx == last:
            return IntervalPartition.of(zip([b for b, _ in path] + [bottom], tops))
        path.append((bottom, cube))
        pending.append(iter(options[idx + 1]))
    return None


def _shelling_step(facet: Face, closed) -> bool:
    """Whether the subsets of ``facet`` outside ``closed`` have a unique
    minimal element."""
    step = {s for s in subsets_of(facet) if s not in closed}
    return sum(1 for s in step if not any(t < s for t in step)) == 1


def check_shelling_order(
    big: SimplicialComplex,
    order: Sequence[Iterable[int]],
    small: Optional[SimplicialComplex] = None,
) -> bool:
    """Whether ``order`` is a shelling of ``big`` relative to ``small``.

    Each step's new faces (the subsets of the next facet not generated by
    the earlier facets together with ``small``) must have a unique minimal
    element.  The first step is checked against ``small`` alone.
    """
    fam = pair_family(big, small)
    expected = maximal_faces(fam.faces)
    ordered = [frozenset(f) for f in order]
    if len(ordered) != len(expected) or set(ordered) != expected:
        raise NotAPermutation(
            "order is not a permutation of the maximal members of the pair")
    closed = set(big.faces - fam.faces)
    for facet in ordered:
        if not _shelling_step(facet, closed):
            return False
        closed.update(subsets_of(facet))
    return True


def find_shelling(
    big: SimplicialComplex,
    small: Optional[SimplicialComplex] = None,
    max_facets: int = DEFAULT_MAX_FACETS,
) -> Optional[tuple[Face, ...]]:
    """Backtracking search for a shelling order; ``None`` proves none exists.

    Whether a prefix extends depends only on the set of facets it placed,
    so each set that failed once is skipped when another order reaches it;
    that cuts only failing subtrees, and the witness is unchanged.
    """
    fam = pair_family(big, small)
    facets = sorted(maximal_faces(fam.faces), key=lambda f: (-len(f), lex_key(f)))
    if len(facets) > max_facets:
        raise SizeLimitExceeded(
            f"pair has {len(facets)} facets, above the search bound of "
            f"{max_facets}",
            limit=max_facets, parameter="max_facets")
    if not facets:
        return ()
    failed: set[frozenset] = set()
    # Depth-first, as a loop so that long orders stay off the call stack:
    # ``order`` holds each placed facet with the faces it added to
    # ``closed``, and ``pending`` the facets still to try after each prefix.
    # Candidates are tried in the order a recursion would try them, and an
    # undone step takes its faces out of ``closed`` again.
    placed: set[Face] = set()
    closed = set(big.faces - fam.faces)
    order: list[tuple[Face, list]] = []
    pending = [iter(facets)]
    while pending:
        for facet in pending[-1]:
            if facet not in placed and _shelling_step(facet, closed):
                break
        else:
            failed.add(frozenset(placed))
            pending.pop()
            if order:
                facet, added = order.pop()
                placed.discard(facet)
                closed.difference_update(added)
            continue
        placed.add(facet)
        if len(placed) == len(facets):
            return tuple(f for f, _ in order) + (facet,)
        if frozenset(placed) in failed:
            placed.discard(facet)
            continue
        added = [s for s in subsets_of(facet) if s not in closed]
        closed.update(added)
        order.append((facet, added))
        pending.append(iter(facets))
    return None
