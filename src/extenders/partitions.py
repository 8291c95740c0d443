"""Boolean-interval partitionings: verification, statistics, and search.

A partitioning claims that a face family is a disjoint union of Boolean
intervals whose tops are maximal members.  Verification checks the claim
set by set; nothing is assumed about the family being closed under
subsets.  It runs on ``int`` face masks: :func:`verify_partitioning`
reads a frozenset family and its intervals as masks once and hands them
to :func:`_verify_masks`, which the construction core also calls on the
masks it built, so both give the same report, word for word.  Every
failure names its least offending face by :func:`face_key`.  The
searches are exhaustive backtracking with fully lexicographic
tie-breaking, so both witnesses and failure verdicts are reproducible.

Every function here reads only ``faces`` and ``dim``, which a complex
and a relative family both expose, so either can be passed as it is; the
faces are the members of the family being partitioned.  The shelling
functions take a complex and an optional subcomplex and read the pair
through :func:`pair_family`; each shelling step adds the Boolean interval
[R(F), F] of its facet F, read off the restriction face R(F) (Björner).

The layer and h-compatibility checks run on a partitioning validated once,
plus the family's facet-size map (each member's largest containing member).
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
    _facet_sizes,
    _submasks,
    between,
    face_of,
    format_face,
    h_triangle,
    h_vector,
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
    The family and the intervals are read as masks once, and
    :func:`_verify_masks` checks them.
    """
    codec = _MaskCodec(sorted(set().union(*fam.faces, *itertools.chain(*p))))
    mask = codec.mask
    return _verify_masks(set(map(mask, fam.faces)),
                         [(mask(b), mask(t)) for b, t in p], codec)


def _verify_masks(members: set, pairs: Sequence[tuple[int, int]],
                  codec: _MaskCodec) -> PartitionReport:
    """:func:`verify_partitioning` on masks: ``members`` is the family and
    ``pairs`` the (bottom, top) intervals, in the order they are checked;
    ``codec`` names faces in the report.

    Each interval's faces are enumerated as submasks of its gap.  A
    failed interval names its least offending face by :func:`face_key`:
    the first that a walk in :func:`between` order meets, since faces of
    equal size over one bottom order as their added parts do.
    """
    stats = Counter((t.bit_count(), b.bit_count()) for b, t in pairs)
    stats_out = tuple(sorted(stats.items()))

    def report(violation):
        return PartitionReport(False, violation, stats_out)

    def label(b, t):
        return f"[{codec.name(b)}, {codec.name(t)}]"

    top_size = max(map(int.bit_count, members), default=0)
    by_size: dict[int, list[int]] = {}
    covered: set[int] = set()
    add = covered.add
    for b, t in pairs:
        if t not in members:
            return report(f"top of {label(b, t)} is not a member")
        size = t.bit_count()
        if size < top_size:
            if not by_size:
                for m in members:
                    by_size.setdefault(m.bit_count(), []).append(m)
            if any(m & t == t for bigger in range(size + 1, top_size + 1)
                   for m in by_size.get(bigger, ())):
                above = min((m for m in members if m & t == t and m != t),
                            key=codec.key)
                return report(f"top of {label(b, t)} is not maximal: it is "
                              f"contained in {codec.name(above)}")
        gap = sub = t & ~b
        while True:
            s = b | sub
            if s in covered or s not in members:
                # Submasks run downwards, so the faces above ``sub`` passed.
                first = min((f for f in (b | x for x in _submasks(gap) if x <= sub)
                             if f in covered or f not in members), key=codec.key)
                if first in members:
                    return report(f"face {codec.name(first)} is covered twice")
                return report(f"interval {label(b, t)} requires "
                              f"{codec.name(first)}, which is not a member")
            add(s)
            if not sub:
                break
            sub = (sub - 1) & gap
    if len(covered) != len(members):
        missing = min(members - covered, key=codec.key)
        return report(f"face {codec.name(missing)} is not covered")
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


def _layer_compatible(pairs, sizes: dict) -> bool:
    """Layer compatibility of a valid partitioning, given the facet-size map:
    every face of [b, t] has facet size between ``sizes[t]`` and
    ``sizes[b]``.  A top is a maximal member, so ``sizes[t]`` is its own
    size.  Faces may be frozensets or masks."""
    return all(sizes[b] == sizes[t] for b, t in pairs)


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

    When every maximal member has dimension ``fam.dim``, a partitioning
    has exactly h_i intervals with bottom size i (Stanley 1979), so a
    negative h_i refutes one at once and a branch with more than h_i such
    intervals is cut.  Both prunes cut only failing subtrees, so the
    witness is the one the plain search finds.
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
    # room[i]: how many more intervals with bottom size i may be chosen.
    if all(len(top) == fam.dim + 1 for top in tops):
        room = list(h_vector(fam))
        if min(room) < 0:
            return None
    else:
        room = [len(tops)] * (fam.dim + 2)
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
            if room[len(bottom)] and covered.isdisjoint(cube):
                covered |= cube
                if covered.issuperset(due[idx]):
                    break
                covered -= cube
        else:
            pending.pop()
            if path:
                bottom, cube = path.pop()
                covered -= cube
                room[len(bottom)] += 1
            continue
        if idx == last:
            return IntervalPartition.of(zip([b for b, _ in path] + [bottom], tops))
        path.append((bottom, cube))
        room[len(bottom)] -= 1
        pending.append(iter(options[idx + 1]))
    return None


def _restriction(facet: Face, closed) -> Optional[Face]:
    """The restriction face R = {v in facet : facet - {v} in closed} if R
    is not in ``closed``, else None.

    ``closed`` is closed under subsets, so the new faces of ``facet`` (its
    subsets outside ``closed``) are closed upward inside it, and each
    contains R: if v in R is missing from s, then s lies in facet - {v},
    which is in ``closed``.  So the new faces have a unique minimal
    element exactly when R is new, and then they are [R, facet].  If
    ``facet`` is in ``closed``, R is ``facet`` and there is no step.
    """
    r = frozenset(v for v in facet if facet - {v} in closed)
    return None if r in closed else r


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
    closed = set(big.faces - fam.faces)
    for facet in ordered:
        if (bottom := _restriction(facet, closed)) is None:
            return False
        closed.update(between(bottom, facet))
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
    facets = sorted(big.facets & fam.faces, key=lambda f: (-len(f), lex_key(f)))
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
            if facet not in placed and (bottom := _restriction(facet, closed)) is not None:
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
        added = list(between(bottom, facet))
        closed.update(added)
        order.append((facet, added))
        pending.append(iter(facets))
    return None
