"""Output checks that share no code with the ``extenders`` package.

Faces are frozensets of integer labels.  Everything here is recomputed from
first principles: intervals are enumerated member by member, h-vectors come
from expanding polynomials, f-triangles from walking the subsets of the
maximal members, and Betti numbers from this module's own column
elimination (bit-packed over GF(2), modulo a large prime for
characteristic 0).
"""

from __future__ import annotations

from typing import Iterable, Optional

# Rank modulo this prime stands in for the rational rank.  It can only be
# lower when the prime divides every maximal nonzero minor, which does not
# happen for the small boundary matrices checked here.
LARGE_PRIME = 2**61 - 1


def subsets(face: frozenset, bottom: frozenset = frozenset()) -> list:
    """Every set between ``bottom`` and ``bottom | face``."""
    out = [bottom]
    for v in face:
        out += [s | {v} for s in out]
    return out


def closure(facets: Iterable[Iterable[int]]) -> set:
    """All faces of the complex generated by ``facets``."""
    faces: set = set()
    for facet in facets:
        faces.update(subsets(frozenset(facet)))
    return faces


def maximal_members(family: set) -> set:
    """Members contained in no other member, for a convex family (one that
    holds every set between two of its members).  Complexes and relative
    complexes, the only families checked here, are convex, so a member
    below another is below one with a single vertex more."""
    return family - {m - {v} for m in family for v in m}


def is_closed(faces: set) -> bool:
    """Whether every face's codimension-one subfaces are faces."""
    return all(f - {v} in faces for f in faces for v in f)


def dimension(faces: Iterable[frozenset]) -> int:
    return max((len(f) for f in faces), default=0) - 1


def check_intervals(family: set, intervals: list) -> Optional[str]:
    """None when ``intervals`` partition ``family`` into Boolean intervals
    whose tops are maximal members, else the first violation found.

    Each interval is enumerated in full; the intervals must be pairwise
    disjoint and their union must be exactly the family.
    """
    maximal = maximal_members(family)
    covered: set = set()
    for bottom, top in intervals:
        if not bottom <= top:
            return f"bottom {sorted(bottom)} is not inside top {sorted(top)}"
        if top not in maximal:
            return f"top {sorted(top)} is not a maximal member"
        for s in subsets(top - bottom, bottom):
            if s not in family:
                return f"{sorted(s)} in [{sorted(bottom)}, {sorted(top)}] is not a member"
            if s in covered:
                return f"{sorted(s)} is covered twice"
            covered.add(s)
    if len(covered) != len(family):
        missing = min(family - covered, key=lambda f: (len(f), sorted(f)))
        return f"{sorted(missing)} is not covered"
    return None


def depth_sizes(family: set) -> dict:
    """For each member, the size of the largest member containing it."""
    size: dict = {}
    for top in maximal_members(family):
        for s in subsets(top):
            if s in family and size.get(s, -1) < len(top):
                size[s] = len(top)
    return size


def _expand(counts: list, n: int) -> list:
    """Coefficients of sum_k counts[k] x^k (1-x)^(n-k), lowest degree first."""
    poly = [0] * (n + 1)
    for k, c in enumerate(counts):
        term = [0] * k + [c]
        for _ in range(n - k):
            term = [a - b for a, b in zip(term + [0], [0] + term)]
        for i, a in enumerate(term):
            poly[i] += a
    return poly


def h_vector(family: Iterable[frozenset], dim: int) -> list:
    """h-vector of a family of ambient dimension ``dim``."""
    counts = [0] * (dim + 2)
    for f in family:
        counts[len(f)] += 1
    return _expand(counts, dim + 1)


def f_triangle(family: set, dim: int) -> list:
    """Counts by (size of the largest containing member, own size)."""
    rows = [[0] * (i + 1) for i in range(dim + 2)]
    for s, top_size in depth_sizes(family).items():
        rows[top_size][len(s)] += 1
    return rows


def h_triangle(family: set, dim: int) -> list:
    return [_expand(row, i) for i, row in enumerate(f_triangle(family, dim))]


def interval_counts(intervals: list, dim: int) -> list:
    """Interval counts by bottom size."""
    counts = [0] * (dim + 2)
    for bottom, _ in intervals:
        counts[len(bottom)] += 1
    return counts


def interval_triangle(intervals: list, dim: int) -> list:
    """Interval counts by (top size, bottom size)."""
    rows = [[0] * (i + 1) for i in range(dim + 2)]
    for bottom, top in intervals:
        rows[len(top)][len(bottom)] += 1
    return rows


def is_layer_compatible(family: set, intervals: list, dim: int) -> bool:
    """For each r, the intervals with tops of dimension >= r partition the
    members lying under a maximal member of dimension >= r."""
    size = depth_sizes(family)
    for r in range(dim + 1):
        layer = {s for s in family if size[s] - 1 >= r}
        part = [(b, t) for b, t in intervals if len(t) - 1 >= r]
        if check_intervals(layer, part) is not None:
            return False
    return True


def find_partitioning(family: set) -> Optional[list]:
    """Exhaustive search: one interval per maximal member, in every
    combination of bottoms, over bit masks of member indices."""
    members = sorted(family, key=lambda f: (len(f), sorted(f)))
    index = {m: i for i, m in enumerate(members)}
    full = (1 << len(members)) - 1
    tops = sorted(maximal_members(family), key=lambda f: (-len(f), sorted(f)))
    choices = []
    for top in tops:
        options = []
        for bottom in subsets(top):
            cube = [bottom | e for e in subsets(top - bottom)]
            if all(s in index for s in cube):
                options.append((bottom, sum(1 << index[s] for s in cube)))
        choices.append(options)
    # Members under no later top must be covered once a top is placed.
    due = []
    for i in range(len(tops)):
        later = tops[i + 1:]
        due.append(sum(1 << index[m] for m in members
                       if m <= tops[i] and not any(m <= t for t in later)))

    def walk(i: int, covered: int) -> Optional[list]:
        if i == len(tops):
            return [] if covered == full else None
        for bottom, mask in choices[i]:
            if mask & covered:
                continue
            grown = covered | mask
            if due[i] & ~grown:
                continue
            rest = walk(i + 1, grown)
            if rest is not None:
                return [(bottom, tops[i])] + rest
        return None

    return walk(0, 0)


def _rank_gf2(columns: list) -> int:
    pivots: dict = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            if low not in pivots:
                pivots[low] = col
                rank += 1
                break
            col ^= pivots[low]
    return rank


def _rank_mod(columns: list, p: int) -> int:
    pivots: dict = {}
    rank = 0
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                inv = pow(col[low], -1, p)
                pivots[low] = {r: v * inv % p for r, v in col.items()}
                rank += 1
                break
            factor = col[low]
            for r, v in pivot.items():
                nv = (col.get(r, 0) - factor * v) % p
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
    return rank


def reduced_betti(faces: set, characteristic: int) -> list:
    """Reduced Betti numbers in degrees -1 .. dim (index 0 is degree -1).

    Characteristic 0 is computed modulo ``LARGE_PRIME``.
    """
    top = dimension(faces) + 1
    bases = [sorted((f for f in faces if len(f) == size), key=sorted)
             for size in range(top + 1)]
    ranks = [0] * (top + 2)
    for size in range(1, top + 1):
        index = {f: i for i, f in enumerate(bases[size - 1])}
        columns = []
        for f in bases[size]:
            col = {}
            for pos, v in enumerate(sorted(f)):
                col[index[f - {v}]] = -1 if pos % 2 else 1
            columns.append(col)
        if characteristic == 2:
            ranks[size] = _rank_gf2([sum(1 << r for r in c) for c in columns])
        else:
            p = LARGE_PRIME if characteristic == 0 else characteristic
            ranks[size] = _rank_mod(columns, p)
    betti = [len(bases[s]) - ranks[s] - ranks[s + 1] for s in range(top + 1)]
    if min(betti) < 0:
        raise ArithmeticError(f"negative Betti number in {betti}")
    return betti


def reduced_euler(faces: Iterable[frozenset]) -> int:
    """Sum of (-1)^dim over the faces, the empty face (dimension -1) included."""
    return sum((-1) ** ((len(f) - 1) % 2) for f in faces)


def links(faces: set) -> dict:
    """The link of every face, by walking the subsets of each face."""
    out: dict = {f: set() for f in faces}
    for t in faces:
        for s in subsets(t):
            out[s].add(t - s)
    return out


def depth(faces: set, characteristic: int) -> int:
    """Depth of the face ring from the link criterion: the least
    |s| + i + 1 over faces s whose link has nonzero reduced homology in
    degree i, capped at dim + 1."""
    value = dimension(faces) + 1
    for s, lk in links(faces).items():
        for idx, b in enumerate(reduced_betti(lk, characteristic)):
            if b:
                value = min(value, len(s) + idx)  # degree idx - 1
                break
    return value
