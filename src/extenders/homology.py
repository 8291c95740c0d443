"""Exact reduced simplicial homology and Cohen-Macaulay machinery.

Chain complexes are augmented (the empty face spans degree -1), with
sparse boundary columns built straight from the faces.  One column
reduction ranks them exactly: integer combinations over the rationals,
arithmetic mod p over an odd prime field, and XOR on bitset columns over
GF(2).  Floating point never enters, so every Betti number and every depth
verdict is exact.  Every Cohen-Macaulay reading walks the links of one
complex from a single face index per walk: each face's boundary entries
are listed once, stars are narrowed level by level, and a link's columns
are read off the star with no complex object per link.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt
from typing import Iterable, Iterator, Optional, Union

from .complexes import (
    Face,
    FaceFamily,
    SimplicialComplex,
    build_complex,
    face_key,
    lex_key,
    pair_family,
    relative_family,
    skeleton,
)
from .errors import (
    InternalCheckError,
    InvalidParameters,
    VoidComplex,
)


def _is_prime(n: int) -> bool:
    """Trial division, for n below 2^31 only, so at most about 46k steps."""
    return 2 <= n < 2 ** 31 and all(n % f for f in range(2, isqrt(n) + 1))


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (exact rationals) or a prime
    below 2^31."""

    characteristic: int = 0

    def __post_init__(self):
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise InvalidParameters(
                f"characteristic must be 0 or a prime below 2^31, "
                f"got {self.characteristic}")


RATIONALS = FieldSpec(0)


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers, indexed from degree -1 upward."""

    betti: tuple

    def degree(self, i: int) -> int:
        idx = i + 1
        if 0 <= idx < len(self.betti):
            return self.betti[idx]
        return 0

    def as_dict(self) -> dict[int, int]:
        return {i - 1: b for i, b in enumerate(self.betti)}


@dataclass(frozen=True)
class ChainComplexData:
    """Ordered face bases by cardinality and the boundary maps between
    them; ``boundaries[t]`` maps the size-t basis to the size-(t-1) basis as
    one sparse ``{row: +-1}`` column per size-t face."""

    bases: tuple
    boundaries: tuple

    def boundary_squares_to_zero(self) -> bool:
        for t in range(2, len(self.bases)):
            lower = self.boundaries[t - 1]
            for column in self.boundaries[t]:
                total: dict[int, int] = {}
                for mid, a in column.items():
                    for row, b in lower[mid].items():
                        total[row] = total.get(row, 0) + a * b
                if any(total.values()):
                    return False
        return True


def chain_complex(
    big: SimplicialComplex, small: Optional[SimplicialComplex] = None
) -> ChainComplexData:
    """Augmented chain complex of a complex or of a pair (quotient basis),
    with one basis per face size, each in ``lex_key`` order."""
    fam = pair_family(big, small)
    by_size: list[list[Face]] = [[] for _ in range(fam.dim + 2)]
    for f in fam.faces:
        by_size[len(f)].append(f)
    bases = tuple(tuple(sorted(group, key=lex_key)) for group in by_size)
    boundaries = [()]
    for t in range(1, len(bases)):
        index = {f: i for i, f in enumerate(bases[t - 1])}
        columns = []
        for f in bases[t]:
            column = {}
            for pos, v in enumerate(sorted(f)):
                row = index.get(f - {v})
                if row is not None:
                    column[row] = -1 if pos % 2 else 1
            columns.append(column)
        boundaries.append(tuple(columns))
    return ChainComplexData(bases, tuple(boundaries))


def matrix_rank(columns, field: FieldSpec = RATIONALS) -> int:
    """Rank of an integer matrix given as a list or tuple of sparse
    ``{row: entry}`` columns, with integer rows.

    Over GF(2) a column becomes an int with bit r set for each odd entry,
    and XOR with the pivot owning its top bit clears that bit.  Otherwise,
    while an earlier column owns a column's lowest row, the column becomes
    ``a*column - b*pivot``, which clears that row.  Over Q the entries stay
    integers and each combination is divided by its content; over GF(p)
    they are kept mod p.  The rank cannot exceed the number of rows the
    columns touch, so the reduction stops once that many pivots exist."""
    p = field.characteristic
    rows = len(set().union(*columns))
    if p == 2:
        bit_pivots: dict[int, int] = {}
        for column in columns:
            if len(bit_pivots) == rows:
                break
            bits = 0
            for r, x in column.items():
                if x % 2:
                    bits |= 1 << r
            while bits:
                low = bits.bit_length() - 1
                pivot = bit_pivots.get(low)
                if pivot is None:
                    bit_pivots[low] = bits
                    break
                bits ^= pivot
        return len(bit_pivots)
    pivots: dict[int, dict[int, int]] = {}
    for column in columns:
        if len(pivots) == rows:
            break
        column = {r: x % p if p else x for r, x in column.items()}
        column = {r: x for r, x in column.items() if x}
        while column:
            low = max(column)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = column
                break
            a, b = pivot[low], column[low]
            if a != 1:
                column = {r: a * x % p if p else a * x for r, x in column.items()}
            for r, y in pivot.items():
                x = column.get(r, 0) - b * y
                if p:
                    x %= p
                if x:
                    column[r] = x
                else:
                    column.pop(r, None)
            g = 0 if p else gcd(*column.values())
            if g > 1:
                column = {r: x // g for r, x in column.items()}
    return len(pivots)


def _betti(sizes: Iterable[int], boundaries, field: FieldSpec) -> tuple[int, ...]:
    """Betti numbers of a chain complex with ``sizes[t]`` basis elements at
    level t and ``boundaries[t]`` mapping level t to level t - 1."""
    ranks = [0, *(matrix_rank(b, field) for b in boundaries[1:]), 0]
    return tuple(n - ranks[t] - ranks[t + 1] for t, n in enumerate(sizes))


def homology_report(profile: HomologyProfile, field: FieldSpec) -> dict:
    """Serializable form of a profile: field characteristic plus a map from
    degree to rank."""
    return {"field": field.characteristic,
            "betti": {str(i): b for i, b in profile.as_dict().items()}}


def reduced_betti(c: SimplicialComplex, field: FieldSpec = RATIONALS) -> HomologyProfile:
    """Reduced Betti numbers of a complex, degrees -1 through its dimension."""
    if c.is_void:
        raise VoidComplex("the void complex has no homology profile")
    cc = chain_complex(c)
    return HomologyProfile(_betti(map(len, cc.bases), cc.boundaries, field))


def relative_betti(
    big: SimplicialComplex,
    small: Optional[SimplicialComplex] = None,
    field: FieldSpec = RATIONALS,
) -> HomologyProfile:
    """Betti numbers of the pair; with a void ``small`` this is absolute."""
    cc = chain_complex(big, small)  # checks that small lies in big, even if void
    if big.is_void:
        return HomologyProfile(())
    return HomologyProfile(_betti(map(len, cc.bases), cc.boundaries, field))


def is_cohen_macaulay(c: SimplicialComplex, field: FieldSpec = RATIONALS) -> bool:
    """Reisner's criterion: every link has reduced homology concentrated in
    its top allowed degree."""
    if c.is_void:
        raise VoidComplex("the void complex is outside this criterion")
    return is_relative_cm(c, None, field)


def _link_betti(
    big: SimplicialComplex, pair_faces: frozenset, field: FieldSpec
) -> Iterator[tuple[Face, tuple[int, ...]]]:
    """Yield ``(sigma, Betti numbers of the pair's link at sigma)`` for every
    face of ``big`` in ``face_key`` order, degrees indexed from -1 up to the
    dimension of ``big``'s link.  The pair's link is ``t - sigma`` over the
    faces ``t`` in ``pair_faces`` (the pair's faces) that contain sigma.

    One index serves the whole walk.  Faces get ids in ``face_key`` order,
    and each face's boundary entries are listed once as (vertex, row id,
    sign).  The star of sigma is the part of the star of sigma - max(sigma)
    that contains max(sigma), so stars are built level by level, keeping
    the previous level's only.  A link's column at t is t's boundary,
    restricted to vertices outside sigma and rows in the pair."""
    faces = sorted(big.faces, key=face_key)
    ids = {f: i for i, f in enumerate(faces)}
    in_pair = [f in pair_faces for f in faces]
    # The link's sign at (v, t) is (-1)^pos(v, t - sigma), big's is
    # (-1)^pos(v, t); they differ by phi(t)*phi(t - v), where
    # phi(f) = (-1)^(sum over w in f - sigma of #{u in sigma : u < w}).
    # That rescales rows and columns by +-1, so no rank over any field
    # changes.
    boundary = [[(v, ids[f - {v}], -1 if pos % 2 else 1)
                 for pos, v in enumerate(sorted(f))] for f in faces]
    level, stars, previous = 0, {frozenset(): range(len(faces))}, {}
    for sigma in faces:
        k = len(sigma)
        if k > level:  # sigma is the first face of the next size
            level, previous, stars = k, stars, {}
        if k:
            top = max(sigma)
            stars[sigma] = [t for t in previous[sigma - {top}] if top in faces[t]]
        star = stars[sigma]  # in face_key order, so its last face is largest
        columns: list[list[dict]] = [[] for _ in range(len(faces[star[-1]]) - k + 1)]
        for t in star:
            if in_pair[t]:
                columns[len(faces[t]) - k].append(
                    {r: sign for v, r, sign in boundary[t]
                     if v not in sigma and in_pair[r]})
        yield sigma, _betti(map(len, columns), columns, field)


def is_relative_cm(
    big: SimplicialComplex,
    small: Optional[SimplicialComplex] = None,
    field: FieldSpec = RATIONALS,
) -> bool:
    """Whether pair link homology vanishes away from degree d - |face|."""
    fam = pair_family(big, small)
    d = big.dim
    return all(not value or len(sigma) + idx - 1 == d
               for sigma, betti in _link_betti(big, fam.faces, field)
               for idx, value in enumerate(betti))


def _depth_and_witness(
    c: SimplicialComplex, field: FieldSpec
) -> tuple[int, Optional[tuple[Face, int]]]:
    """Depth by the link criterion, cross-checked against the skeleton
    criterion, and the first (face, degree), in ``face_key`` then degree
    order, whose link homology attains it; None when the depth is dim + 1."""
    d = c.dim
    value, witness = d + 1, None
    for sigma, betti in _link_betti(c, c.faces, field):
        for i, b in enumerate(betti[1:d + 1]):
            if b and len(sigma) + i + 1 < value:
                value, witness = len(sigma) + i + 1, (sigma, i)
    oracle = next(
        r for r in range(d, -2, -1)
        if is_cohen_macaulay(skeleton(c, r), field)) + 1
    if value != oracle:
        raise InternalCheckError(
            f"depth readings disagree: link criterion gives {value}, "
            f"skeleton criterion gives {oracle}")
    return value, witness


def depth(c: SimplicialComplex, field: FieldSpec = RATIONALS) -> int:
    """Homological depth of the face ring.

    Computed from vanishing of low-degree link homology, capped at the
    Krull dimension, and cross-checked against an independent reading:
    one plus the largest r whose r-skeleton is Cohen-Macaulay.  A
    disagreement raises InternalCheckError instead of picking a side.
    """
    if c.is_void:
        raise VoidComplex("the void complex has no depth")
    return _depth_and_witness(c, field)[0]


@dataclass(frozen=True)
class CmExtender:
    """A verified Cohen-Macaulay extender."""

    extender: SimplicialComplex
    base: SimplicialComplex
    relative: FaceFamily


@dataclass(frozen=True)
class NoExtender:
    """Proof that no Cohen-Macaulay extender exists: a link whose homology
    obstructs in too low a degree."""

    witness_face: Face
    witness_degree: int


def cm_extender(
    c: SimplicialComplex, field: FieldSpec = RATIONALS
) -> Union[CmExtender, NoExtender]:
    """The skeleton-of-a-simplex extender when depth permits, else the
    obstruction witness."""
    if c.is_void:
        raise VoidComplex("the void complex has no extender")
    d = c.dim
    dep, witness = _depth_and_witness(c, field)
    if dep >= d:  # depth >= dim of the face ring minus one
        # The d-skeleton of the simplex on c's vertices, built from its d-faces.
        gamma = build_complex(combinations(sorted(c.vertices), d + 1))
        if not is_cohen_macaulay(gamma, field):
            raise InternalCheckError("skeleton extender is not Cohen-Macaulay")
        if not is_relative_cm(gamma, c, field):
            raise InternalCheckError("skeleton extender pair is not relative CM")
        return CmExtender(gamma, c, relative_family(gamma, c))
    return NoExtender(*witness)
