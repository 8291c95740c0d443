"""Exact reduced simplicial homology and Cohen-Macaulay machinery.

Chain complexes are augmented (the empty face spans degree -1), with
sparse boundary columns built straight from the faces.  One column
reduction ranks them exactly: integer combinations over the rationals,
arithmetic mod p over a prime field.  Floating point never enters, so every
Betti number and every depth verdict is exact.  Every Cohen-Macaulay
reading builds each link's chain complex straight from the face sets,
with no complex object per link.
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
    """Augmented chain complex of a complex or of a pair (quotient basis)."""
    fam = pair_family(big, small)
    return _chain(fam.faces, fam.dim + 2)


def _chain(faces: Iterable[Face], levels: int) -> ChainComplexData:
    """Chain complex spanned by ``faces``, with one basis per face size
    below ``levels``, each in ``lex_key`` order."""
    by_size: list[list[Face]] = [[] for _ in range(levels)]
    for f in faces:
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
    """Rank of an integer matrix given as sparse ``{row: entry}`` columns.

    While an earlier column owns a column's lowest row, the column becomes
    ``a*column - b*pivot``, which clears that row.  Over Q the entries stay
    integers and each combination is divided by its content; over GF(p)
    they are kept mod p."""
    p = field.characteristic
    pivots: dict[int, dict[int, int]] = {}
    for column in columns:
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


def _betti_of_chain(cc: ChainComplexData, field: FieldSpec) -> tuple[int, ...]:
    levels = len(cc.bases)
    ranks = [0] * (levels + 1)
    for t in range(1, levels):
        ranks[t] = matrix_rank(cc.boundaries[t], field)
    return tuple(
        len(cc.bases[t]) - ranks[t] - ranks[t + 1] for t in range(levels))


def homology_report(profile: HomologyProfile, field: FieldSpec) -> dict:
    """Serializable form of a profile: field characteristic plus a map from
    degree to rank."""
    return {"field": field.characteristic,
            "betti": {str(i): b for i, b in profile.as_dict().items()}}


def reduced_betti(c: SimplicialComplex, field: FieldSpec = RATIONALS) -> HomologyProfile:
    """Reduced Betti numbers of a complex, degrees -1 through its dimension."""
    if c.is_void:
        raise VoidComplex("the void complex has no homology profile")
    return HomologyProfile(_betti_of_chain(chain_complex(c), field))


def relative_betti(
    big: SimplicialComplex,
    small: Optional[SimplicialComplex] = None,
    field: FieldSpec = RATIONALS,
) -> HomologyProfile:
    """Betti numbers of the pair; with a void ``small`` this is absolute."""
    cc = chain_complex(big, small)  # checks that small lies in big, even if void
    return HomologyProfile(() if big.is_void else _betti_of_chain(cc, field))


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
    faces ``t`` in ``pair_faces`` (the pair's faces) that contain sigma."""
    for sigma in sorted(big.faces, key=face_key):
        star = [t for t in big.faces if sigma <= t]
        levels = max(map(len, star)) - len(sigma) + 1
        relative = (t - sigma for t in star if t in pair_faces)
        yield sigma, _betti_of_chain(_chain(relative, levels), field)


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
