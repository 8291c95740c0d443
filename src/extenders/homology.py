"""Exact reduced simplicial homology and Cohen-Macaulay machinery.

Chain complexes are augmented (the empty face spans degree -1) and ranks
are computed exactly: fraction-free integer elimination over the
rationals, modular elimination over a prime field.  Floating point never
enters, so every Betti number and every depth verdict is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .complexes import (
    Face,
    FaceFamily,
    SimplicialComplex,
    build_complex,
    face_key,
    lex_key,
    link,
    relative_family,
    skeleton,
)
from .errors import (
    InternalCheckError,
    InvalidParameters,
    NotASubcomplex,
    VoidComplex,
)

VOID = build_complex([])


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (exact rationals) or a prime."""

    characteristic: int = 0

    def __post_init__(self):
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise InvalidParameters(
                f"characteristic must be 0 or prime, got {self.characteristic}")


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
    """Ordered face bases by cardinality and the boundary matrices between
    them; ``boundaries[t]`` maps the size-t basis to the size-(t-1) basis."""

    bases: tuple
    boundaries: tuple

    def boundary_squares_to_zero(self) -> bool:
        for t in range(2, len(self.bases)):
            high, mid = self.boundaries[t], self.boundaries[t - 1]
            if not high or not mid:
                continue
            for col in range(len(self.bases[t])):
                for row in range(len(self.bases[t - 2])):
                    total = sum(mid[row][m] * high[m][col]
                                for m in range(len(self.bases[t - 1])))
                    if total != 0:
                        return False
        return True


def chain_complex(
    big: SimplicialComplex, small: Optional[SimplicialComplex] = None
) -> ChainComplexData:
    """Augmented chain complex of a complex or of a pair (quotient basis)."""
    small_faces = small.faces if small is not None else frozenset()
    if not small_faces <= big.faces:
        raise NotASubcomplex("the second complex is not a subcomplex of the first")
    top = big.dim + 1
    bases = []
    for size in range(top + 1):
        bases.append(tuple(sorted(
            (f for f in big.faces - small_faces if len(f) == size),
            key=lex_key)))
    boundaries = [()]
    for t in range(1, top + 1):
        index = {f: i for i, f in enumerate(bases[t - 1])}
        matrix = [[0] * len(bases[t]) for _ in bases[t - 1]]
        for col, f in enumerate(bases[t]):
            for pos, v in enumerate(sorted(f)):
                row = index.get(f - {v})
                if row is not None:
                    matrix[row][col] = -1 if pos % 2 else 1
        boundaries.append(tuple(tuple(r) for r in matrix))
    return ChainComplexData(tuple(bases), tuple(boundaries))


def _rank_fraction_free(matrix) -> int:
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pval = m[rank][col]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            row = m[r]
            lead = m[rank]
            for c in range(col, ncols):
                row[c] = (pval * row[c] - factor * lead[c]) // prev
        prev = pval
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_mod(matrix, p: int) -> int:
    m = [[x % p for x in row] for row in matrix]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            if factor:
                m[r] = [(x - factor * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def matrix_rank(matrix, field: FieldSpec = RATIONALS) -> int:
    if field.characteristic == 0:
        return _rank_fraction_free(matrix)
    return _rank_mod(matrix, field.characteristic)


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
    if big.is_void:
        if small is not None and not small.is_void:
            raise NotASubcomplex("the second complex is not a subcomplex of the first")
        return HomologyProfile(())
    return HomologyProfile(_betti_of_chain(chain_complex(big, small), field))


def is_cohen_macaulay(c: SimplicialComplex, field: FieldSpec = RATIONALS) -> bool:
    """Reisner's criterion: every link has reduced homology concentrated in
    its top allowed degree."""
    if c.is_void:
        raise VoidComplex("the void complex is outside this criterion")
    return is_relative_cm(c, None, field)


def is_relative_cm(
    big: SimplicialComplex,
    small: Optional[SimplicialComplex] = None,
    field: FieldSpec = RATIONALS,
) -> bool:
    """Whether pair link homology vanishes away from degree d - |face|."""
    small = small if small is not None else VOID
    if not small.faces <= big.faces:
        raise NotASubcomplex("the second complex is not a subcomplex of the first")
    d = big.dim
    for sigma in big.faces:
        link_big = link(big, sigma)
        link_small = link(small, sigma) if sigma in small.faces else VOID
        profile = relative_betti(link_big, link_small, field)
        for idx, value in enumerate(profile.betti):
            if value and len(sigma) + (idx - 1) != d:
                return False
    return True


def depth(c: SimplicialComplex, field: FieldSpec = RATIONALS) -> int:
    """Homological depth of the face ring.

    Computed from vanishing of low-degree link homology, capped at the
    Krull dimension, and cross-checked against an independent reading:
    one plus the largest r whose r-skeleton is Cohen-Macaulay.  A
    disagreement raises InternalCheckError instead of picking a side.
    """
    if c.is_void:
        raise VoidComplex("the void complex has no depth")
    d = c.dim
    value = d + 1
    for sigma in c.faces:
        profile = reduced_betti(link(c, sigma), field)
        for i in range(0, d):
            if profile.degree(i):
                value = min(value, len(sigma) + i + 1)
    oracle = next(
        r for r in range(d, -2, -1)
        if is_cohen_macaulay(skeleton(c, r), field)) + 1
    if value != oracle:
        raise InternalCheckError(
            f"depth readings disagree: link criterion gives {value}, "
            f"skeleton criterion gives {oracle}")
    return value


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
    dep = depth(c, field)
    if dep >= d:  # depth >= dim of the face ring minus one
        vertices = sorted(c.vertices)
        gamma = skeleton(build_complex([vertices]), d)
        if not is_cohen_macaulay(gamma, field):
            raise InternalCheckError("skeleton extender is not Cohen-Macaulay")
        if not is_relative_cm(gamma, c, field):
            raise InternalCheckError("skeleton extender pair is not relative CM")
        return CmExtender(gamma, c, relative_family(gamma, c))
    for sigma in sorted(c.faces, key=face_key):
        profile = reduced_betti(link(c, sigma), field)
        for i in range(0, d):
            if profile.degree(i) and len(sigma) + i + 1 == dep:
                return NoExtender(sigma, i)
    raise InternalCheckError(
        f"no witness found for depth {dep} below {d}")
