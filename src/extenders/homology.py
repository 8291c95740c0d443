"""Exact reduced simplicial homology and Cohen-Macaulay machinery.

Chain complexes are augmented (the empty face spans degree -1), with
sparse boundary columns built straight from the faces.  One column
reduction ranks them exactly: integer combinations over the rationals,
arithmetic mod p over an odd prime field, and XOR on bitset columns over
GF(2).  Floating point never enters, so every Betti number and every depth
verdict is exact.  One link walk builds every boundary column from a
single face index, the complex's mask view: each face's boundary entries
are listed once, stars are narrowed level by level, and a link's columns
are read off the star.  A pair is its relative family, whose view shares
the complex's codec, so the walk reads pair membership off the family's
masks.  The walk starts at the empty face, whose link is the complex or
pair itself, which gives ``reduced_betti`` and ``relative_betti``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt
from typing import Iterator, Optional, Union

from .complexes import (
    ComplexOrFamily,
    Face,
    FaceFamily,
    SimplicialComplex,
    _bit_values,
    build_complex,
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

    def as_dict(self) -> dict[int, int]:
        return {i - 1: b for i, b in enumerate(self.betti)}


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
        column = {r: y for r, x in column.items() if (y := x % p if p else x)}
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


def homology_report(profile: HomologyProfile, field: FieldSpec) -> dict:
    """Serializable form of a profile: field characteristic plus a map from
    degree to rank."""
    return {"field": field.characteristic,
            "betti": {str(i): b for i, b in profile.as_dict().items()}}


def reduced_betti(c: SimplicialComplex, field: FieldSpec = RATIONALS) -> HomologyProfile:
    """Reduced Betti numbers of a complex, degrees -1 through its dimension."""
    if c.is_void:
        raise VoidComplex("the void complex has no homology profile")
    return relative_betti(c, None, field)


def relative_betti(
    big: SimplicialComplex,
    small: Optional[SimplicialComplex] = None,
    field: FieldSpec = RATIONALS,
) -> HomologyProfile:
    """Betti numbers of the pair; with a void ``small`` this is absolute."""
    fam = pair_family(big, small)  # checks that small lies in big, even if void
    if big.is_void:
        return HomologyProfile(())
    return HomologyProfile(next(_link_betti(big, fam, field))[1])


def is_cohen_macaulay(c: SimplicialComplex, field: FieldSpec = RATIONALS) -> bool:
    """Reisner's criterion: every link has reduced homology concentrated in
    its top allowed degree."""
    if c.is_void:
        raise VoidComplex("the void complex is outside this criterion")
    return is_relative_cm(c, None, field)


def _link_betti(
    big: SimplicialComplex, pair: ComplexOrFamily, field: FieldSpec
) -> Iterator[tuple[Face, tuple[int, ...]]]:
    """Yield ``(sigma, Betti numbers of the pair's link at sigma)`` for every
    face of ``big`` in ``face_key`` order, degrees indexed from -1 up to the
    dimension of ``big``'s link.  ``pair`` is ``big`` itself or a relative
    family of ``big`` (:func:`pair_family`), whose view shares ``big``'s
    codec, so its members are read off its masks.  The pair's link is
    ``t - sigma`` over the members ``t`` of ``pair`` that contain sigma.
    This is the package's only builder of boundary columns.  Sigma comes
    first as the empty face, whose link is the pair itself, so the first
    entry holds the pair's own Betti numbers.

    One index, ``big``'s mask view, serves the whole walk.  Its masks get
    ids in ``face_key`` order, and each one's boundary entries are listed
    once as (vertex bit, row id, sign), bits in label order.  The star of
    sigma is the part of the star of sigma - max(sigma) that contains
    max(sigma), so stars are built level by level, keeping the previous
    level's only.  A link's column at t is t's boundary, restricted to
    vertices outside sigma and rows in the pair."""
    face, masks = big._view.codec.face, sorted(big._view.masks, key=big._view.codec.key)
    ids = {m: i for i, m in enumerate(masks)}
    in_pair = list(map(pair._view.masks.__contains__, masks))
    # The link's sign at (v, t) is (-1)^pos(v, t - sigma), big's is
    # (-1)^pos(v, t); they differ by phi(t)*phi(t - v), where
    # phi(f) = (-1)^(sum over w in f - sigma of #{u in sigma : u < w}).
    # That rescales rows and columns by +-1, so no rank over any field
    # changes.
    boundary = [[(b, ids[m ^ b], -1 if pos % 2 else 1)
                 for pos, b in enumerate(_bit_values(m))] for m in masks]
    level, stars, previous = 0, {0: range(len(masks))}, {}
    for sigma in masks:
        k = sigma.bit_count()
        if k > level:  # sigma is the first face of the next size
            level, previous, stars = k, stars, {}
        if k:
            top = 1 << sigma.bit_length() - 1
            stars[sigma] = [t for t in previous[sigma ^ top] if masks[t] & top]
        star = stars[sigma]  # in face_key order, so its last face is largest
        columns: list[list[dict]] = [[] for _ in range(masks[star[-1]].bit_count() - k + 1)]
        for t in star:
            if in_pair[t]:
                columns[masks[t].bit_count() - k].append(
                    {r: sign for b, r, sign in boundary[t]
                     if not b & sigma and in_pair[r]})
        ranks = [0, *(matrix_rank(m, field) for m in columns[1:]), 0]
        yield face[sigma], tuple(len(m) - ranks[t] - ranks[t + 1]
                                 for t, m in enumerate(columns))


def is_relative_cm(
    big: SimplicialComplex,
    small: Optional[SimplicialComplex] = None,
    field: FieldSpec = RATIONALS,
) -> bool:
    """Whether pair link homology vanishes away from degree d - |face|."""
    return _pair_is_cm(big, pair_family(big, small), field)


def _pair_is_cm(big: SimplicialComplex, pair: ComplexOrFamily, field: FieldSpec) -> bool:
    """:func:`is_relative_cm` on ``big`` and its pair's family."""
    d = big.dim
    return all(not value or len(sigma) + idx - 1 == d
               for sigma, betti in _link_betti(big, pair, field)
               for idx, value in enumerate(betti))


def _depth_and_witness(
    c: SimplicialComplex, field: FieldSpec
) -> tuple[int, Optional[tuple[Face, int]]]:
    """Depth by the link criterion, cross-checked against the skeleton
    criterion, and the first (face, degree), in ``face_key`` then degree
    order, whose link homology attains it; None when the depth is dim + 1."""
    d = c.dim
    value, witness = d + 1, None
    for sigma, betti in _link_betti(c, c, field):
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
        relative = relative_family(gamma, c)
        if not _pair_is_cm(gamma, relative, field):
            raise InternalCheckError("skeleton extender pair is not relative CM")
        return CmExtender(gamma, c, relative)
    return NoExtender(*witness)
