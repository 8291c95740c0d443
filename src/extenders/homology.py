"""Exact reduced simplicial homology and Cohen-Macaulay machinery.

Chain complexes are augmented (the empty face spans degree -1), with
boundary columns built straight from the faces.  Column reduction ranks
them exactly: integer combinations over the rationals, arithmetic mod p
over an odd prime field, and XOR on bitset columns over GF(2).  Floating
point never enters, so every Betti number and every depth verdict is
exact.  One link walk reads every link off a single face index, the
complex's mask view, whose faces get ids in face order.  Over those ids a
set of faces is one int: the pair's members, each face's boundary, and
each face's star, narrowed level by level.  A link's face counts are
popcounts of its star in the pair, one per size, and its GF(2) column at
t is t's boundary ANDed with that star.  A pair is its relative family,
whose view shares the complex's codec, so the walk reads pair membership
off the family's masks.  The walk starts at the empty face, whose link is
the complex or pair itself, which gives ``reduced_betti`` and
``relative_betti``; so one walk gives a Cohen-Macaulay verdict or a depth
together with the complex's own Betti numbers, and each CLI command walks
its input once.

A link of dimension at most 0 is counted with no rank: {empty face} when
sigma is a facet, points when its largest coface has one vertex more.  Its
Betti numbers come from whether sigma is in the pair and how many pair
members cover it, both read off its star.

The boundary of a link's points is settled by counting.  Up to rescaling
rows and columns by +-1, it is a row of ones (or nothing, when sigma is
outside the pair), of rank 1 when there is a point.  The boundary of its
edges is the signed incidence matrix of the link's graph with the rows of
points outside the pair deleted, which is the incidence matrix of that
graph with those points merged into one ground node and the ground row
deleted.  Such a matrix is totally unimodular, so its rank is the same
over every field, and XOR elimination of its GF(2) columns gives it
(Reisner 1976; Stanley, *Combinatorics and Commutative Algebra*, ch. II).
Over the rationals each higher block is ranked over GF(2) too, and that
rank is taken when it meets the block's bound, the smaller of its column
count and the kernel dimension of the block below: the rational rank is at
least the GF(2) rank, as an odd minor is nonzero, and at most that bound,
as the boundary of a boundary is zero.  Otherwise the block's signed
columns are eliminated over Q, and over an odd prime they always are.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, Optional, Union

from .complexes import (
    ComplexOrFamily,
    Face,
    FaceFamily,
    SimplicialComplex,
    _bit_values,
    _build_checked,
    _face_order,
    _integer,
    pair_family,
    relative_family,
    skeleton,
)
from .errors import (
    InternalCheckError,
    InvalidParameters,
    NotAPermutation,
    VoidComplex,
)
from .partitions import check_shelling_order


def _is_prime(n: int) -> bool:
    """Trial division, for n below 2^31 only, so at most about 46k steps."""
    return 2 <= n < 2 ** 31 and all(n % f for f in range(2, isqrt(n) + 1))


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (exact rationals) or a prime
    below 2^31, given as an ``int`` (not a ``bool``)."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if not _integer(p) or p != 0 and not _is_prime(p):
            raise InvalidParameters(
                f"characteristic must be 0 or a prime below 2^31, got {p!r}")


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

    One elimination serves every field: while an earlier column owns a
    column's lowest row, the column becomes ``a*column - b*pivot``, which
    clears that row.  Over Q the entries stay integers and each
    combination is divided by its content; over GF(p), GF(2) included,
    they are kept mod p.  (The link walk ranks its GF(2) blocks on int
    columns, by :func:`_gf2_rank`.)  The rank cannot exceed the number of
    rows the columns touch, so the reduction stops once that many pivots
    exist."""
    p = field.characteristic
    rows = len(set().union(*columns))
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
    return _cm_reading(c, field)[0]


def _cm_reading(c: SimplicialComplex, field: FieldSpec) -> tuple[bool, HomologyProfile]:
    """:func:`is_cohen_macaulay` and :func:`reduced_betti` of ``c``, from
    one walk (:func:`_pair_reading`)."""
    if c.is_void:
        raise VoidComplex("the void complex is outside this criterion")
    return _pair_reading(c, c, field)


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
    entry holds the pair's own Betti numbers, and is yielded before any of
    the later faces' set-up.

    One index, ``big``'s mask view, serves the whole walk.  Its masks get
    ids in ``face_key`` order, read off the masks by :func:`_face_order`,
    as the codec's labels are sorted, so each size holds a run of ids,
    from ``start[size]``.  A set of faces is an int over ids: the pair's
    members ``in_pair``, and each face's boundary, its faces of one vertex
    less.  The star of sigma is the star of its parent (sigma less its
    top vertex) ANDed with the star of that vertex, so stars are built
    level by level, keeping the previous level's only.  A link's members
    of each size are a popcount of its star in the pair over that size's
    ids, and its GF(2) column at t is ``boundary[t]`` ANDed with that
    star: the rows that still contain sigma and lie in the pair.

    A face with nothing above it has the link {empty face}, with Betti
    numbers (c0,), where c0 is 1 when sigma is in the pair.  A face whose
    star holds nothing two sizes up has a link of points, with Betti
    numbers (c0 - r, c1 - r), r = min(c0, c1), where c1 counts the pair's
    members in the star that cover sigma.  Neither builds a column.

    Otherwise the boundary of the points has rank 1 when sigma is in the
    pair and the pair has a point above it, else 0.  Each higher block is
    ranked in degree order, capped by the exact rank below it, on columns
    read lazily in face order: the edge block by :func:`_gf2_rank`, the
    others by :func:`_block_rank`.  The edge block is a +-1 rescaled
    signed incidence matrix with the rows outside the pair deleted, so
    totally unimodular, and its GF(2) rank, by XOR, is its rank over every
    field.  A link of dimension at most 1 thus makes no :func:`matrix_rank`
    call.  A higher block makes one over an odd prime, and over Q only
    when its GF(2) rank falls short of its cap, on signed columns: +-1 by
    the parity of t's bits below the removed vertex."""
    view = big._view
    face, masks = view.codec.face, _face_order(view.masks)
    if not masks:
        return
    n, members = len(masks), pair._view.masks
    ids = {m: i for i, m in enumerate(masks)}
    in_pair = sum(1 << i for i, m in enumerate(masks) if m in members)
    sizes = list(map(int.bit_count, masks))
    start = [n] * (sizes[-1] + 3)  # start[s]: the first id of size s, else n
    for i in range(n - 1, -1, -1):
        start[sizes[i]] = i
    boundary, parents = [0], [0]
    for m in masks[1:]:
        rows, rest = 0, m
        while rest:
            b = rest & -rest
            rest ^= b
            rows |= 1 << (r := ids[m ^ b])
        boundary.append(rows)
        parents.append(r)  # the row of the top bit, the last one

    def signed(t: int, star: int) -> dict[int, int]:
        """t's column over Q or GF(p) in the link whose star in the pair is
        ``star``: +-1 at each row in it.  The sign is big's, (-1)^pos(v, t);
        the link's, (-1)^pos(v, t - sigma), differs from it by
        phi(t)*phi(t - v), where phi(f) = (-1)^(sum over w in f - sigma of
        #{u in sigma : u < w}).  That rescales rows and columns by +-1, so
        no rank over any field changes."""
        m = masks[t]
        return {r: -1 if (m & b - 1).bit_count() & 1 else 1
                for b in _bit_values(m) if star >> (r := ids[m ^ b]) & 1}

    def betti(k: int, star: int) -> tuple[int, ...]:
        levels = sizes[star.bit_length() - 1] - k + 1
        star &= in_pair
        above = [(star >> start[s]).bit_count() for s in range(k, k + max(levels, 2) + 1)]
        counts = [a - b for a, b in zip(above, above[1:])]  # members by link level
        ranks = [0, min(counts[0], counts[1])]
        for j in range(2, levels):
            first, low = start[k + j], start[k + j - 1]
            block = star >> first & (1 << start[k + j + 1] - first) - 1
            # Lazy and in face order: most columns then bring a new top row,
            # and the elimination reads no column past its cap.
            columns = ((boundary[t] & star) >> low for t in _ids(block, first))
            cap = min(counts[j], counts[j - 1] - ranks[j - 1])
            ranks.append(_gf2_rank(columns, cap) if j == 2 else _block_rank(
                columns, cap, field, lambda: [signed(t, star) for t in _ids(block, first)]))
        ranks.append(0)
        return tuple(counts[j] - ranks[j] - ranks[j + 1] for j in range(levels))

    yield face[0], betti(0, (1 << n) - 1)
    vertex = [0] * len(view.codec.labels)  # the star of each vertex bit
    for i, m in enumerate(masks):
        while m:
            j = m.bit_length() - 1
            vertex[j] |= 1 << i
            m ^= 1 << j
    level, stars, previous = 0, {0: (1 << n) - 1}, {}
    for i in range(1, n):
        sigma, k = masks[i], sizes[i]
        if k > level:  # sigma is the first face of the next size
            level, previous, stars = k, stars, {}
        star = previous[parents[i]] & vertex[sigma.bit_length() - 1]
        c0 = in_pair >> i & 1
        if star >> i == 1:  # nothing above sigma: the link {empty face}
            yield face[sigma], (c0,)
            continue
        stars[i] = star
        if star >> start[k + 2]:
            yield face[sigma], betti(k, star)
        else:  # only covers above sigma: a link of points
            c1 = (star & in_pair).bit_count() - c0
            r = min(c0, c1)
            yield face[sigma], (c0 - r, c1 - r)


def _ids(block: int, first: int) -> Iterator[int]:
    """``first + i`` for each bit i of ``block``, rising."""
    return (first + b.bit_length() - 1 for b in _bit_values(block))


def _gf2_rank(columns: Iterable[int], cap: int) -> int:
    """The GF(2) rank of columns given as ints, bit r set for a nonzero in
    row r, or ``cap`` once that many pivots exist: XOR with the pivot
    owning a column's top bit clears that bit."""
    pivots: dict[int, int] = {}
    for bits in columns:
        if len(pivots) == cap:
            break
        while bits:
            top = bits.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = bits
                break
            bits ^= pivot
    return len(pivots)


def _block_rank(columns: Iterable[int], cap: int, field: FieldSpec,
                signed: Callable[[], list[dict]]) -> int:
    """The rank of one block of link columns above the edges, given its
    GF(2) columns as ints, read once; ``cap``, the smaller of its column
    count and the exact kernel dimension of the block below; and
    ``signed``, which lists its signed columns.  Over Q the GF(2) rank is
    taken when it meets ``cap`` (the module docstring has the proof);
    otherwise, and always over an odd prime, the signed columns are
    eliminated over the field by :func:`matrix_rank`."""
    p = field.characteristic
    if p == 2:
        return _gf2_rank(columns, cap)
    if not p and (rank := _gf2_rank(columns, cap)) == cap:
        return rank
    return matrix_rank(signed(), field)


def is_relative_cm(
    big: SimplicialComplex,
    small: Optional[SimplicialComplex] = None,
    field: FieldSpec = RATIONALS,
) -> bool:
    """Whether pair link homology vanishes away from degree d - |face|."""
    return _pair_reading(big, pair_family(big, small), field)[0]


def _top_only(d: int, sigma: Face, betti: tuple[int, ...]) -> bool:
    """Reisner's condition at sigma: the link's reduced homology lies in
    degree d - |sigma| alone.  The link has dimension at most d - |sigma|,
    so its Betti numbers, indexed from degree -1, end at that degree, and
    every entry before it must be 0."""
    return not any(betti[:d + 1 - len(sigma)])


def _pair_reading(
    big: SimplicialComplex, pair: ComplexOrFamily, field: FieldSpec
) -> tuple[bool, HomologyProfile]:
    """Reisner's verdict on ``big`` and its pair's family, and the pair's
    own Betti numbers, from one walk that stops at the first failing link.
    The empty face comes first, so its Betti numbers are read before any
    failure; a void ``big`` has no faces, no Betti numbers and no failing
    link."""
    d, own = big.dim, ()
    for sigma, betti in _link_betti(big, pair, field):
        if not sigma:
            own = betti
        if not _top_only(d, sigma, betti):
            return False, HomologyProfile(own)
    return True, HomologyProfile(own)


def _depth_and_witness(
    c: SimplicialComplex, field: FieldSpec
) -> tuple[int, Optional[tuple[Face, int]], HomologyProfile]:
    """:func:`depth`, the first (face, degree), in ``face_key`` then degree
    order, whose link homology attains it (None when the depth is dim + 1),
    and :func:`reduced_betti` of ``c``, from one walk of its links.

    The cross-check reads the skeleton criterion from the top down.
    ``skeleton(c, d)`` is ``c``, so its r = d reading is Reisner's verdict
    on the walk just made, not a second walk; each r < d walks a skeleton
    of its own."""
    if c.is_void:
        raise VoidComplex("the void complex has no depth")
    d = c.dim
    value, witness, cm, own = d + 1, None, True, ()
    for sigma, betti in _link_betti(c, c, field):
        if not sigma:
            own = betti
        cm = cm and _top_only(d, sigma, betti)
        low = betti[1:d + 1]
        if any(low):
            for i, b in enumerate(low):
                if b and len(sigma) + i + 1 < value:
                    value, witness = len(sigma) + i + 1, (sigma, i)
    oracle = d + 1 if cm else next(
        r for r in range(d - 1, -2, -1)
        if is_cohen_macaulay(skeleton(c, r), field)) + 1
    if value != oracle:
        raise InternalCheckError(
            f"depth readings disagree: link criterion gives {value}, "
            f"skeleton criterion gives {oracle}")
    return value, witness, HomologyProfile(own)


def depth(c: SimplicialComplex, field: FieldSpec = RATIONALS) -> int:
    """Homological depth of the face ring.

    Computed from vanishing of low-degree link homology, capped at the
    Krull dimension, and cross-checked against the skeleton criterion:
    one plus the largest r whose r-skeleton is Cohen-Macaulay.  The
    r = d reading comes from the same link walk, since the d-skeleton is
    the complex itself (Reisner's verdict against the low-degree reading);
    every r < d is an independent walk of a smaller complex.  A
    disagreement raises InternalCheckError instead of picking a side.
    """
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
    obstruction witness.

    The extender Sigma is the d-skeleton of the simplex on the base's n
    vertices.  Its facets in lexicographic order are a shelling, and a
    shelling proves Cohen-Macaulayness over every field (Stanley,
    *Combinatorics and Commutative Algebra*, ch. III), so
    :func:`check_shelling_order` certifies Sigma without any homology.
    Its first step checks that the order, the (d + 1)-subsets of the
    base's vertices, is a permutation of Sigma's facets, so a Sigma that
    lacks a facet or has another one fails there.  The pair
    (Sigma, base) has no certificate and is checked by Reisner's
    criterion.  Each failed self-check raises InternalCheckError."""
    if c.is_void:
        raise VoidComplex("the void complex has no extender")
    d = c.dim
    dep, witness, _ = _depth_and_witness(c, field)
    if dep >= d:  # depth >= dim of the face ring minus one
        vertices = c.vertices
        order = list(combinations(sorted(vertices), d + 1))  # lexicographic
        gamma = _build_checked(map(frozenset, order))  # the base's labels, checked
        try:
            shelled = check_shelling_order(gamma, order)
        except NotAPermutation:
            raise InternalCheckError(
                f"skeleton extender's facets are not the {d + 1}-subsets "
                f"of the base's {len(vertices)} vertices") from None
        if not shelled:
            raise InternalCheckError("skeleton extender's lexicographic order is not a shelling")
        relative = relative_family(gamma, c)
        if not _pair_reading(gamma, relative, field)[0]:
            raise InternalCheckError("skeleton extender pair is not relative CM")
        return CmExtender(gamma, c, relative)
    return NoExtender(*witness)
