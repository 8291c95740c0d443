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
pair itself, which gives ``reduced_betti`` and ``relative_betti``; so one
walk gives a Cohen-Macaulay verdict or a depth together with the complex's
own Betti numbers, and each CLI command walks its input once.

A link of dimension at most 0 is counted with no star: {empty face} when
sigma is a facet, points when its largest coface has one vertex more.  Its
Betti numbers come from whether sigma is in the pair and how many pair
members cover it, which one pass down the boundary lists gives every face.

Only boundaries of link faces with three or more vertices are built and
reduced.  Over the rationals each such block is ranked over GF(2) first,
and that rank is taken when it meets the block's bound, the smaller of its
column count and the kernel dimension of the block below: the rational
rank is at least the GF(2) rank, as an odd minor is nonzero, and at most
that bound, as the boundary of a boundary is zero.  Otherwise the block is
eliminated over Q.  The two lower boundaries are settled by counting,
exactly over every field.  Up to rescaling rows and columns by +-1, the
boundary of a link's points is a row of ones (or nothing, when sigma is
outside the pair), of rank 1 when there is a point.  The boundary of its
edges is the signed incidence matrix of the link's graph with the rows of
points outside the pair deleted, which is the incidence matrix of that
graph with those points merged into one ground node and the ground row
deleted.  Such a matrix is totally unimodular, so its rank is the same
over every field: the number of edges in a spanning forest (Reisner 1976;
Stanley, *Combinatorics and Commutative Algebra*, ch. II).
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
GF2 = FieldSpec(2)


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
    as the codec's labels are sorted.  Each mask's boundary
    entries are listed once as (vertex bit, row id, sign), bits in label
    order, from its parent's (the mask less its top bit).  The star of
    sigma is the part of the star of sigma - max(sigma) that contains
    max(sigma), so stars are built level by level, keeping the previous
    level's only.  A link's column at t is t's boundary, restricted to
    vertices outside sigma and rows in the pair.

    After the empty face, one pass down the boundary lists gives each face
    its ``reach``, the size of the largest face above it, and the number of
    pair members that cover it.  A face whose reach is at most
    ``|sigma| + 1`` has a link of dimension at most 0, whose Betti numbers
    are counted with no star: (c0,) for the link {empty face}, and
    (c0 - r, c1 - r), r = min(c0, c1), for a link of points, where c0 is 1
    when sigma is in the pair and c1 is its cover count.  A face's parent
    reaches at least as far, so every face with a star has a parent with
    one.

    Columns are built, and ranked, only for link faces of three or more
    vertices; the lower levels are counted.  The boundary of the points has
    rank 1 when sigma is in the pair and the pair has a point above it,
    else 0.  The boundary of the edges is a +-1 rescaled signed incidence
    matrix with the rows outside the pair deleted: one ground node stands
    for them all, so an edge with both ends outside is a loop.  Such
    matrices are totally unimodular, so their rank over every field is the
    size of a spanning forest (:func:`_forest_size`).  A link of dimension
    at most 1 thus costs a count and at most one union-find, and no
    :func:`matrix_rank` call.  Higher blocks are ranked in degree order by
    :func:`_block_rank`, which the exact rank below each block bounds."""
    view = big._view
    face, masks = view.codec.face, _face_order(view.masks)
    if not masks:
        return
    ids = {m: i for i, m in enumerate(masks)}
    in_pair = list(map(pair._view.masks.__contains__, masks))
    sizes = [m.bit_count() for m in masks]
    # The link's sign at (v, t) is (-1)^pos(v, t - sigma), big's is
    # (-1)^pos(v, t); they differ by phi(t)*phi(t - v), where
    # phi(f) = (-1)^(sum over w in f - sigma of #{u in sigma : u < w}).
    # That rescales rows and columns by +-1, so no rank over any field
    # changes.
    boundary: list[list[tuple[int, int, int]]] = [[]]
    for m in masks[1:]:
        top = 1 << m.bit_length() - 1
        parent = ids[m ^ top]
        entries = [(b, ids[m ^ b], sign) for b, _, sign in boundary[parent]]
        entries.append((top, parent, -1 if len(entries) % 2 else 1))
        boundary.append(entries)

    def betti(sigma: int, star) -> tuple[int, ...]:
        k = sizes[star[0]]
        levels = sizes[star[-1]] - k + 1  # star is in face_key order
        counts = [0] * max(levels, 3)  # members by link level, padded for ranks
        columns: list[list[dict]] = [[] for _ in range(levels - 3)]  # levels 3 up
        edges = []
        for t in star:
            if in_pair[t]:
                size = sizes[t] - k
                counts[size] += 1
                if size == 2:  # rows outside the pair are the ground node -1
                    edges.append([r if in_pair[r] else -1
                                  for b, r, _ in boundary[t] if not b & sigma])
                elif size > 2:
                    columns[size - 3].append(
                        {r: sign for b, r, sign in boundary[t]
                         if not b & sigma and in_pair[r]})
        ranks = [0, min(counts[0], counts[1]), _forest_size(edges) if edges else 0]
        for t, block in enumerate(columns, 3):
            ranks.append(_block_rank(block, field, counts[t - 1] - ranks[t - 1]))
        ranks.append(0)
        return tuple(counts[t] - ranks[t] - ranks[t + 1] for t in range(levels))

    yield face[0], betti(0, range(len(masks)))
    reach, covers = sizes[:], [0] * len(masks)
    for t in range(len(masks) - 1, 0, -1):  # every face before the faces it covers
        above, member = reach[t], in_pair[t]
        for _, r, _ in boundary[t]:
            if reach[r] < above:
                reach[r] = above
            covers[r] += member
    level, stars, previous = 0, {0: range(len(masks))}, {}
    for i in range(1, len(masks)):
        sigma, k = masks[i], sizes[i]
        if k > level:  # sigma is the first face of the next size
            level, previous, stars = k, stars, {}
        if reach[i] > k + 1:
            top = 1 << sigma.bit_length() - 1
            stars[sigma] = star = [t for t in previous[sigma ^ top] if masks[t] & top]
            yield face[sigma], betti(sigma, star)
        elif reach[i] > k:
            c0, c1 = int(in_pair[i]), covers[i]
            r = min(c0, c1)
            yield face[sigma], (c0 - r, c1 - r)
        else:
            yield face[sigma], (int(in_pair[i]),)


def _block_rank(columns: list[dict], field: FieldSpec, kernel: int) -> int:
    """The rank of one block of link columns, given ``kernel``, the exact
    kernel dimension of the block below it.  Over Q its GF(2) rank is
    taken when it meets ``min(len(columns), kernel)`` (the module
    docstring has the proof); otherwise the block is eliminated over its
    field."""
    if not field.characteristic:
        lower = matrix_rank(columns, GF2)
        if lower == min(len(columns), kernel):
            return lower
    return matrix_rank(columns, field)


def _forest_size(edges) -> int:
    """The number of edges in a spanning forest of a multigraph given as
    ``(u, v)`` pairs, loops ``(u, u)`` allowed: the unions of a union-find
    that join two components."""
    parent: dict[int, int] = {}
    joins = 0
    for u, v in edges:
        while u in parent:  # path halving: point u at its grandparent, go there
            parent[u] = u = parent.get(parent[u], parent[u])
        while v in parent:
            parent[v] = v = parent.get(parent[v], parent[v])
        if u != v:
            parent[u] = v
            joins += 1
    return joins


def is_relative_cm(
    big: SimplicialComplex,
    small: Optional[SimplicialComplex] = None,
    field: FieldSpec = RATIONALS,
) -> bool:
    """Whether pair link homology vanishes away from degree d - |face|."""
    return _pair_reading(big, pair_family(big, small), field)[0]


def _top_only(d: int, sigma: Face, betti: tuple[int, ...]) -> bool:
    """Reisner's condition at sigma: the link's reduced homology lies in
    degree d - |sigma| alone."""
    return all(not b or len(sigma) + idx - 1 == d for idx, b in enumerate(betti))


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
        for i, b in enumerate(betti[1:d + 1]):
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
