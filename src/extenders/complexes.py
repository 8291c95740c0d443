"""Simplicial complexes, face families, and their counting statistics.

A face is a frozenset of nonnegative integer vertex labels; the empty
frozenset is the empty face, of dimension -1.  A complex is its face set,
which is closed under subsets; its facets and dimension are derived from
the faces in one place and cached.  A face family is an arbitrary finite
set of faces with an explicit dimension; it holds a relative complex
(Gamma, Delta), or any family that is not closed under subsets.  Both
expose ``faces`` and ``dim``, the only two things every statistic reads.
:func:`relative_family` is the one place that checks a subcomplex lies in
its complex.

Every public value here is immutable and every public operation is a pure
function, so results can be shared freely between concurrent tasks.

Inside the construction and verification core a face is an ``int`` mask
over densely relabelled vertices: bit i stands for the i-th smallest
label, so label order is bit order and every sort key reads the same on
either side.  :class:`_MaskCodec` is the one place that crosses between
masks and frozensets, and it converts each face once.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Iterator, Optional, Union

from .errors import InvalidParameters, NotASubcomplex

Face = frozenset


def face_of(labels: Iterable[int]) -> Face:
    """Normalize an iterable of vertex labels into a face."""
    f = frozenset(labels)
    for v in f:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise InvalidParameters(
                f"vertex labels must be nonnegative integers, got {v!r}")
    return f


def face_key(face: Face) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key: by cardinality, then lexicographically."""
    return (len(face), tuple(sorted(face)))


def lex_key(face: Face) -> tuple[int, ...]:
    return tuple(sorted(face))


def format_face(face: Face) -> str:
    return "{" + ",".join(map(str, sorted(face))) + "}"


def subsets_of(face: Face) -> Iterator[Face]:
    """All subsets of a face, the empty face included."""
    verts = sorted(face)
    for r in range(len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            yield frozenset(combo)


def between(bottom: Face, top: Face) -> Iterator[Face]:
    """All sets in the Boolean interval [bottom, top]."""
    gap = sorted(top - bottom)
    for r in range(len(gap) + 1):
        for combo in itertools.combinations(gap, r):
            yield bottom | frozenset(combo)


def _bit_values(mask: int) -> Iterator[int]:
    """The single-bit values of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of a mask, from the mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


class _Faces(dict):
    """Mask -> frozenset face over a label list, filled on first lookup."""

    def __init__(self, labels: list):
        super().__init__()
        self.labels = labels

    def __missing__(self, mask: int) -> Face:
        labels = self.labels
        self[mask] = face = frozenset(labels[b.bit_length() - 1] for b in _bit_values(mask))
        return face


class _MaskCodec:
    """Faces as masks over a sorted label list, and back.

    ``labels[i]`` is the label of bit i; labels may be appended (fresh
    vertices, larger than all earlier ones) while masks are in use.  Each
    mask is turned into its frozenset once, through ``face``, which a
    caller may also fill in bulk.
    """

    def __init__(self, labels: Iterable[int]):
        self.labels = list(labels)
        self.bit = {v: 1 << i for i, v in enumerate(self.labels)}
        self.face = _Faces(self.labels)

    def extend(self, labels: Iterable[int]) -> None:
        for v in labels:
            self.bit[v] = 1 << len(self.labels)
            self.labels.append(v)

    def mask(self, face: Iterable[int]) -> int:
        return sum(map(self.bit.__getitem__, face))

    def key(self, mask: int) -> tuple[int, tuple[int, ...]]:
        return face_key(self.face[mask])

    def name(self, mask: int) -> str:
        return format_face(self.face[mask])


def maximal_faces(faces: Iterable[Face]) -> set[Face]:
    """Inclusion-maximal elements of a finite set of faces: those that no
    larger member contains."""
    return {f for f, size in _facet_sizes(frozenset(faces)).items() if size == len(f)}


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite simplicial complex, held as its face set, which is closed
    under subsets.  Facets and dimension are derived from the faces.

    The void complex has ``facets == faces == frozenset()``; the complex
    whose only face is the empty face has ``facets == {frozenset()}``.
    Both report dimension -1.
    """

    faces: frozenset

    @cached_property
    def facets(self) -> frozenset:
        """The faces that are not a codimension-one face of another face;
        in a set closed under subsets these are the maximal faces."""
        return self.faces - {t - {v} for t in self.faces for v in t}

    @cached_property
    def dim(self) -> int:
        return max(map(len, self.faces), default=0) - 1

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1

    @property
    def vertices(self) -> frozenset:
        return frozenset(v for f in self.facets for v in f)

    def __contains__(self, face) -> bool:
        return frozenset(face) in self.faces

    def sorted_faces(self) -> list[Face]:
        return sorted(self.faces, key=face_key)


@dataclass(frozen=True)
class FaceFamily:
    """A finite set of faces ordered by inclusion.

    Unlike a complex, a family need not be closed under subsets, so
    statistics that depend on the ambient dimension cannot be derived
    from its faces alone; ``dim`` supplies it.
    """

    faces: frozenset
    dim: int

    def __post_init__(self):
        top = max((len(f) for f in self.faces), default=0) - 1
        if self.dim < top:
            raise InvalidParameters(
                f"ambient dimension {self.dim} is below a member of "
                f"dimension {top}")

    def __contains__(self, face) -> bool:
        return frozenset(face) in self.faces

    def __len__(self) -> int:
        return len(self.faces)


ComplexOrFamily = Union[SimplicialComplex, FaceFamily]


def build_complex(facet_list: Iterable[Iterable[int]]) -> SimplicialComplex:
    """The complex the candidate facets generate.  Candidates are closed
    largest first, so one already present adds nothing."""
    faces: set[Face] = set()
    for f in sorted({face_of(f) for f in facet_list}, key=len, reverse=True):
        if f not in faces:
            faces.update(subsets_of(f))
    return SimplicialComplex(frozenset(faces))


def f_vector(x: ComplexOrFamily) -> tuple[int, ...]:
    """Face counts by cardinality; entry i counts faces of i vertices."""
    counts = [0] * (x.dim + 2)
    for f in x.faces:
        counts[len(f)] += 1
    return tuple(counts)


def h_from_f(f: tuple[int, ...]) -> tuple[int, ...]:
    """Binomial transform sending a face-count vector to an h-vector."""
    d = len(f) - 2
    return tuple(
        sum((-1) ** (i - j) * comb(d + 1 - j, i - j) * f[j] for j in range(i + 1))
        for i in range(d + 2))


def h_vector(x: ComplexOrFamily) -> tuple[int, ...]:
    return h_from_f(f_vector(x))


def skeleton(c: SimplicialComplex, r: int) -> SimplicialComplex:
    """The subcomplex of all faces of dimension at most ``r``."""
    if r < -1:
        raise InvalidParameters(f"skeleton dimension must be >= -1, got {r}")
    if r >= c.dim:
        return c
    return SimplicialComplex(frozenset(f for f in c.faces if len(f) <= r + 1))


def _facet_sizes(members) -> dict[Face, int]:
    """Map each member to the size of the largest member containing it.
    Members are visited by decreasing size; one not yet reached is maximal
    and passes its size to its unreached subsets that are members."""
    sizes: dict[Face, int] = {}
    for top in sorted(members, key=len, reverse=True):
        if top not in sizes:
            # A wide top in a sparse family: scanning the members is cheaper.
            below = subsets_of(top) if 2 ** len(top) <= len(members) else (
                s for s in members if s <= top)
            for s in below:
                if s not in sizes and s in members:
                    sizes[s] = len(top)
    return sizes


def _mask_facet_sizes(masks) -> dict[int, int]:
    """:func:`_facet_sizes` of a face set closed under subsets, given as
    masks.  Faces are visited by decreasing size; one not yet reached is
    maximal and passes its size to its unreached subsets, which are all
    faces of the set."""
    sizes: dict[int, int] = {}
    reach = sizes.setdefault
    for top in sorted(masks, key=int.bit_count, reverse=True):
        if top not in sizes:
            size = top.bit_count()
            for s in _submasks(top):
                reach(s, size)
    return sizes


def _mask_f_vector(masks: Iterable[int], d: int) -> tuple[int, ...]:
    """:func:`f_vector` of a family of dimension ``d`` given as masks."""
    counts = [0] * (d + 2)
    for size, n in Counter(map(int.bit_count, masks)).items():
        counts[size] = n
    return tuple(counts)


def _mask_layers(sizes: dict[int, int]) -> Counter:
    """Counts of the masks of a facet-size map by (facet size, own size)."""
    return Counter(zip(sizes.values(), map(int.bit_count, sizes)))


def _f_triangle(layers: Counter, d: int) -> tuple[tuple[int, ...], ...]:
    """The f-triangle of a family of ambient dimension ``d``, read from the
    counts of its members by (facet size, own size)."""
    rows = [[0] * (i + 1) for i in range(d + 2)]
    for (depth_size, size), n in layers.items():
        rows[depth_size][size] = n
    return tuple(tuple(row) for row in rows)


def f_triangle(x: ComplexOrFamily) -> tuple[tuple[int, ...], ...]:
    """Face counts refined by (largest containing face size, own size).

    Row i lists, by cardinality j, the faces whose largest containing
    member has i vertices.  Column sums reproduce the f-vector.
    """
    sizes = _facet_sizes(x.faces)
    return _f_triangle(Counter(zip(sizes.values(), map(len, sizes))), x.dim)


def _h_from_f_triangle(f_tri: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Row-wise binomial transform of an f-triangle."""
    return tuple(
        tuple(
            sum((-1) ** (j - k) * comb(i - k, j - k) * row[k] for k in range(j + 1))
            for j in range(i + 1))
        for i, row in enumerate(f_tri))


def h_triangle(x: ComplexOrFamily) -> tuple[tuple[int, ...], ...]:
    """Row-wise binomial transform of the f-triangle."""
    return _h_from_f_triangle(f_triangle(x))


def relative_family(big: SimplicialComplex, small: SimplicialComplex) -> FaceFamily:
    """Faces of ``big`` not in ``small``, with ``big``'s dimension, after
    checking that ``small`` lies in ``big``."""
    if not small.faces <= big.faces:
        extra = min(small.faces - big.faces, key=face_key)
        raise NotASubcomplex(
            f"face {format_face(extra)} of the subcomplex is missing from the "
            f"ambient complex")
    return FaceFamily(big.faces - small.faces, big.dim)


def pair_family(
    big: SimplicialComplex, small: Optional[SimplicialComplex]
) -> ComplexOrFamily:
    """``big`` itself when ``small`` is None, else the relative family of
    the pair; either way its ``dim`` is ``big``'s."""
    return big if small is None else relative_family(big, small)
