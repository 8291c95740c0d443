"""Simplicial complexes, face families, and their counting statistics.

A face is a frozenset of nonnegative integer vertex labels; the empty
frozenset is the empty face, of dimension -1.  A complex is its face set,
which is closed under subsets; its facets and dimension are derived from
the faces in one place and cached, and :func:`build_complex` writes the
facets in as it closes the candidates.  A face family is an arbitrary finite
set of faces with an explicit dimension; it holds a relative complex
(Gamma, Delta), or any family that is not closed under subsets.  Both
expose ``faces`` and ``dim``, the only two things every statistic reads.
:func:`relative_family` is the one place that relates a subcomplex to its
complex, and checks that the subcomplex lies in it.

Every public value here is immutable and every public operation is a pure
function, so results can be shared freely between concurrent tasks.

Inside the construction and verification core a face is an ``int`` mask
over densely relabelled vertices: bit i stands for the i-th smallest
label, so label order is bit order and faces are ordered on their
masks, by :func:`_face_order` and :func:`_label_key` only.  A set's
cached mask view is the one place that crosses between its frozensets
and masks: every algorithm reads its faces there, and decodes a face
only to return or name it.  The view is made
with the set by :func:`build_complex`, and by :func:`relative_family` on
the complex's codec, so a pair is encoded once; a set made by hand is
read into one on first use (:func:`_mask_view`).  The view also owns the
set's facet-size map.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Iterator, Optional, Union

from .errors import InvalidParameters, NotASubcomplex, SizeLimitExceeded

Face = frozenset


def _integer(value) -> bool:
    """Whether ``value`` is an ``int`` and not a ``bool``: the rule every
    integer parameter and label of the package is held to."""
    return isinstance(value, int) and not isinstance(value, bool)


def face_of(labels: Iterable[int]) -> Face:
    """Normalize an iterable of vertex labels into a face."""
    f = frozenset(labels)
    for v in f:
        if not _integer(v) or v < 0:
            raise InvalidParameters(
                f"vertex labels must be nonnegative integers, got {v!r}")
    return f


def face_key(face: Face) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key: by cardinality, then lexicographically."""
    return (len(face), tuple(sorted(face)))


def format_face(face: Face) -> str:
    return "{" + ",".join(map(str, sorted(face))) + "}"


def _face_order(masks) -> list:
    """Masks in :func:`face_key` order, over labels that rise with their
    bits: by size, then first the face that holds the lowest differing
    bit.  The key stays inline, as the link walk sorts every view by it."""
    return sorted(masks, key=lambda m: (-m.bit_count(), bin(m)[:1:-1]), reverse=True)


def _label_key(mask: int) -> str:
    """A mask's bits from the lowest up, then "2".  Over labels that rise
    with their bits, these keys sort in reverse as the sorted labels do: a
    label list comes before its extensions, and a lower next label first."""
    return bin(mask)[:1:-1] + "2" if mask else "2"


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

    def __init__(self, labels: list, faces=()):
        super().__init__(faces)
        self.labels = labels

    def __missing__(self, mask: int) -> Face:
        labels = self.labels
        self[mask] = face = frozenset(labels[b.bit_length() - 1] for b in _bit_values(mask))
        return face


class _MaskCodec:
    """Faces as masks over a label list, and back.

    ``labels[i]`` is the label of bit i, sorted by the constructor; only
    fresh labels, which rise, and foreign ones, which no member holds, are
    appended later.  Each mask is turned into its frozenset once, through
    ``face``, which a caller may also fill in bulk.
    """

    def __init__(self, labels: Iterable[int], faces=()):
        self.labels = sorted(labels)
        self.bit = {v: 1 << i for i, v in enumerate(self.labels)}
        self.face = _Faces(self.labels, faces)

    def extended(self, labels: Iterable[int]) -> "_MaskCodec":
        """A copy, decode table included, with ``labels`` appended."""
        copy = _MaskCodec((), self.face)  # appended, not sorted, so no bit moves
        copy.extend([*self.labels, *labels])
        return copy

    def extend(self, labels: Iterable[int]) -> None:
        for v in labels:
            self.bit[v] = 1 << len(self.labels)
            self.labels.append(v)

    def mask(self, face: Iterable[int]) -> int:
        return sum(map(self.bit.__getitem__, face))

    def name(self, mask: int) -> str:
        return format_face(self.face[mask])


class _MaskView:
    """A face set as masks: ``codec`` over sorted labels, its decode table
    holding the set's frozensets, and ``masks``.  The codec is shared by a
    complex and its relative families, so it is never extended.  ``sizes``
    is the facet-size map, built on first read, or the ``ambient`` view's:
    a relative family's is its complex's, since a face over a member is not
    in the subcomplex.  So readers look members up, never walk the keys."""

    def __init__(self, codec: _MaskCodec, masks, ambient: Optional["_MaskView"] = None):
        self.codec, self.masks, self.ambient = codec, masks, ambient

    @cached_property
    def sizes(self) -> dict[int, int]:
        return self.ambient.sizes if self.ambient else _facet_sizes(self.masks)

    def reading(self, labels: Iterable[int]) -> _MaskCodec:
        """The codec, or a copy extended by the ``labels`` it lacks, sorted."""
        extra = set(labels).difference(self.codec.bit)
        return self.codec.extended(sorted(extra)) if extra else self.codec


def _mask_view(x: "ComplexOrFamily") -> _MaskView:
    """The mask view of ``x``'s faces, cached on ``x`` as ``x._view``."""
    codec = _MaskCodec(set().union(*x.faces))
    codec.face.update((codec.mask(f), f) for f in x.faces)
    return _MaskView(codec, frozenset(codec.face))


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite simplicial complex, held as its face set, which is closed
    under subsets.  Facets and dimension are derived from the faces.

    The void complex has ``facets == faces == frozenset()``; the complex
    whose only face is the empty face has ``facets == {frozenset()}``.
    Both report dimension -1.
    """

    faces: frozenset
    _view = cached_property(_mask_view)

    @cached_property
    def facets(self) -> frozenset:
        """Faces whose mask is no other's less one bit; in a closed set, the
        maximal faces.  A built complex has them from birth."""
        masks, face = self._view.masks, self._view.codec.face
        return frozenset(map(face.__getitem__, masks.difference(
            t ^ b for t in masks for b in _bit_values(t))))

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


@dataclass(frozen=True)
class FaceFamily:
    """A finite set of faces ordered by inclusion.

    Unlike a complex, a family need not be closed under subsets, so
    statistics that depend on the ambient dimension cannot be derived
    from its faces alone; ``dim`` supplies it.
    """

    faces: frozenset
    dim: int
    _view = cached_property(_mask_view)

    def __post_init__(self):
        top = max((len(f) for f in self.faces), default=0) - 1
        if self.dim < top:
            raise InvalidParameters(
                f"ambient dimension {self.dim} is below a member of "
                f"dimension {top}")


ComplexOrFamily = Union[SimplicialComplex, FaceFamily]


_MAX_LISTED = 1 << 18  # the most subsets one candidate may list: 18 vertices


def build_complex(facet_list: Iterable[Iterable[int]]) -> SimplicialComplex:
    """The complex the candidate facets generate, made with its mask view;
    each candidate's labels are checked by :func:`face_of`."""
    return _build_checked(map(face_of, facet_list))


def _build_checked(faces: Iterable[Face]) -> SimplicialComplex:
    """:func:`build_complex` of candidate faces whose labels are already
    checked, such as a loaded file's or the (d + 1)-subsets of a
    complex's vertices.

    Candidates are closed on masks, largest first, and each face is listed
    once.  The first candidate lists all its subsets by doubling.  A later
    one not yet present is walked down, a vertex at a time, to the subsets
    not yet reached: the faces present are closed under subsets, so the
    walk stops at each of them.  A candidate not yet present lies in no
    earlier one, which is at least as large, so it is a facet: the facets
    are written into the complex with its view.  A candidate is refused
    before its listing if its 2^|F| subsets would pass ``_MAX_LISTED``."""
    candidates = sorted(set(faces), key=len, reverse=True)
    codec = _MaskCodec(set().union(*candidates))
    face, bit, facets = codec.face, codec.bit, []
    for f in candidates:
        top = codec.mask(f)
        if top in face:
            continue
        facets.append(f)
        if 1 << len(f) > _MAX_LISTED:
            raise SizeLimitExceeded(f"a facet of {len(f)} vertices has 2^{len(f)} faces, "
                                    f"above the closure bound of {_MAX_LISTED}", _MAX_LISTED)
        if face:
            face[top] = f
            reached = [top]
            for m in reached:  # grows as the walk reaches new faces
                whole = face[m]
                for v in whole:
                    sub = m ^ bit[v]
                    if sub not in face:
                        face[sub] = whole - {v}
                        reached.append(sub)
        else:  # every subset is new, and doubling is the cheaper listing of them all
            masks, faces = [0], [frozenset()]
            for v in f:
                b, one = bit[v], frozenset((v,))
                masks += [m | b for m in masks]
                faces += [s | one for s in faces]
            face.update(zip(masks, faces))
    c = SimplicialComplex(frozenset(face.values()))
    vars(c).update(_view=_MaskView(codec, frozenset(face)), facets=frozenset(facets))
    return c


def f_vector(x: ComplexOrFamily) -> tuple[int, ...]:
    """Face counts by cardinality; entry i counts faces of i vertices."""
    counts = [0] * (x.dim + 2)
    for size, n in Counter(map(len, x.faces)).items():
        counts[size] = n
    return tuple(counts)


def h_from_f(f: tuple[int, ...]) -> tuple[int, ...]:
    """Binomial transform sending a face-count vector to an h-vector, with
    n = len(f) - 1; so it also sends row n of an f-triangle, which has
    n + 1 entries, to row n of the h-triangle."""
    n = len(f) - 1
    return tuple(
        sum((-1) ** (i - j) * comb(n - j, i - j) * f[j] for j in range(i + 1))
        for i in range(n + 1))


def h_vector(x: ComplexOrFamily) -> tuple[int, ...]:
    return h_from_f(f_vector(x))


def skeleton(c: SimplicialComplex, r: int) -> SimplicialComplex:
    """The subcomplex of all faces of dimension at most ``r``."""
    if not _integer(r):
        raise InvalidParameters(f"skeleton dimension must be an integer, got {r!r}")
    if r < -1:
        raise InvalidParameters(f"skeleton dimension must be >= -1, got {r}")
    if r >= c.dim:
        return c
    return SimplicialComplex(frozenset(f for f in c.faces if len(f) <= r + 1))


def _facet_sizes(masks) -> dict[int, int]:
    """Map each member mask to the size of the largest member containing it.

    Members are visited by decreasing size; one not yet reached is maximal
    and passes its size to its unreached submasks, or, for a wide top in a
    sparse family, to the members under it.  A walk may reach faces that
    are not members; only then is the map restricted to the members, to
    bound its size, since readers look members up and never walk its keys."""
    sizes: dict[int, int] = {}
    reach = sizes.setdefault
    for top in sorted(masks, key=int.bit_count, reverse=True):
        if top not in sizes:
            size = top.bit_count()
            below = _submasks(top) if 1 << size <= len(masks) else (
                s for s in masks if s & top == s)
            for s in below:
                reach(s, size)
    if len(sizes) > len(masks):
        return {m: sizes[m] for m in masks}
    return sizes


def f_triangle(x: ComplexOrFamily) -> tuple[tuple[int, ...], ...]:
    """Face counts refined by (largest containing face size, own size).

    Row i lists, by cardinality j, the faces whose largest containing
    member has i vertices.  Column sums reproduce the f-vector.
    """
    masks, sizes = x._view.masks, x._view.sizes
    rows = [[0] * (i + 1) for i in range(x.dim + 2)]
    for (depth_size, size), n in Counter(
            zip(map(sizes.__getitem__, masks), map(int.bit_count, masks))).items():
        rows[depth_size][size] = n
    return tuple(tuple(row) for row in rows)


def h_triangle(x: ComplexOrFamily) -> tuple[tuple[int, ...], ...]:
    """:func:`h_from_f` applied to each row of the f-triangle."""
    return tuple(map(h_from_f, f_triangle(x)))


def relative_family(big: SimplicialComplex, small: SimplicialComplex) -> FaceFamily:
    """Faces of ``big`` not in ``small``, with ``big``'s dimension, after
    checking that ``small`` lies in ``big``.

    The family's mask view is written into it here, once: ``big``'s codec,
    shared, and ``big``'s masks less ``small``'s.  So a member's mask is
    the same int in both views, which the shelling steps and the link walk
    rely on."""
    if not small.faces <= big.faces:
        extra = min(small.faces - big.faces, key=face_key)
        raise NotASubcomplex(
            f"face {format_face(extra)} of the subcomplex is missing from the "
            f"ambient complex")
    fam = FaceFamily(big.faces - small.faces, big.dim)
    view = big._view
    vars(fam)["_view"] = _MaskView(
        view.codec, view.masks.difference(map(view.codec.mask, small.faces)), view)
    return fam


def pair_family(
    big: SimplicialComplex, small: Optional[SimplicialComplex]
) -> ComplexOrFamily:
    """``big`` itself when ``small`` is None, else the relative family of
    the pair; either way its ``dim`` is ``big``'s."""
    return big if small is None else relative_family(big, small)
