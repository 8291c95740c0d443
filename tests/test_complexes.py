import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from extenders import (
    FaceFamily,
    InvalidParameters,
    NotASubcomplex,
    SizeLimitExceeded,
    build_complex,
    f_triangle,
    f_vector,
    h_triangle,
    h_vector,
    partition_extender,
    relative_family,
    skeleton,
)
from extenders import complexes
from extenders.complexes import SimplicialComplex, _mask_view, face_key
from _oracles import complex_pairs, link_by_definition, poly_h, small_complexes, subsets_of

fs = frozenset

BOWTIE = build_complex([[1, 2, 3], [3, 4, 5]])
BOWTIE_LID = build_complex([[1, 2, 3], [3, 4, 5], [2, 3, 4]])
TRIANGLE_BOUNDARY = build_complex([[1, 2], [1, 3], [2, 3]])
SQUARE_TAIL = build_complex([[1, 2], [2, 3], [3, 4], [2, 4]])


def test_build_downward_closure():
    assert len(SQUARE_TAIL.faces) == 9
    assert fs() in SQUARE_TAIL.faces
    assert fs([2, 4]) in SQUARE_TAIL.facets


def test_build_void_and_irrelevant():
    void = build_complex([])
    assert void.faces == fs() and void.facets == fs()
    assert void.is_void
    irrelevant = build_complex([[]])
    assert irrelevant.faces == {fs()}
    assert not irrelevant.is_void
    assert irrelevant.dim == -1


def test_build_discards_non_maximal():
    c = build_complex([[1, 2], [1]])
    assert c.facets == {fs([1, 2])}


@settings(max_examples=60)
@given(small_complexes())
def test_closure_and_facet_invariants(c):
    for face in c.faces:
        for v in face:
            assert face - {v} in c.faces
    maximal = {f for f in c.faces if not any(f < g for g in c.faces)}
    assert c.facets == maximal


@st.composite
def candidate_lists(draw):
    """Candidate facets with repeats, candidates nested in others, and
    possibly the empty candidate; the list itself may be empty."""
    drawn = draw(st.lists(st.lists(st.integers(0, 7), max_size=5), max_size=5))
    nested = [draw(st.lists(st.sampled_from(f), max_size=len(f))) for f in drawn if f]
    repeated = draw(st.lists(st.sampled_from(drawn), max_size=2)) if drawn else []
    empty = draw(st.sampled_from([[], [[]]]))
    return draw(st.permutations(drawn + nested + repeated + empty))


@settings(max_examples=200, deadline=None)
@given(candidate_lists())
def test_build_complex_closes_candidates_with_their_mask_view(candidates):
    c = build_complex(candidates)
    closure = {s for f in candidates for s in subsets_of(fs(f))}
    assert c.faces == closure
    assert c.facets == {f for f in closure if not any(f < g for g in closure)}
    # The view made with the complex is the one its faces would be read into.
    view, fresh = vars(c)["_view"], _mask_view(c)
    assert view.codec.labels == fresh.codec.labels and view.masks == fresh.masks
    assert set(view.codec.face) == view.masks
    assert all(view.codec.face[m] == fresh.codec.face[m] for m in view.masks)


@settings(max_examples=200, deadline=None)
@given(candidate_lists())
@example([])
@example([[]])
def test_complexes_are_born_with_their_facets(candidates):
    c = build_complex(candidates)
    assert "facets" in vars(c)  # written at birth, not derived on first read
    maximal = {f for f in c.faces if not any(f < g for g in c.faces)}
    assert c.facets == maximal == SimplicialComplex(c.faces).facets


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8, unique=True), st.data())
def test_face_orders_are_read_off_masks(labels, data):
    # The codec sorts labels given in any order, so both label orders of
    # faces, the empty face included, are read off the masks alone.
    assert complexes._MaskCodec([3, 1, 2]).labels == [1, 2, 3]
    codec = complexes._MaskCodec(labels)
    assert codec.labels == sorted(labels)
    faces = data.draw(st.sets(st.frozensets(st.sampled_from(labels), max_size=4), max_size=12))
    masks = [codec.mask(f) for f in faces | {fs()}]
    decoded = [codec.face[m] for m in masks]
    assert [codec.face[m] for m in complexes._face_order(masks)] \
        == sorted(decoded, key=face_key)
    assert [codec.face[m] for m in sorted(masks, key=complexes._label_key, reverse=True)] \
        == sorted(decoded, key=sorted)


def test_closure_bound_is_on_each_candidate_listing(monkeypatch):
    # Each candidate may list up to the bound, however many candidates.
    monkeypatch.setattr(complexes, "_MAX_LISTED", 8)
    assert len(build_complex([[1, 2, 3], [3, 4, 5], [5, 6, 7]]).faces) == 20
    with pytest.raises(SizeLimitExceeded) as refused:
        build_complex([[1, 2], [1, 2, 3, 4]])
    assert (refused.value.limit, refused.value.parameter) == (8, None)


def test_closure_lists_each_face_once(monkeypatch):
    # The 2-skeleton of the simplex on 9 vertices, built from its 84
    # triangles, has 130 faces; a closure that listed every subset of every
    # candidate would write 84 * 8 = 672.
    writes = []

    class Counted(complexes._Faces):
        def __setitem__(self, mask, face):
            writes.append(mask)
            super().__setitem__(mask, face)

        def update(self, pairs):
            for mask, face in pairs:
                self[mask] = face

    monkeypatch.setattr(complexes, "_Faces", Counted)
    sigma = build_complex([[a, b, c] for a in range(9) for b in range(a) for c in range(b)])
    assert len(sigma.faces) == 130
    assert sorted(writes) == sorted(sigma._view.masks)


def _check_facets_and_dim(c):
    """Facets and dimension against their literal definitions: the faces
    with no proper superset, and the largest face size minus one."""
    assert c.facets == {f for f in c.faces if not any(f < g for g in c.faces)}
    assert c.dim == max((len(f) for f in c.faces), default=0) - 1


@settings(max_examples=60, deadline=None)
@given(small_complexes(min_facets=1), small_complexes(min_facets=1))
def test_facets_and_dim_match_definition(c, other):
    _check_facets_and_dim(c)
    for s in c.faces:
        _check_facets_and_dim(SimplicialComplex(frozenset(link_by_definition(c, s))))
    for r in range(-1, c.dim + 1):
        _check_facets_and_dim(skeleton(c, r))
    # Shared labels can absorb a facet of either side.
    _check_facets_and_dim(build_complex(c.facets | other.facets))


@pytest.mark.parametrize("d, k", [(d, k) for d in range(4) for k in range(-1, d + 1)])
def test_gadget_facets_and_dim_match_definition(d, k):
    _check_facets_and_dim(partition_extender(d, k).complex)


def test_f_vector_golden():
    assert f_vector(BOWTIE) == (1, 5, 6, 2)
    assert f_vector(BOWTIE_LID) == (1, 5, 7, 3)
    assert f_vector(relative_family(BOWTIE_LID, BOWTIE)) == (0, 0, 1, 1)
    assert f_vector(build_complex([])) == (0,)
    assert f_vector(build_complex([[]])) == (1,)


def test_h_vector_golden():
    assert h_vector(BOWTIE) == (1, 2, -1, 0)
    assert h_vector(BOWTIE_LID) == (1, 2, 0, 0)
    assert h_vector(relative_family(BOWTIE_LID, BOWTIE)) == (0, 0, 1, 0)
    assert h_vector(build_complex([[1, 2, 3]])) == (1, 0, 0, 0)
    k4_plus_edges = build_complex(
        [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4], [5, 6], [7, 8]])
    assert h_vector(k4_plus_edges) == (1, 6, 1)


@settings(max_examples=100)
@given(small_complexes())
def test_h_matches_polynomial_definition(c):
    assert h_vector(c) == poly_h(f_vector(c))


@settings(max_examples=60)
@given(small_complexes(min_facets=1))
def test_relative_additivity(big):
    small = build_complex([max(big.facets, key=face_key)])  # a top facet keeps the dimension
    assert small.dim == big.dim
    fam = relative_family(big, small)
    assert tuple(a + b for a, b in zip(f_vector(fam), f_vector(small))) == f_vector(big)
    assert tuple(a + b for a, b in zip(h_vector(fam), h_vector(small))) == h_vector(big)


def test_skeleton_of_simplex():
    simplex5 = build_complex([[1, 2, 3, 4, 5]])
    assert f_vector(skeleton(simplex5, 2)) == (1, 5, 10, 10)


def test_skeleton_edges():
    assert skeleton(BOWTIE, -1) == build_complex([[]])
    assert f_vector(skeleton(BOWTIE, 1)) == (1, 5, 6)
    assert skeleton(BOWTIE, 5) == BOWTIE
    with pytest.raises(InvalidParameters, match=r"^skeleton dimension must be >= -1, got -2$"):
        skeleton(BOWTIE, -2)
    for r, shown in ((0.5, "0.5"), (1.0, "1.0"), (True, "True"), ("1", "'1'")):
        with pytest.raises(InvalidParameters,
                           match=rf"^skeleton dimension must be an integer, got {shown}$"):
            skeleton(BOWTIE, r)


def test_family_dimension_below_a_member_is_refused():
    with pytest.raises(InvalidParameters,
                       match=r"^ambient dimension 1 is below a member of dimension 2$"):
        FaceFamily(frozenset({fs({1, 2, 3})}), 1)


def test_f_triangle_edge_plus_vertex():
    tri = f_triangle(build_complex([[1, 2], [3]]))
    assert tri == ((0,), (0, 1), (1, 2, 1))


def test_f_triangle_triangle_plus_vertex():
    tri = f_triangle(build_complex([[1, 2], [1, 3], [2, 3], [4]]))
    assert tri == ((0,), (0, 1), (1, 3, 3))


def test_f_triangle_sparse_family_with_wide_member():
    # 2**40 subsets of the wide member must not be walked for two members.
    wide = frozenset(range(40))
    tri = f_triangle(FaceFamily(frozenset({wide, frozenset([1])}), 39))
    assert tri[40][40] == 1 and tri[40][1] == 1
    assert sum(map(sum, tri)) == 2


@settings(max_examples=60)
@given(small_complexes(min_facets=1))
def test_f_triangle_columns_sum_to_f_vector(c):
    tri = f_triangle(c)
    f = f_vector(c)
    for j in range(len(f)):
        assert sum(row[j] for row in tri if j < len(row)) == f[j]


def test_h_triangle_edge_plus_vertex():
    tri = h_triangle(build_complex([[1, 2], [3]]))
    assert tri == ((0,), (0, 1), (1, 0, 0))


def test_h_triangle_triangle_plus_vertex():
    tri = h_triangle(build_complex([[1, 2], [1, 3], [2, 3], [4]]))
    assert tri == ((0,), (0, 1), (1, 1, 1))


@settings(max_examples=60)
@given(small_complexes(min_facets=1))
def test_pure_h_triangle_concentrates_in_top_row(c):
    pure = build_complex([f for f in c.facets if len(f) == c.dim + 1])
    tri = h_triangle(pure)
    assert tri[-1] == h_vector(pure)
    assert all(all(v == 0 for v in row) for row in tri[:-1])


def test_relative_family_golden():
    fam = relative_family(BOWTIE_LID, BOWTIE)
    assert fam.faces == {fs([2, 3, 4]), fs([2, 4])}
    assert relative_family(BOWTIE, BOWTIE).faces == fs()
    fam2 = relative_family(build_complex([[1, 2, 3]]), build_complex([[1, 2]]))
    assert fam2.faces == {fs([3]), fs([1, 3]), fs([2, 3]), fs([1, 2, 3])}


@settings(max_examples=60)
@given(complex_pairs())
def test_relative_family_reads_through_its_complexs_codec(pair):
    big, small = pair
    labels = list(big._view.codec.labels)
    fam = relative_family(big, small)
    codec = fam._view.codec
    assert codec is big._view.codec and codec.labels == labels
    assert {codec.face[m] for m in fam._view.masks} == fam.faces


def test_relative_family_requires_subcomplex():
    with pytest.raises(NotASubcomplex):
        relative_family(BOWTIE, build_complex([[1, 6]]))
