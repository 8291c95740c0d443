import pytest
from hypothesis import given, settings

from extenders import (
    AlreadyPresent,
    FaceFamily,
    FaceNotPresent,
    InconsistentIdentification,
    NotASubcomplex,
    adjoin_face,
    build_complex,
    f_from_h,
    f_triangle,
    f_vector,
    facet_depth,
    glue,
    h_triangle,
    h_vector,
    link,
    partition_extender,
    relative_family,
    skeleton,
)
from _oracles import link_by_definition, poly_h, small_complexes

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
        _check_facets_and_dim(link(c, s))
    for r in range(-1, c.dim + 1):
        _check_facets_and_dim(skeleton(c, r))
    _check_facets_and_dim(glue(c, other, {}))
    # Identifying one vertex can absorb a facet of either side.
    _check_facets_and_dim(glue(c, other, {min(other.vertices): min(c.vertices)}))


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


@settings(max_examples=100)
@given(small_complexes())
def test_f_h_round_trip(c):
    assert f_from_h(h_vector(c)) == f_vector(c)


@settings(max_examples=60)
@given(small_complexes(min_facets=1))
def test_relative_additivity(big):
    facets = big.sorted_facets()
    small = build_complex(facets[-1:])  # keep a top facet so dimensions agree
    assert small.dim == big.dim
    fam = relative_family(big, small)
    assert tuple(a + b for a, b in zip(f_vector(fam), f_vector(small))) == f_vector(big)
    assert tuple(a + b for a, b in zip(h_vector(fam), h_vector(small))) == h_vector(big)


def test_link_of_apex():
    assert link(BOWTIE, [3]) == build_complex([[1, 2], [4, 5]])


def test_link_identity_and_simplex():
    assert link(BOWTIE, []) == BOWTIE
    assert link(build_complex([[1, 2, 3]]), [1]) == build_complex([[2, 3]])


def test_link_missing_face():
    with pytest.raises(FaceNotPresent):
        link(BOWTIE, [1, 4])


@settings(max_examples=60)
@given(small_complexes(min_facets=1))
def test_link_matches_definition(c):
    for s in c.sorted_faces():
        assert link(c, s).faces == link_by_definition(c, s)


def test_skeleton_of_simplex():
    simplex5 = build_complex([[1, 2, 3, 4, 5]])
    assert f_vector(skeleton(simplex5, 2)) == (1, 5, 10, 10)


def test_skeleton_edges():
    assert skeleton(BOWTIE, -1) == build_complex([[]])
    assert f_vector(skeleton(BOWTIE, 1)) == (1, 5, 6)
    assert skeleton(BOWTIE, 5) == BOWTIE


def test_facet_depth():
    c = build_complex([[1, 2], [3]])
    assert facet_depth(c, [3]) == 0
    assert facet_depth(c, []) == 1
    assert facet_depth(BOWTIE, [3, 4]) == 2
    with pytest.raises(FaceNotPresent):
        facet_depth(c, [1, 3])


def test_facet_depth_on_family():
    fam = FaceFamily(fs([fs([2]), fs([2, 3]), fs([4])]), 1)
    assert facet_depth(fam, [2]) == 1
    assert facet_depth(fam, [4]) == 0
    with pytest.raises(FaceNotPresent):
        facet_depth(fam, [3])


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
    facets = c.sorted_facets()
    pure = build_complex([f for f in facets if len(f) == len(facets[-1])])
    tri = h_triangle(pure)
    assert tri[-1] == h_vector(pure)
    assert all(all(v == 0 for v in row) for row in tri[:-1])


def test_relative_family_golden():
    fam = relative_family(BOWTIE_LID, BOWTIE)
    assert fam.faces == {fs([2, 3, 4]), fs([2, 4])}
    assert relative_family(BOWTIE, BOWTIE).faces == fs()
    fam2 = relative_family(build_complex([[1, 2, 3]]), build_complex([[1, 2]]))
    assert fam2.faces == {fs([3]), fs([1, 3]), fs([2, 3]), fs([1, 2, 3])}


def test_relative_family_requires_subcomplex():
    with pytest.raises(NotASubcomplex):
        relative_family(BOWTIE, build_complex([[1, 6]]))


def test_adjoin_face():
    base = build_complex([[1, 2], [2, 3], [3, 4], [2, 4]])
    fam = relative_family(base, build_complex([[1, 2]]))
    grown = adjoin_face(fam, [2])
    assert grown.faces == {fs([2]), fs([3]), fs([4]),
                           fs([2, 3]), fs([3, 4]), fs([2, 4])}
    assert adjoin_face(FaceFamily(fs(), -1), []).faces == {fs()}
    singleton = adjoin_face(
        relative_family(build_complex([[1, 2, 3]]), build_complex([[1, 2, 3]])),
        [1, 2])
    assert singleton.faces == {fs([1, 2])}
    with pytest.raises(AlreadyPresent):
        adjoin_face(grown, [3])


def test_glue_triangle_boundary_onto_edge():
    host = build_complex([[5, 6]])
    guest = build_complex([[1, 2], [1, 3], [2, 3]])
    combined = glue(host, guest, {3: 5, 2: 6})
    assert combined == build_complex([[5, 6], [5, 7], [6, 7]])


def test_glue_absorbed_and_disjoint():
    host = build_complex([[1, 2, 3]])
    guest = build_complex([[1, 2]])
    assert glue(host, guest, {1: 1, 2: 2}) == host
    disjoint = glue(host, build_complex([[1, 2]]), {})
    assert disjoint == build_complex([[1, 2, 3], [4, 5]])


def test_glue_determinism():
    host = build_complex([[5, 6]])
    guest = build_complex([[1, 2], [1, 3], [2, 3]])
    first = glue(host, guest, {3: 5, 2: 6})
    second = glue(host, guest, {3: 5, 2: 6})
    assert first == second


def test_glue_rejects_bad_identification():
    host = build_complex([[1, 2], [3, 4]])
    guest = build_complex([[1, 2, 3]])
    with pytest.raises(InconsistentIdentification):
        glue(host, guest, {1: 1, 2: 3})  # edge 12 would land on non-face {1,3}
    with pytest.raises(InconsistentIdentification):
        glue(host, guest, {1: 1, 2: 1})  # not injective
