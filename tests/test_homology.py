import random
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from extenders import (
    CmExtender,
    FieldSpec,
    HomologyProfile,
    InternalCheckError,
    InvalidParameters,
    NoExtender,
    NotAPermutation,
    NotASubcomplex,
    VoidComplex,
    build_complex,
    check_shelling_order,
    cm_extender,
    depth,
    f_vector,
    find_shelling,
    is_cohen_macaulay,
    is_relative_cm,
    reduced_betti,
    relative_betti,
    relative_family,
    skeleton,
)
from extenders import complexes, homology
from extenders.complexes import _MaskCodec
from extenders.homology import matrix_rank
from _oracles import (
    DENSE_RANKS,
    betti_by_elimination,
    complex_pairs,
    depth_and_witness_by_definition,
    relative_cm_by_definition,
    euler_from_betti,
    euler_from_f,
    link_by_definition,
    rank_mod,
    small_complexes,
)

fs = frozenset

TRIANGLE_BOUNDARY = build_complex([[1, 2], [1, 3], [2, 3]])
BOWTIE = build_complex([[1, 2, 3], [3, 4, 5]])
BOWTIE_LID = build_complex([[1, 2, 3], [3, 4, 5], [2, 3, 4]])
TWO_TRIANGLES = build_complex([[1, 2, 3], [4, 5, 6]])
TETRA_BOUNDARY = build_complex([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
# Closed non-orientable surface on six vertices; its first homology has
# 2-torsion, so ranks differ between characteristic 0 and 2.
PROJECTIVE_PLANE = build_complex(
    [[1, 2, 5], [1, 2, 6], [1, 3, 4], [1, 3, 6], [1, 4, 5],
     [2, 3, 4], [2, 3, 5], [2, 4, 6], [3, 5, 6], [4, 5, 6]])

GF2 = FieldSpec(2)


def test_field_spec_validation():
    FieldSpec(0)
    FieldSpec(7)
    FieldSpec(2 ** 31 - 1)
    for bad in (6, 1, -3, 2 ** 31, 2 ** 61 - 1, 2.0, "2", None, 0.0, False):
        with pytest.raises(InvalidParameters):
            FieldSpec(bad)


def test_reduced_betti_circle():
    assert reduced_betti(TRIANGLE_BOUNDARY).betti == (0, 0, 1)


def test_reduced_betti_irrelevant_complex():
    assert reduced_betti(build_complex([[]])).betti == (1,)


def test_reduced_betti_two_filled_triangles():
    assert reduced_betti(TWO_TRIANGLES).betti == (0, 1, 0, 0)


def test_reduced_betti_sphere():
    assert reduced_betti(TETRA_BOUNDARY).betti == (0, 0, 0, 1)


def test_reduced_betti_void_rejected():
    with pytest.raises(VoidComplex):
        reduced_betti(build_complex([]))


def test_homology_report_serialization():
    from extenders import homology_report
    profile = reduced_betti(TRIANGLE_BOUNDARY)
    assert homology_report(profile, FieldSpec(0)) == {
        "field": 0, "betti": {"-1": 0, "0": 0, "1": 1}}


def test_torsion_shows_up_only_in_characteristic_two():
    over_q = reduced_betti(PROJECTIVE_PLANE)
    over_f2 = reduced_betti(PROJECTIVE_PLANE, GF2)
    assert over_q.betti == (0, 0, 0, 0)
    assert over_f2.betti == (0, 0, 1, 1)
    assert euler_from_betti(over_q.betti) == euler_from_f(f_vector(PROJECTIVE_PLANE))
    assert euler_from_betti(over_f2.betti) == euler_from_f(f_vector(PROJECTIVE_PLANE))


@settings(max_examples=60, deadline=None)
@given(complex_pairs())
def test_betti_numbers_match_dense_elimination(pair):
    big, small = pair
    for p, rank in DENSE_RANKS.items():
        field = FieldSpec(p)
        assert reduced_betti(big, field).betti \
            == betti_by_elimination(big.faces, big.dim + 2, rank)
        assert relative_betti(big, small, field).betti \
            == betti_by_elimination(big.faces - small.faces, big.dim + 2, rank)


@st.composite
def _matrices(draw):
    """Dense rows (1-6) of 1-8 columns drawn from a pool, so columns repeat
    and full row rank is often reached before the last column."""
    height = draw(st.integers(1, 6))
    column = st.lists(st.integers(-3, 3), min_size=height, max_size=height)
    pool = draw(st.lists(column, min_size=1, max_size=4))
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return [list(row) for row in zip(*chosen)]


@settings(max_examples=100, deadline=None)
@given(_matrices())
def test_matrix_rank_matches_dense_elimination(rows):
    columns = [{r: row[c] for r, row in enumerate(rows) if row[c]}
               for c in range(len(rows[0]))]
    for p, rank in {**DENSE_RANKS, 5: lambda m: rank_mod(m, 5)}.items():
        assert matrix_rank(columns, FieldSpec(p)) == rank(rows)
        assert matrix_rank(tuple(columns), FieldSpec(p)) == rank(rows)


@st.composite
def _sparse_matrices(draw):
    """Rows (1-10) of 1-12 columns, mostly zeros, with odd and even
    nonzeros."""
    height, width = draw(st.integers(1, 10)), draw(st.integers(1, 12))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, 3])
    return draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=height, max_size=height))


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices(), st.integers(0, 12))
def test_gf2_rank_matches_matrix_rank_and_dense_elimination(rows, cap):
    columns = [{r: row[c] for r, row in enumerate(rows) if row[c]}
               for c in range(len(rows[0]))]
    bits = [sum(1 << r for r, x in column.items() if x % 2) for column in columns]
    rank = DENSE_RANKS[2](rows)
    assert homology._gf2_rank(bits, len(bits)) == matrix_rank(columns, GF2) == rank
    assert homology._gf2_rank(iter(bits), cap) == min(rank, cap)  # columns read lazily


# Pairs whose rows lie outside the pair.  In the first, at the empty face,
# the edge {1, 2} joins two points of the subcomplex (a loop at the ground
# node), and the edges {1, 3} and {2, 4} join a point of the pair to it.
GROUNDED = [(build_complex([[1, 2, 3, 4]]), build_complex([[1], [2]])),
            (build_complex([[1, 2, 3, 4], [4, 5]]), build_complex([[1, 2], [5]])),
            (build_complex([[1, 2, 3], [2, 3, 4], [1, 4]]), build_complex([[2, 3], [4]])),
            (BOWTIE_LID, BOWTIE)]
# Links of dimension at most 0, which the walk counts: the edge {4, 5} is a
# facet of the subcomplex, so outside the pair; the vertex 4 is an isolated
# point of the subcomplex; the ridge {3, 4} has one cover, {2, 3, 4}, which
# lies in the subcomplex.
COUNTED = [(build_complex([[1, 2, 3], [4, 5]]), build_complex([[4, 5]])),
           (build_complex([[1, 2, 3], [4]]), build_complex([[4]])),
           (build_complex([[1, 2, 3], [2, 3, 4]]), build_complex([[2, 3, 4]]))]


@settings(max_examples=60, deadline=None)
@given(complex_pairs(labels=6, max_size=4))
@example(GROUNDED[0])
@example(GROUNDED[1])
@example(GROUNDED[2])
@example(GROUNDED[3])
@example(COUNTED[0])
@example(COUNTED[1])
@example(COUNTED[2])
@example((build_complex([[]]), build_complex([])))
@example((BOWTIE, BOWTIE))
def test_link_betti_matches_literal_links(pair):
    """Facets of up to 4 vertices give links of dimension 0, 1 and 2.  The
    walk ranks each edge block by XOR elimination (``_gf2_rank``) over
    every field, and counts links of dimension at most 0 off the star,
    with no rank."""
    big, small = pair
    order = sorted(big.faces, key=lambda f: (len(f), sorted(f)))
    for p, rank in DENSE_RANKS.items():
        walk = list(homology._link_betti(big, relative_family(big, small), FieldSpec(p)))
        assert [sigma for sigma, _ in walk] == order
        for sigma, betti in walk:
            lk = link_by_definition(big, sigma)
            levels = max(map(len, lk)) + 1
            if sigma in small.faces:
                lk -= link_by_definition(small, sigma)
            assert betti == betti_by_elimination(lk, levels, rank)


def test_graphs_make_no_matrix_rank_call(monkeypatch):
    # Every link of a complex of dimension at most 1 is settled by counts
    # and a spanning forest.
    def refused(*args):
        raise AssertionError(f"matrix_rank called with {args}")

    monkeypatch.setattr(homology, "matrix_rank", refused)
    cycle_and_tail = build_complex([[1, 2], [2, 3], [3, 4], [1, 4], [4, 5]])
    two_edges = build_complex([[1, 2], [3, 4]])
    for field in (FieldSpec(0), GF2, FieldSpec(3)):
        rank = DENSE_RANKS[field.characteristic]
        assert is_cohen_macaulay(cycle_and_tail, field)
        assert not is_cohen_macaulay(two_edges, field)
        assert (depth(cycle_and_tail, field), depth(two_edges, field)) == (2, 1)
        assert reduced_betti(cycle_and_tail, field).betti == (0, 0, 1)
        assert isinstance(cm_extender(cycle_and_tail, field), CmExtender)
        assert isinstance(cm_extender(two_edges, field), CmExtender)  # depth 1 = dim
        for big, small in [(cycle_and_tail, build_complex([[1, 2], [5]])),
                           (cycle_and_tail, build_complex([[]])),
                           (two_edges, build_complex([[1], [3, 4]]))]:
            expected = betti_by_elimination(big.faces - small.faces, 3, rank)
            assert relative_betti(big, small, field).betti == expected
            assert is_relative_cm(big, small, field) \
                == relative_cm_by_definition(big, small, rank)


def test_bowtie_ranks_only_faces_of_three_vertices_or_more(monkeypatch):
    # A block is ranked for link faces of two vertices or more, and only
    # the blocks of three go to matrix_rank, over an odd prime alone: over
    # Q every GF(2) rank of the bowtie meets its bound.  Each call is
    # recorded as (characteristic, columns), 2 for _gf2_rank.  The walk
    # over the bowtie ranks the pair's 6 edges and 2 triangles at the
    # empty face, then the edges of each vertex link, 1, 1, 2, 1 and 1.
    # is_cohen_macaulay stops at the vertex 3, whose link is two edges;
    # depth's cross-check walks the 1-skeleton, whose links are points;
    # cm_extender certifies the skeleton by a shelling and walks the pair
    # (Sigma, bowtie): 4 edges and 8 triangles, then vertex links of 5,
    # 5, 4, 5 and 5 edges.  The pairs with the vertex 3 removed keep every
    # edge and triangle.
    calls = _recorded_ranks(monkeypatch, columns=True)
    vertex = build_complex([[3]])
    for field in (FieldSpec(0), GF2, FieldSpec(3)):
        by = 2 if field.characteristic < 3 else 3  # who ranks the triangles
        pair, links = [(2, 6), (by, 2)], [(2, 1), (2, 1), (2, 2), (2, 1), (2, 1)]
        sigma = [(2, 4), (by, 8), (2, 5), (2, 5), (2, 4), (2, 5), (2, 5)]
        checks = {depth: pair + links + [(2, 6)], is_cohen_macaulay: pair + links[:3],
                  cm_extender: pair + links + [(2, 6)] + sigma,
                  reduced_betti: pair,
                  (lambda c, field: is_relative_cm(c, vertex, field)): pair + links[:3],
                  (lambda c, field: relative_betti(c, vertex, field)): pair}
        for check, expected in checks.items():
            calls.clear()
            check(BOWTIE, field)
            assert calls == expected


def test_each_check_walks_a_cohen_macaulay_input_once(monkeypatch):
    # A disk of two triangles on 4 points is Cohen-Macaulay: depth reads its
    # r = d skeleton verdict off its own walk, and cm_extender walks the disk
    # and the pair (Sigma, disk), where Sigma is the tetrahedron's boundary,
    # which its shelling certifies with no walk.  Each walk is recorded as
    # (facets of big, whether the pair is big itself).
    walks = []
    walk = homology._link_betti

    def recorded(big, pair, field):
        walks.append((big.facets, pair is big))
        return walk(big, pair, field)

    monkeypatch.setattr(homology, "_link_betti", recorded)
    disk = build_complex([[1, 2, 3], [1, 3, 4]])
    checks = {depth: [(disk.facets, True)], is_cohen_macaulay: [(disk.facets, True)],
              cm_extender: [(disk.facets, True), (TETRA_BOUNDARY.facets, False)]}
    for field in (FieldSpec(0), GF2):
        for check, expected in checks.items():
            walks.clear()
            check(disk, field)
            assert walks == expected


def _recorded_ranks(monkeypatch, columns: bool = False) -> list:
    """(characteristic, rank) of every rank call from here on, or
    (characteristic, column count) with ``columns``: 2 for a ``_gf2_rank``
    call, the field's for a ``matrix_rank`` call."""
    calls = []
    xor, rank = homology._gf2_rank, homology.matrix_rank

    def record(p, matrix, ranker):
        matrix = list(matrix)  # the walk hands _gf2_rank its columns lazily
        value = ranker(matrix)
        calls.append((p, len(matrix) if columns else value))
        return value

    monkeypatch.setattr(homology, "_gf2_rank", lambda matrix, cap: record(
        2, matrix, lambda m: xor(m, cap)))
    monkeypatch.setattr(homology, "matrix_rank", lambda matrix, field: record(
        field.characteristic, matrix, lambda m: rank(m, field)))
    return calls


def test_projective_plane_makes_one_rational_elimination(monkeypatch):
    # At the empty face the edges' boundary has rank 5, so the bound on the
    # triangles' rank is min(10 triangles, 15 edges - 5) = 10.  Over GF(2)
    # the triangles' boundary has rank 9 (the plane's mod 2 class), one
    # short, so that block alone is eliminated over Q, where its rank is
    # 10.  Every vertex link is a pentagon, whose edges rank 4 by XOR.
    calls = _recorded_ranks(monkeypatch)
    walk = homology._link_betti(PROJECTIVE_PLANE, PROJECTIVE_PLANE, FieldSpec(0))
    assert next(walk) == (fs(), (0, 0, 0, 0))
    assert calls == [(2, 5), (2, 9), (0, 10)]
    assert len(list(walk)) == len(PROJECTIVE_PLANE.faces) - 1
    assert calls == [(2, 5), (2, 9), (0, 10)] + [(2, 4)] * 6
    assert reduced_betti(PROJECTIVE_PLANE).betti == (0, 0, 0, 0)


def test_skeleton_of_a_simplex_makes_no_rational_elimination(monkeypatch):
    # Every GF(2) rank of a skeleton of a simplex, and of its links, meets
    # the bound, so each block over Q costs one GF(2) reduction and no
    # matrix_rank call.
    calls = _recorded_ranks(monkeypatch)
    c = build_complex(combinations(range(10), 3))
    assert reduced_betti(c).betti == (0, 0, 0, 84)
    assert calls == [(2, 9), (2, 36)]  # the edges, then the triangles
    assert is_cohen_macaulay(c) and depth(c) == 3
    assert isinstance(cm_extender(c), CmExtender)
    assert calls and all(p == 2 for p, _ in calls)


def test_link_walk_and_shelling_read_the_cached_view(monkeypatch):
    # A built complex has its mask view from birth; the walks and the
    # shelling search read it and encode no face.
    c = build_complex([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    assert "_view" in vars(c)
    encoded = []
    mask = _MaskCodec.mask

    def counted(codec, face):
        encoded.append(frozenset(face))
        return mask(codec, face)
    monkeypatch.setattr(_MaskCodec, "mask", counted)
    assert reduced_betti(c).betti == (0, 0, 0, 0)
    assert is_cohen_macaulay(c)
    assert find_shelling(c) == (fs([1, 2, 3]), fs([2, 3, 4]), fs([3, 4, 5]))
    assert encoded == []


def test_matrix_rank_calls_keep_the_tracer_contract(monkeypatch):
    """``bench/tracing.py`` unpacks each call as ``(matrix, field)`` and
    reads ``len(matrix)`` and ``len(matrix[0])``."""
    calls = []
    rank = homology.matrix_rank

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return rank(*args, **kwargs)

    monkeypatch.setattr(homology, "matrix_rank", recording)
    vertex = build_complex([[3]])
    checks = [depth, is_cohen_macaulay, cm_extender, reduced_betti,
              lambda c, field: is_relative_cm(c, vertex, field),
              lambda c, field: relative_betti(c, vertex, field)]
    # The walk calls matrix_rank only for a block of three vertices or
    # more whose GF(2) rank falls short over Q, or over an odd prime.
    for c, field in ((PROJECTIVE_PLANE, FieldSpec(0)), (BOWTIE, FieldSpec(3))):
        for check in checks:
            before = len(calls)
            check(c, field)
            assert len(calls) > before
    for args, kwargs in calls:
        assert not kwargs and len(args) == 2
        matrix, field = args
        assert isinstance(matrix, (list, tuple)) and isinstance(field, FieldSpec)
        assert all(isinstance(column, dict) for column in matrix)


@pytest.mark.parametrize("big,small", [
    (TRIANGLE_BOUNDARY, None), (BOWTIE, None), (TWO_TRIANGLES, None),
    (TETRA_BOUNDARY, None), (PROJECTIVE_PLANE, None),
    (BOWTIE_LID, BOWTIE), (TETRA_BOUNDARY, TRIANGLE_BOUNDARY)])
def test_rational_betti_numbers_match_sympy(big, small):
    sympy = pytest.importorskip("sympy")
    faces = big.faces - (small.faces if small is not None else frozenset())
    expected = betti_by_elimination(
        faces, big.dim + 2, lambda m: sympy.Matrix(m).rank() if m and m[0] else 0)
    assert relative_betti(big, small).betti == expected


def test_relative_betti_disk_rel_boundary():
    disk = build_complex([[1, 2, 3]])
    profile = relative_betti(disk, TRIANGLE_BOUNDARY)
    assert profile.betti == (0, 0, 0, 1)


def test_relative_betti_identical_pair_and_void():
    assert relative_betti(BOWTIE, BOWTIE).betti == (0, 0, 0, 0)
    assert relative_betti(BOWTIE, build_complex([])) == reduced_betti(BOWTIE)
    assert relative_betti(build_complex([])) == HomologyProfile(())


def test_relative_betti_lid_pair_vanishes():
    assert relative_betti(BOWTIE_LID, BOWTIE).betti == (0, 0, 0, 0)


def test_relative_betti_requires_subcomplex():
    with pytest.raises(NotASubcomplex):
        relative_betti(BOWTIE, build_complex([[1, 6]]))
    with pytest.raises(NotASubcomplex, match=r"^face \{\} of the subcomplex"):
        relative_betti(build_complex([]), build_complex([[9]]))


@pytest.mark.parametrize("check", [
    relative_betti, is_relative_cm, find_shelling,
    lambda big, small: check_shelling_order(big, big.facets, small)])
def test_pair_checks_name_the_missing_face(check):
    with pytest.raises(NotASubcomplex) as caught:
        check(BOWTIE, build_complex([[9]]))
    assert str(caught.value) == \
        "face {9} of the subcomplex is missing from the ambient complex"


@settings(max_examples=40, deadline=None)
@given(small_complexes(min_facets=1))
def test_euler_poincare(c):
    for field in (FieldSpec(0), GF2):
        profile = reduced_betti(c, field)
        assert euler_from_betti(profile.betti) == euler_from_f(f_vector(c))


def test_is_cohen_macaulay_golden():
    assert is_cohen_macaulay(build_complex([[1, 2, 3]]))
    assert not is_cohen_macaulay(BOWTIE)
    simplex_on_five = build_complex([[1, 2, 3, 4, 5]])
    assert is_cohen_macaulay(skeleton(simplex_on_five, 2))


def test_nonpure_is_never_cohen_macaulay():
    assert not is_cohen_macaulay(build_complex([[1, 2], [3]]))


def test_is_relative_cm_golden():
    assert is_relative_cm(BOWTIE_LID, BOWTIE)
    assert is_relative_cm(BOWTIE, build_complex([])) == is_cohen_macaulay(BOWTIE)
    assert is_relative_cm(build_complex([[1, 2, 3]]), build_complex([])) \
        == is_cohen_macaulay(build_complex([[1, 2, 3]]))
    big = skeleton(build_complex([[1, 2, 3, 4, 5, 6]]), 2)
    assert not is_relative_cm(big, TWO_TRIANGLES)


@settings(max_examples=60, deadline=None)
@given(complex_pairs())
def test_is_relative_cm_matches_literal_reading(pair):
    big, small = pair
    for p in (0, 2):
        assert is_relative_cm(big, small, FieldSpec(p)) \
            == relative_cm_by_definition(big, small, DENSE_RANKS[p])


def test_depth_golden():
    assert depth(BOWTIE) == 2
    assert depth(TWO_TRIANGLES) == 1
    assert depth(build_complex([[1]])) == 1
    assert depth(TETRA_BOUNDARY) == 3


def test_depth_void_rejected():
    with pytest.raises(VoidComplex):
        depth(build_complex([]))


# Seven (face, degree) pairs reach depth 3 here: the vertices 3 and 4 in
# degree 1 and five edges in degree 0.  The witness must be {3}, the first in
# face_key order, although the edge {1,3} comes first lexicographically.
WITNESS_TIES = build_complex([[1, 2, 4, 5, 9], [2, 4, 6, 7, 8], [1, 3, 4, 9, 10],
                              [1, 3, 6, 11, 12], [3, 4, 6, 13, 14]])


@settings(max_examples=40, deadline=None)
@given(small_complexes(labels=6, max_size=4, min_facets=1))
@example(WITNESS_TIES)
def test_depth_and_witness_match_literal_reading(c):
    for p in (0, 2):
        value, witness = depth_and_witness_by_definition(c, DENSE_RANKS[p])
        assert depth(c, FieldSpec(p)) == value
        outcome = cm_extender(c, FieldSpec(p))
        if value >= c.dim:
            assert isinstance(outcome, CmExtender)
        else:
            assert outcome == NoExtender(*witness)


@settings(max_examples=60, deadline=None)
@given(complex_pairs(labels=6, max_size=4))
@example((BOWTIE, build_complex([])))
@example((BOWTIE_LID, BOWTIE))
@example((WITNESS_TIES, build_complex([])))
def test_one_pass_readers_match_literal_readings(pair):
    """The CLI's depth and cm-check reports read their Betti numbers off the
    walk that gives the verdict, which stops at the first failing link."""
    big, small = pair
    for p, rank in DENSE_RANKS.items():
        field = FieldSpec(p)
        own = betti_by_elimination(big.faces, big.dim + 2, rank)
        verdict, profile = homology._cm_reading(big, field)
        assert profile.betti == own
        assert verdict == relative_cm_by_definition(big, build_complex([]), rank)
        value, witness, profile = homology._depth_and_witness(big, field)
        expected, first = depth_and_witness_by_definition(big, rank)
        assert (value, witness) == (expected, first)
        assert profile.betti == own
        verdict, profile = homology._pair_reading(big, relative_family(big, small), field)
        assert profile.betti == betti_by_elimination(big.faces - small.faces,
                                                     big.dim + 2, rank)
        assert verdict == relative_cm_by_definition(big, small, rank)


def test_cm_extender_bowtie():
    outcome = cm_extender(BOWTIE)
    assert isinstance(outcome, CmExtender)
    expected = skeleton(build_complex([[1, 2, 3, 4, 5]]), 2)
    assert outcome.extender == expected
    assert is_cohen_macaulay(outcome.extender)
    assert is_relative_cm(outcome.extender, BOWTIE)


def test_cm_extender_builds_no_complex_beyond_its_extender(monkeypatch):
    # On a path with 18 vertices the extender is the complete graph: 1 + 18
    # + 153 = 172 faces, while the whole simplex on 18 vertices has 2**18.
    path = build_complex([[i, i + 1] for i in range(1, 18)])
    sizes = []

    def counted(facets):
        c = build_complex(facets)
        sizes.append(len(c.faces))
        return c

    monkeypatch.setattr(homology, "_build_checked", counted)
    outcome = cm_extender(path)
    assert isinstance(outcome, CmExtender) and len(outcome.extender.faces) == 172
    assert sizes and max(sizes) <= 172


def test_cm_extender_walks_the_relative_family_it_returns(monkeypatch):
    built, walked = [], []
    make, walk = complexes.relative_family, homology._link_betti

    def counted(big, small):
        built.append(make(big, small))
        return built[-1]

    def recorded(big, pair, field):
        walked.append(pair)
        return walk(big, pair, field)

    monkeypatch.setattr(complexes, "relative_family", counted)
    monkeypatch.setattr(homology, "relative_family", counted)
    monkeypatch.setattr(homology, "_link_betti", recorded)
    outcome = cm_extender(BOWTIE)
    assert isinstance(outcome, CmExtender)
    assert len(built) == 1 and outcome.relative is built[0]
    assert any(pair is outcome.relative for pair in walked)
    assert outcome.relative.faces == outcome.extender.faces - BOWTIE.faces


# A strip of three triangles on 5 points; Sigma is the 2-skeleton of the
# simplex on them, 10 triangles.  Each mutation of the build below gives
# a wrong Sigma.  Sigma less a facet of the strip used to fail as bad input
# (NotASubcomplex); Sigma less another facet used to pass as a 9-facet
# extender, and is still shellable, so only the facet check sees it.
STRIP = [[1, 2, 3], [2, 3, 4], [3, 4, 5]]


WRONG_SKELETA = pytest.mark.parametrize("wrong", [
    lambda facets: [f for f in facets if set(f) != {3, 4, 5}],
    lambda facets: [f for f in facets if set(f) != {1, 2, 4}],
    lambda facets: [*facets, (1, 2, 3, 4)],
], ids=["without a facet of the base", "without another facet", "with a tetrahedron"])


@WRONG_SKELETA
def test_cm_extender_rejects_a_wrong_skeleton(monkeypatch, wrong):
    base = build_complex(STRIP)
    monkeypatch.setattr(homology, "_build_checked",
                        lambda facets: build_complex(wrong(list(facets))))
    with pytest.raises(InternalCheckError,
                       match=r"^skeleton extender's facets are not the 3-subsets "
                             r"of the base's 5 vertices$"):
        cm_extender(base)


@WRONG_SKELETA
def test_shelling_check_refuses_the_order_of_a_wrong_skeleton(wrong):
    # cm_extender's only check of the skeleton's facets: the lexicographic
    # order of the right facets is not a permutation of the wrong ones.
    order = list(combinations(range(1, 6), 3))
    with pytest.raises(NotAPermutation):
        check_shelling_order(build_complex(wrong(order)), order)


def test_cm_extender_refuses_a_pair_that_is_not_relative_cm(monkeypatch):
    monkeypatch.setattr(homology, "_pair_reading",
                        lambda big, pair, field: (False, HomologyProfile(())))
    with pytest.raises(InternalCheckError,
                       match=r"^skeleton extender pair is not relative CM$"):
        cm_extender(build_complex(STRIP))


def test_cm_extender_certifies_the_skeleton_by_its_lexicographic_shelling(monkeypatch):
    orders = []

    def refusing(big, order):
        orders.append(list(order))
        return False

    monkeypatch.setattr(homology, "check_shelling_order", refusing)
    with pytest.raises(InternalCheckError, match="lexicographic order is not a shelling"):
        cm_extender(build_complex(STRIP))
    assert orders == [list(combinations(range(1, 6), 3))]


def test_cm_extender_two_triangles_obstructed():
    outcome = cm_extender(TWO_TRIANGLES)
    assert outcome == NoExtender(witness_face=fs(), witness_degree=0)
    # The canonical maximal candidate really does fail.
    candidate = skeleton(build_complex([sorted(TWO_TRIANGLES.vertices)]), 2)
    assert is_cohen_macaulay(candidate)
    assert not is_relative_cm(candidate, TWO_TRIANGLES)


def test_cm_extender_fixed_point():
    already = skeleton(build_complex([[1, 2, 3, 4]]), 1)
    outcome = cm_extender(already)
    assert isinstance(outcome, CmExtender)
    assert outcome.extender == already
    assert outcome.relative.faces == fs()


def test_cm_extender_two_directions_on_random_corpus():
    rng = random.Random(61803)
    seen_failures = 0
    for _ in range(25):
        n_facets = rng.randint(1, 4)
        facets = [frozenset(rng.sample(range(1, 9), rng.randint(1, 3)))
                  for _ in range(n_facets)]
        c = build_complex(facets)
        d = c.dim
        outcome = cm_extender(c)
        assert isinstance(outcome, CmExtender) == (depth(c) >= d)
        if isinstance(outcome, NoExtender):
            seen_failures += 1
            candidate = skeleton(build_complex([sorted(c.vertices)]), d)
            assert is_cohen_macaulay(candidate)
            assert not is_relative_cm(candidate, c)
            assert len(outcome.witness_face) + outcome.witness_degree + 1 \
                == depth(c)
    assert seen_failures  # the corpus must exercise the obstruction branch


def test_shellable_pairs_are_relative_cm():
    pairs = [
        (build_complex([[1, 2], [2, 3]]), build_complex([[1, 2]])),
        (BOWTIE_LID, BOWTIE),
        (TETRA_BOUNDARY, build_complex([[1, 2, 3]])),
        (skeleton(build_complex([[1, 2, 3, 4, 5]]), 2), BOWTIE),
    ]
    checked = 0
    for big, small in pairs:
        order = find_shelling(big, small)
        if order is not None:
            checked += 1
            assert is_relative_cm(big, small)
    assert checked >= 2
