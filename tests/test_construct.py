import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from extenders import (
    ExtenderResult,
    FaceFamily,
    IntervalPartition,
    InternalCheckError,
    InvalidParameters,
    InvalidResult,
    NotPure,
    VoidComplex,
    build_complex,
    extender_for_complex,
    f_triangle,
    f_vector,
    find_partitioning,
    h_decomposition,
    h_from_partitioning,
    h_triangle,
    h_vector,
    is_h_compatible,
    is_layer_compatible,
    nonpure_extender_for_complex,
    partition_extender,
    relative_family,
    size_estimate,
    verify_partitioning,
)
from extenders import complexes, construct, partitions
from extenders.complexes import _MaskCodec
from extenders.construct import _check_result, _prepartition
from _oracles import (
    cube,
    f_triangle_by_definition,
    facet_depth_by_definition,
    is_partitioning_by_definition,
    off_facet_family,
    poly_h,
    pure_complexes,
    random_nonpure_complex,
    small_complexes,
    verify_by_enumeration,
)

fs = frozenset


def F(digits):
    return fs(int(ch) for ch in digits)


def test_seed_31_matches_golden_labels():
    marked = _prepartition(3, 1)
    assert marked.complex.facets == {
        F("1256"), F("3456"), F("1236"), F("1235"), F("2346"), F("2345")}
    assert marked.specified_facet == F("3456")
    assert marked.specified_face == F("56")
    assert marked.with_face_partition == IntervalPartition.of([
        (F("56"), F("1256")), (F("1"), F("1236")), (F("2"), F("2346")),
        (F("15"), F("1235")), (F("25"), F("2345"))])
    assert marked.without_face_partition is None


def test_seed_degenerate_cases():
    top = _prepartition(2, 2)
    assert top.complex == build_complex([[1, 2, 3]])
    assert top.specified_face == top.specified_facet == F("123")
    assert list(top.with_face_partition) == [(F("123"), F("123"))]

    tri = _prepartition(1, 0)
    assert tri.complex == build_complex([[1, 3], [2, 3], [1, 2]])
    assert tri.specified_facet == F("23") and tri.specified_face == F("3")

    two = _prepartition(2, -1)
    assert two.complex == build_complex([[1, 2, 3], [4, 5, 6]])
    assert list(two.with_face_partition) == [(fs(), F("123"))]


def test_partition_extender_rejects_bad_parameters():
    with pytest.raises(InvalidParameters):
        partition_extender(2, 3)
    with pytest.raises(InvalidParameters):
        partition_extender(2, -2)
    # Integers only, as FieldSpec takes them: a float or a bool is refused.
    for d, k in ((2.0, 1), (2, 1.0), (True, 0), (1, False), ("2", 1)):
        with pytest.raises(InvalidParameters, match=r"^d and k must be integers, got "):
            partition_extender(d, k)


def test_seed_cover_property():
    # Together with the spare interval [empty, specified facet], the seed
    # intervals hit every face exactly once, except the specified face,
    # which lies in exactly two intervals.
    for d in range(0, 6):
        for k in range(0, d + 1):
            marked = _prepartition(d, k)
            spare = (fs(), marked.specified_facet)
            intervals = list(marked.with_face_partition) + [spare]
            for face in marked.complex.faces:
                hits = sum(1 for b, t in intervals if b <= face <= t)
                assert hits == (2 if face == marked.specified_face else 1), \
                    (d, k, sorted(face))


def _seed_profile(d, k):
    """Interval counts of the seed certificate, by bottom size."""
    marked = _prepartition(d, k)
    return h_from_partitioning(off_facet_family(marked, with_face=True),
                               marked.with_face_partition)


def test_seed_profile_golden():
    assert _seed_profile(3, 1) == (0, 2, 3, 0, 0)
    assert _seed_profile(3, 2) == (0, 1, 1, 2, 0)
    for d in range(0, 5):
        profile = _seed_profile(d, d)
        assert profile[d + 1] == 1 and sum(profile) == 1


def test_seed_profile_closed_form():
    # d-k intervals at every bottom size 1..k, d-k+1 at size k+1, and the
    # measured count at size 0 is 0 (not d-k).
    for d in range(0, 6):
        for k in range(0, d + 1):
            profile = _seed_profile(d, k)
            for size in range(1, k + 1):
                assert profile[size] == d - k
            assert profile[k + 1] == d - k + 1
            assert profile[0] == 0
            assert all(v == 0 for v in profile[k + 2:])


def test_partition_extender_31_matches_golden_table():
    marked = partition_extender(3, 1)
    assert len(marked.complex.facets) == 14
    assert marked.complex.facets == {
        F("1256"), F("3456"), F("1236"), F("1235"), F("2346"), F("2345"),
        F("1567"), F("2567"), F("1267"), F("1257"),
        F("2568"), F("1568"), F("1268"), F("1258")}
    assert marked.without_face_partition == IntervalPartition.of([
        (F("1256"), F("1256")), (F("1"), F("1236")), (F("2"), F("2346")),
        (F("15"), F("1235")), (F("25"), F("2345")),
        (F("156"), F("1567")), (F("7"), F("2567")), (F("17"), F("1267")),
        (F("157"), F("1257")),
        (F("256"), F("2568")), (F("8"), F("1568")), (F("28"), F("1268")),
        (F("258"), F("1258"))])
    assert verify_partitioning(
        off_facet_family(marked, with_face=True), marked.with_face_partition).valid
    assert verify_partitioning(
        off_facet_family(marked), marked.without_face_partition).valid


def test_partition_extender_base_case():
    for d in range(-1, 7):
        marked = partition_extender(d, d)
        assert marked.complex == build_complex([range(1, d + 2)])
        assert list(marked.with_face_partition) == [
            (marked.specified_face, marked.specified_face)]
        assert len(marked.without_face_partition) == 0
        assert marked.attachments == ()
        # No off-facet face; the one with-only interval is the specified
        # face, place 0, over itself.
        assert construct._partition_extender(d, d)[1] == construct._Gadget(
            d + 1, 0, (), (), (((), ()), ((0,), (0,)), ((), ())))


def _mask_checks(monkeypatch):
    """The list that every later ``construct._verify`` call appends
    its reports to, one list per call; ``construct`` verifies nothing any
    other way."""
    calls = []
    verify = construct._verify

    def counted(*args):
        calls.append(verify(*args))
        return calls[-1]
    monkeypatch.setattr(construct, "_verify", counted)
    return calls


def test_each_gadget_is_checked_twice_on_masks(monkeypatch):
    construct._partition_extender.cache_clear()
    calls = _mask_checks(monkeypatch)
    try:
        for d in range(1, 4):
            for k in range(-1, d + 1):
                partition_extender(d, k)
    finally:
        construct._partition_extender.cache_clear()
    # 12 gadgets, the base cases k = d included, each with-face and
    # without-face certificate checked once, both by one call.
    assert len(calls) == 12
    assert all(len(reports) == 2 and all(r.valid for r in reports) for reports in calls)


def test_bad_seed_is_caught_inside_its_gadget(monkeypatch):
    prepartition = construct._prepartition

    def short_seed(d, k):
        seed = prepartition(d, k)
        if (d, k) != (2, 0):
            return seed
        # The last interval is ({2}, {2,3,4}), not the one under the
        # specified face.
        return dataclasses.replace(seed, with_face_partition=IntervalPartition(
            seed.with_face_partition.intervals[:-1]))

    construct._partition_extender.cache_clear()
    monkeypatch.setattr(construct, "_prepartition", short_seed)
    try:
        with pytest.raises(InternalCheckError,
                           match=r"adjoined certificate for \(d=2, k=0\)"):
            partition_extender(2, 0)
    finally:
        construct._partition_extender.cache_clear()


def test_partition_extender_codim_one_swaps_one_interval():
    for d in range(1, 5):
        marked = partition_extender(d, d - 1)
        seed = _prepartition(d, d - 1)
        assert marked.complex == seed.complex
        sigma = marked.specified_face
        anchor = next(t for b, t in seed.with_face_partition if b <= sigma <= t)
        assert set(marked.with_face_partition) == set(seed.with_face_partition)
        expected = (set(seed.with_face_partition) - {(sigma, anchor)}) \
            | {(anchor, anchor)}
        assert set(marked.without_face_partition) == expected


def _covered(pairs):
    """The faces of the intervals, each listed as often as it is covered."""
    return [f for b, t in pairs for f in cube(b, t)]


def test_recursive_assembly_certificates_and_swap():
    for d in range(0, 5):
        for k in range(-1, d + 1):
            marked = partition_extender(d, k)
            with_part, without_part = marked.with_face_partition, marked.without_face_partition
            assert verify_partitioning(off_facet_family(marked, with_face=True), with_part).valid
            assert verify_partitioning(off_facet_family(marked), without_part).valid
            if k == d:
                continue
            seed = _prepartition(d, k)
            sigma = marked.specified_face
            anchor = next(t for b, t in seed.with_face_partition if b <= sigma <= t)
            seed_set = set(seed.with_face_partition)
            # The intervals whose tops hold no fresh vertex are the seed's,
            # with (sigma, anchor) swapped for (anchor, anchor) without sigma.
            fresh = set().union(*(piece.fresh_vertices for piece in marked.attachments))
            assert {iv for iv in with_part if fresh.isdisjoint(iv[1])} == seed_set
            assert {iv for iv in without_part if fresh.isdisjoint(iv[1])} == \
                (seed_set - {(sigma, anchor)}) | {(anchor, anchor)}
            # Each piece's faces are covered by its without-face intervals in
            # the with-face certificate, and with its face tau by its
            # with-face intervals in the without-face certificate.
            for piece in marked.attachments:
                own, tau = set(piece.fresh_vertices), piece.face
                added = {f for f in marked.complex.faces if not own.isdisjoint(f)}
                held_with = [iv for iv in with_part if not own.isdisjoint(iv[1])]
                held_without = [iv for iv in without_part if not own.isdisjoint(iv[1])]
                if tau == anchor:
                    held_without.append((tau, tau))
                covered_with, covered_without = _covered(held_with), _covered(held_without)
                assert len(covered_with) == len(added) and set(covered_with) == added
                assert len(covered_without) == len(added) + 1
                assert set(covered_without) == added | {tau}


def test_extender_two_disjoint_edges_size():
    base = build_complex([[1, 2], [3, 4]])
    res = extender_for_complex(base)
    assert len(res.extender.vertices) - len(base.vertices) == 8
    assert f_vector(res.extender)[2] - f_vector(base)[2] == 13


def test_extender_bowtie_identity():
    base = build_complex([[1, 2, 3], [3, 4, 5]])
    res = extender_for_complex(base)
    h_big, h_rel, diff = h_decomposition(res)
    assert diff == (1, 2, -1, 0) == h_vector(base)
    assert tuple(a - b for a, b in zip(h_big, h_rel)) == diff


def test_extender_single_edge():
    res = extender_for_complex(build_complex([[1, 2]]))
    assert h_decomposition(res)[2] == (1, 0, 0)


def test_extender_rejects_void_and_nonpure():
    with pytest.raises(VoidComplex):
        extender_for_complex(build_complex([]))
    with pytest.raises(NotPure):
        extender_for_complex(build_complex([[1, 2], [3]]))
    with pytest.raises(VoidComplex):
        nonpure_extender_for_complex(build_complex([]))


def test_extender_irrelevant_complex():
    res = extender_for_complex(build_complex([[]]))
    assert res.extender == res.base
    assert h_decomposition(res) == ((1,), (0,), (1,))


def _reports_agree(res):
    """Whether both certificates a result returns are valid, with the
    reports that the frozenset reference gives for them."""
    relative = relative_family(res.extender, res.base)
    checks = ((res.extender, res.extender_partition), (relative, res.relative_partition))
    reports = [verify_partitioning(fam, p) for fam, p in checks]
    expected = [verify_by_enumeration(fam.faces, p) for fam, p in checks]
    return all(r.valid for r in reports) and expected == [
        (r.valid, r.violation, r.interval_stats) for r in reports]


def _h_triangles_by_definition(res):
    """The h-triangles of the base, the extender and the relative family,
    each from its literal f-triangle."""
    return tuple(
        tuple(poly_h(row) for row in f_triangle_by_definition(x.faces, x.dim))
        for x in (res.base, res.extender, relative_family(res.extender, res.base)))


@settings(max_examples=40, deadline=None)
@given(pure_complexes())
def test_extender_property_pure(base):
    res = extender_for_complex(base)
    assert verify_partitioning(
        res.extender, res.extender_partition).valid
    relative = relative_family(res.extender, res.base)
    assert verify_partitioning(relative, res.relative_partition).valid
    diff = tuple(a - b for a, b in
                 zip(h_vector(res.extender), h_vector(relative)))
    assert diff == poly_h(f_vector(base))
    # The h-vectors and h-triangles cached from the masks are those of the
    # frozensets returned.
    assert _reports_agree(res)
    assert res.h_vectors == tuple(map(h_vector, (base, res.extender, relative)))
    assert res.h_triangles == _h_triangles_by_definition(res)


@settings(max_examples=60, deadline=None)
@given(pure_complexes() | small_complexes(min_facets=1))
def test_fresh_vertices_are_runs_of_new_labels_in_log_order(base):
    # The CLI hands each interval to the entry whose fresh vertices hold its
    # top's largest label, so fresh labels must exceed every base label.
    build = extender_for_complex if base.is_pure else nonpure_extender_for_complex
    res = build(base)
    labels = [v for entry in res.attachment_log for v in entry.fresh_vertices]
    assert labels == sorted(set(labels))
    assert not labels or labels[-1] - labels[0] == len(labels) - 1
    assert all(v > max(base.vertices) for v in labels)
    assert set(labels) == res.extender.vertices - base.vertices


def test_nonpure_edge_plus_vertex():
    base = build_complex([[1, 2], [3]])
    res = nonpure_extender_for_complex(base)
    relative = relative_family(res.extender, res.base)
    assert is_layer_compatible(res.extender, res.extender_partition)
    assert is_h_compatible(res.extender, res.extender_partition)
    assert is_layer_compatible(relative, res.relative_partition)
    assert is_h_compatible(relative, res.relative_partition)
    tri = h_triangle(base)
    assert tri[1][1] == 1 and tri[2][0] == 1
    diff = tuple(
        tuple(a - b for a, b in zip(row_big, row_rel))
        for row_big, row_rel in zip(h_triangle(res.extender),
                                    h_triangle(relative)))
    assert diff == tri


def test_nonpure_agrees_with_pure_on_pure_input():
    for facets in ([[1, 2, 3]], [[1, 2, 3], [3, 4, 5]], [[1, 2, 3, 4], [4, 5, 6, 7]]):
        base = build_complex(facets)
        pure, nonpure = extender_for_complex(base), nonpure_extender_for_complex(base)
        assert nonpure == pure
        assert (nonpure.h_vectors, nonpure.h_triangles) == (pure.h_vectors, pure.h_triangles)


def test_nonpure_triangle_plus_vertex():
    base = build_complex([[1, 2], [1, 3], [2, 3], [4]])
    res = nonpure_extender_for_complex(base)
    relative = relative_family(res.extender, res.base)
    diff = tuple(
        tuple(a - b for a, b in zip(row_big, row_rel))
        for row_big, row_rel in zip(h_triangle(res.extender),
                                    h_triangle(relative)))
    assert diff == h_triangle(base)


def test_nonpure_preserves_facet_depth():
    rng = random.Random(4127)
    for _ in range(10):
        base = random_nonpure_complex(rng)
        res = nonpure_extender_for_complex(base)
        for face in base.faces:
            assert facet_depth_by_definition(base, face) == \
                facet_depth_by_definition(res.extender, face)


def test_nonpure_h_triangles_match_definition():
    # A built result's h-triangles come from its masks, and so do those of
    # a copy that _check_result reads as masks; both match the definition.
    rng = random.Random(2718)
    for _ in range(10):
        base = random_nonpure_complex(rng)
        res = nonpure_extender_for_complex(base)
        copy = dataclasses.replace(res)
        _check_result(copy)
        assert vars(res)["h_triangles"] == vars(copy)["h_triangles"] \
            == _h_triangles_by_definition(res)


def test_nonpure_triangle_additivity():
    # The f-triangle of the relative family is the row-wise difference of
    # the extender's and the base's, because facet depths are preserved.
    rng = random.Random(90125)
    for _ in range(10):
        base = random_nonpure_complex(rng)
        res = nonpure_extender_for_complex(base)
        assert _reports_agree(res)
        relative = relative_family(res.extender, res.base)
        expected = tuple(
            tuple(a - b for a, b in zip(row_big, row_base))
            for row_big, row_base in zip(f_triangle(res.extender),
                                         f_triangle(base)))
        assert f_triangle(relative) == expected


def _lidded_bowtie():
    """A hand-built extender of the bowtie: one triangle closes it."""
    bowtie = build_complex([[1, 2, 3], [3, 4, 5]])
    lid = build_complex([[1, 2, 3], [3, 4, 5], [2, 3, 4]])
    gamma_partition = find_partitioning(lid)
    assert gamma_partition is not None
    return ExtenderResult(
        extender=lid, base=bowtie,
        extender_partition=gamma_partition,
        relative_partition=IntervalPartition.of([([2, 4], [2, 3, 4])]),
        attachment_log=())


def test_h_decomposition_handmade_result():
    handmade = _lidded_bowtie()
    assert h_decomposition(handmade) == ((1, 2, 0, 0), (0, 0, 1, 0), (1, 2, -1, 0))


def test_h_decomposition_identity_base():
    tri = build_complex([[1, 2], [1, 3], [2, 3]])
    res = ExtenderResult(tri, tri, find_partitioning(tri),
                         IntervalPartition.of([]), ())
    h = h_vector(tri)
    assert h_decomposition(res) == (h, (0, 0, 0), h)


def test_h_decomposition_rejects_bad_certificates():
    tri = build_complex([[1, 2], [1, 3], [2, 3]])
    broken = ExtenderResult(tri, tri, IntervalPartition.of([([], [1, 2])]),
                            IntervalPartition.of([]), ())
    with pytest.raises(InvalidResult):
        h_decomposition(broken)


def test_library_result_is_validated_once(monkeypatch):
    bowtie = build_complex([[1, 2, 3], [3, 4, 5]])
    extender_for_complex(bowtie)  # builds the gadgets
    handmade = _lidded_bowtie()
    calls = _mask_checks(monkeypatch)
    res = extender_for_complex(bowtie)
    h_decomposition(res)
    res.h_triangles
    assert [len(reports) for reports in calls] == [2]
    # A hand-built result is checked on its first read, and only then.
    calls.clear()
    h_decomposition(handmade)
    handmade.h_triangles
    h_decomposition(handmade)
    assert [len(reports) for reports in calls] == [2]


def test_copied_result_is_validated_again():
    res = extender_for_complex(build_complex([[1, 2, 3], [3, 4, 5]]))
    h_decomposition(res)
    short = IntervalPartition(res.relative_partition.intervals[1:])
    with pytest.raises(InvalidResult, match="relative certificate"):
        h_decomposition(dataclasses.replace(res, relative_partition=short))


def _handmade(extender, base, extender_pairs, relative_pairs):
    return ExtenderResult(extender, base, IntervalPartition.of(extender_pairs),
                          IntervalPartition.of(relative_pairs), ())


TRIANGLE_PLUS_VERTEX = build_complex([[1, 2], [1, 3], [2, 3], [4]])
LAYERED = [([], [1, 2]), ([3], [1, 3]), ([2, 3], [2, 3]), ([4], [4])]
UNLAYERED = [([], [4]), ([1], [1, 2]), ([3], [1, 3]), ([2], [2, 3])]


def test_check_result_accepts_handmade_results():
    _check_result(_handmade(TRIANGLE_PLUS_VERTEX, TRIANGLE_PLUS_VERTEX, LAYERED, []))
    path = build_complex([[1, 2], [2, 3]])
    _check_result(_handmade(path, build_complex([[1, 2]]),
                            [([], [1, 2]), ([3], [2, 3])], [([3], [2, 3])]))
    # A pure base under an extender with a smaller facet: the certificates'
    # tops are not all full, so the checker reads the facet sizes.
    grown = _handmade(build_complex([[1, 2], [3]]), build_complex([[1, 2]]),
                      [([], [1, 2]), ([3], [3])], [([3], [3])])
    assert grown.h_triangles == _h_triangles_by_definition(grown)


@pytest.mark.parametrize("result, message", [
    (_handmade(build_complex([[1, 2, 3]]), build_complex([[1, 2]]),
               [([], [1, 2, 3])], [([3], [1, 2, 3])]),
     "extender changed the dimension"),
    (_handmade(TRIANGLE_PLUS_VERTEX, TRIANGLE_PLUS_VERTEX, LAYERED[:3], []),
     "extender certificate: face {4} is not covered"),
    (_handmade(TRIANGLE_PLUS_VERTEX, TRIANGLE_PLUS_VERTEX, LAYERED, [([4], [4])]),
     "relative certificate: top of [{4}, {4}] is not a member"),
    (_handmade(build_complex([[1, 2], [2, 3]]), build_complex([[1, 2], [3]]),
               [([], [1, 2]), ([3], [2, 3])], [([2, 3], [2, 3])]),
     "facet depth of {3} changed"),
    (_handmade(TRIANGLE_PLUS_VERTEX, TRIANGLE_PLUS_VERTEX, UNLAYERED, []),
     "extender certificate is not layer-compatible"),
    (_handmade(build_complex([[1, 2]]), build_complex([[1, 3]]), [([], [1, 2])], []),
     "base face {3} is not in the extender"),
    # Foreign labels below and above the extender's, read after them.
    (_handmade(build_complex([[2, 3]]), build_complex([[2, 4], [0, 2]]), [([], [2, 3])], []),
     "base face {0} is not in the extender"),
])
def test_check_result_names_the_failed_check(result, message):
    # The checker's failure is a library bug when it checks a built result;
    # on the first read of a hand-built one it is the caller's input error.
    with pytest.raises(InternalCheckError) as excinfo:
        _check_result(result)
    assert str(excinfo.value) == message
    copy = dataclasses.replace(result)
    for _ in range(2):  # a failed check caches nothing
        with pytest.raises(InvalidResult) as excinfo:
            h_decomposition(copy)
        assert str(excinfo.value) == message


def test_a_miscounting_verifier_is_caught(monkeypatch):
    # The checker reads the relative family's h-numbers off its report, so
    # a report that stays valid but counts one interval too many breaks
    # the identity, for the h-vector of a pure base as for the h-triangle
    # of a nonpure one.
    cases = ((extender_for_complex, build_complex([[1, 2, 3], [3, 4, 5]])),
             (nonpure_extender_for_complex, build_complex([[1, 2, 3], [3, 4], [5]])))
    for build, base in cases:
        build(base)  # warm the gadgets, so only the result is verified below
    verify = construct._verify
    for build, base in cases:

        def miscounted(*args):
            extender, relative = verify(*args)
            (key, count), *rest = relative.interval_stats
            return extender, dataclasses.replace(
                relative, interval_stats=((key, count + 1), *rest))
        monkeypatch.setattr(construct, "_verify", miscounted)
        with pytest.raises(InternalCheckError) as excinfo:
            build(base)
        assert str(excinfo.value) == "h(base) is not h(extender) - h(relative)"


def test_check_result_counts_no_face_of_the_extender(monkeypatch):
    # Only the base's h-numbers are counted from faces; the extender's and
    # the relative family's are read off their certificates.
    read = []
    for module in (complexes, construct):
        for name in ("f_vector", "f_triangle"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda x, count=getattr(module, name):
                                    read.append(x) or count(x))
    for build, facets in ((extender_for_complex, [[1, 2, 3], [3, 4, 5]]),
                          (nonpure_extender_for_complex, [[1, 2, 3], [3, 4], [5]])):
        base = build_complex(facets)
        read.clear()
        h_decomposition(build(base))
        assert read and all(x is base for x in read)


def test_size_estimate_base_values():
    for d in range(0, 11):
        assert size_estimate(d, 0) == (0, 2 ** d)
        exact, bound = size_estimate(d, 1) if d >= 1 else (0, 0)
        if d >= 1:
            assert exact == 2 ** (d + 1) - 2
            assert exact <= 2 ** (d + 1)


def test_size_estimate_bound_holds():
    for d in range(0, 7):
        for k in range(0, d + 1):
            exact, bound = size_estimate(d, k)
            assert 0 <= exact <= bound


def test_size_estimate_rejects_bad_parameters():
    with pytest.raises(InvalidParameters):
        size_estimate(2, 3)
    with pytest.raises(InvalidParameters):
        size_estimate(2, -1)
    for d, k in ((2.0, 1), (2, 1.0), (True, 0), (1, True), (None, 0)):
        with pytest.raises(InvalidParameters, match=r"^d and k must be integers, got "):
            size_estimate(d, k)


def test_size_recurrence_codim_zero_adds_nothing():
    for d in range(0, 5):
        marked = partition_extender(d, d)
        assert len(marked.complex.faces) - 2 ** (d + 1) == 0
        assert size_estimate(d, 0)[0] == 0


# (d, codim) -> (g, bound, faces the gadget adds beyond its shared facet):
# size_estimate(d, codim) and partition_extender(d, d - codim), as built.
GADGET_SIZES = {
    (0, 0): (0, 1, 0),
    (1, 0): (0, 2, 0), (1, 1): (2, 4, 3),
    (2, 0): (0, 4, 0), (2, 1): (6, 8, 7), (2, 2): (20, 32, 25),
    (3, 0): (0, 8, 0), (3, 1): (14, 16, 15), (3, 2): (52, 64, 57),
    (3, 3): (222, 1024, 247),
    (4, 0): (0, 16, 0), (4, 1): (30, 32, 31), (4, 2): (116, 128, 121),
    (4, 3): (510, 2048, 535), (4, 4): (2920, 524288, 3069),
}


def test_size_recurrence_against_built_gadgets():
    # The paper's recurrence under-counts the gadgets built here, from
    # codimension 1 on, but the bound holds for every d <= 4.
    for (d, codim), (g, bound, added) in GADGET_SIZES.items():
        assert size_estimate(d, codim) == (g, bound)
        assert len(partition_extender(d, d - codim).complex.faces) - 2 ** (d + 1) == added
        assert g <= added <= bound


def test_bowtie_build_canonicalises_each_certificate_once(monkeypatch):
    bowtie = build_complex([[1, 2, 3], [3, 4, 5]])
    h_decomposition(extender_for_complex(bowtie))  # warm the gadgets
    counts = {"canonical": [], "of": 0, "family": 0}
    canonical, of = construct._canonical, IntervalPartition.of.__func__
    post_init = FaceFamily.__post_init__

    def counted_canonical(masks, pairs):
        counts["canonical"].append(len(masks) - 1)
        return canonical(masks, pairs)

    def counted_of(cls, pairs):
        counts["of"] += 1
        return of(cls, pairs)

    def counted_post_init(self):
        counts["family"] += 1
        post_init(self)

    monkeypatch.setattr(construct, "_canonical", counted_canonical)
    monkeypatch.setattr(IntervalPartition, "of", classmethod(counted_of))
    monkeypatch.setattr(FaceFamily, "__post_init__", counted_post_init)
    h_decomposition(extender_for_complex(bowtie))
    # One call of freeze orders both certificates, sorted as masks; the
    # pure path reads the relative family's report and h-vector off the
    # masks, so it builds no family.
    assert counts == {"canonical": [2], "of": 0, "family": 0}


def test_bowtie_build_lists_each_shared_interval_once(monkeypatch):
    bowtie = build_complex([[1, 2, 3], [3, 4, 5]])
    res = extender_for_complex(bowtie)  # warms the gadgets
    listed = []
    faces = partitions._interval_faces

    def counted(pairs, room):
        out = faces(pairs, room)
        listed.extend(out or ())
        return out
    monkeypatch.setattr(partitions, "_interval_faces", counted)
    res = extender_for_complex(bowtie)
    # Every face of Gamma is listed once for the extender certificate, and
    # the relative certificate lists only the faces its own intervals add:
    # the shared intervals' faces are not listed twice.
    relative = relative_family(res.extender, bowtie)
    shared = set(res.extender_partition) & set(res.relative_partition)
    own = [iv for iv in res.relative_partition if iv not in shared]
    assert shared and own
    assert len(listed) == len(res.extender.faces) + len(_covered(own))
    assert len(listed) < len(res.extender.faces) + len(relative.faces)
    assert Counter(listed) == Counter(map(res.extender._view.codec.mask,
                                          res.extender.faces)) + Counter(
        map(res.extender._view.codec.mask, _covered(own)))


@pytest.mark.parametrize("pairs", [
    [([3], [2, 3]), ([], [1, 2]), ([1], [1, 3]), ([4], [4])],
    [([1], [1, 2]), ([], [1, 2]), ([3], [3]), ([2], [1, 2]), ([1, 2], [1, 2])],
])
def test_mask_certificates_are_ordered_as_interval_partitions_are(pairs):
    # The second list repeats tops, as only a broken certificate can.
    codec = _MaskCodec(range(1, 5))
    masks = [(codec.mask(b), codec.mask(t)) for b, t in pairs]
    faces = [(frozenset(b), frozenset(t)) for b, t in pairs]
    assert construct._canonical((masks, [], []), (faces, [], [])) == [
        IntervalPartition.of(pairs)] * 2
    # Split between the shared list and each certificate's own, the union
    # is sorted once and each certificate comes out as its own list would.
    split = [slice(1, None, 3), slice(0, None, 3), slice(2, None, 3)]
    assert construct._canonical([masks[s] for s in split], [faces[s] for s in split]) == [
        IntervalPartition.of(pairs[1::3] + pairs[0::3]),
        IntervalPartition.of(pairs[1::3] + pairs[2::3])]


@settings(max_examples=40, deadline=None)
@given(pure_complexes() | small_complexes(min_facets=1))
def test_returned_certificates_hold_gammas_own_faces(base):
    # Masks and frozensets are read off two lists by one place per pair, so
    # a wrong place would still pass the check on masks; the frozensets
    # returned are checked here, by definition, and must be Gamma's own.
    build = extender_for_complex if base.is_pure else nonpure_extender_for_complex
    res = build(base)
    gamma = res.extender.faces
    assert is_partitioning_by_definition(gamma, res.extender_partition)
    assert is_partitioning_by_definition(gamma - base.faces, res.relative_partition)
    own = {f: f for f in gamma}
    assert all(own[b] is b and own[t] is t
               for part in (res.extender_partition, res.relative_partition)
               for b, t in part)


@st.composite
def _labelled_pairs(draw):
    """Pairs of faces over a few sorted labels, zero and the empty face
    allowed, with tops of every size, some of them repeated."""
    labels = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=6)))
    subset = st.sets(st.sampled_from(labels)).map(frozenset)
    tops = draw(st.lists(subset, min_size=1, max_size=8))
    tops += draw(st.lists(st.sampled_from(tops), max_size=3))
    return labels, [(frozenset(draw(st.sets(st.sampled_from(sorted(t))))) if t else t, t)
                    for t in tops]


@settings(max_examples=200, deadline=None)
@given(_labelled_pairs(), st.data())
def test_mask_order_is_the_sorted_label_order(labelled, data):
    labels, pairs = labelled
    codec = _MaskCodec(labels)
    part = data.draw(st.lists(st.sampled_from((0, 1, 2)), min_size=len(pairs),
                              max_size=len(pairs)))
    lists = [[p for p, j in zip(pairs, part) if j == i] for i in range(3)]
    masks = [[(codec.mask(b), codec.mask(t)) for b, t in pl] for pl in lists]
    assert construct._canonical(masks, lists) == [
        IntervalPartition.of(lists[0] + lists[1]), IntervalPartition.of(lists[0] + lists[2])]


def test_warm_gadgets_leave_no_mask_form_to_build(monkeypatch):
    construct._partition_extender.cache_clear()
    built = []
    gadget = construct._Gadget
    monkeypatch.setattr(construct, "_Gadget", lambda *args, **kwargs:
                        built.append(1) or gadget(*args, **kwargs))
    for d in (1, 2):
        for k in range(-1, d + 1):
            partition_extender(d, k)
    assert len(built) == 7  # one mask form per warmed gadget
    built.clear()
    extender_for_complex(build_complex([[1, 2, 3], [3, 4, 5]]))
    assert built == []


def test_each_face_set_is_encoded_once(monkeypatch):
    # A built complex's mask view is made with it, from its candidate
    # facets, and serves every read: the search's tops, the builder, and
    # the verifier.  The labels stay clear of the gadgets' own, so only the
    # base is counted.
    facets = [[101, 102, 103], [102, 103, 104], [103, 104, 105]]
    candidates = Counter(map(frozenset, facets))
    partition = find_partitioning(build_complex(facets))
    extender_for_complex(build_complex(facets))  # warms the gadgets
    encoded = Counter()
    mask = _MaskCodec.mask

    def counted(codec, face):
        encoded[frozenset(face)] += 1
        return mask(codec, face)
    monkeypatch.setattr(_MaskCodec, "mask", counted)
    base = build_complex(facets)
    assert encoded == candidates
    assert find_partitioning(base) == partition
    extender_for_complex(base)
    assert encoded == candidates
    encoded.clear()
    again = build_complex(facets)
    for _ in range(2):
        assert verify_partitioning(again, partition).valid
    # Each call reads the interval faces; no other face is encoded.
    assert encoded == candidates + Counter(2 * list(itertools.chain(*partition)))
