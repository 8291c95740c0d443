import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from extenders import (
    ExtenderResult,
    ExtendersError,
    FaceFamily,
    IntervalPartition,
    InvalidParameters,
    InvalidPartitioning,
    InvalidResult,
    NotAPermutation,
    SizeLimitExceeded,
    build_complex,
    check_shelling_order,
    extender_for_complex,
    f_triangle,
    f_vector,
    find_partitioning,
    find_shelling,
    h_decomposition,
    h_from_partitioning,
    h_triangle,
    h_vector,
    is_h_compatible,
    is_layer_compatible,
    nonpure_extender_for_complex,
    relative_family,
    verify_partitioning,
)
from extenders import complexes, construct, partitions
from extenders.complexes import (
    _MaskCodec, _MaskView, _facet_sizes, face_key, format_face, lex_key)
from _oracles import (
    all_partitionings,
    complex_pairs,
    cube,
    cycles_with_faces,
    f_triangle_by_definition,
    first_partitioning_by_backtracking,
    first_shelling_by_backtracking,
    layer_compatible_by_definition,
    naive_find_partitioning,
    pure_complexes,
    small_complexes,
    subsets_of,
    verify_by_enumeration,
)

fs = frozenset

TRIANGLE_BOUNDARY = build_complex([[1, 2], [1, 3], [2, 3]])
BOWTIE = build_complex([[1, 2, 3], [3, 4, 5]])
K4_PLUS_EDGES = build_complex(
    [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4], [5, 6], [7, 8]])
SQUARE_TAIL = build_complex([[1, 2], [2, 3], [3, 4], [2, 4]])

# The square-with-tail complex minus the subcomplex of its facet {1,2},
# with and without the vertex 2 adjoined.
OFF_FACET = relative_family(SQUARE_TAIL, build_complex([[1, 2]]))
OFF_FACET_PLUS = FaceFamily(OFF_FACET.faces | {fs([2])}, OFF_FACET.dim)

# Canonical seed for (d, k) = (3, 1), written out literally.
SEED_31 = build_complex(
    [[1, 2, 5, 6], [3, 4, 5, 6], [1, 2, 3, 6], [1, 2, 3, 5], [2, 3, 4, 6],
     [2, 3, 4, 5]])
SEED_31_FAMILY = FaceFamily(
    relative_family(SEED_31, build_complex([[3, 4, 5, 6]])).faces | {fs([5, 6])}, 3)
SEED_31_INTERVALS = IntervalPartition.of([
    ([5, 6], [1, 2, 5, 6]), ([1], [1, 2, 3, 6]), ([2], [2, 3, 4, 6]),
    ([1, 5], [1, 2, 3, 5]), ([2, 5], [2, 3, 4, 5])])


def part(*pairs):
    return IntervalPartition.of(pairs)


def test_interval_partition_requires_nested_pairs():
    with pytest.raises(InvalidParameters):
        IntervalPartition.of([([1], [2, 3])])


@pytest.mark.parametrize("pairs", [
    [([True], [True, 2])], [([], [-1])], [([-1], [1, 2])], [([1], [1, "a"])]])
def test_interval_partition_checks_labels_as_faces_are_checked(pairs):
    with pytest.raises(InvalidParameters,
                       match="^vertex labels must be nonnegative integers, got "):
        IntervalPartition.of(pairs)


def test_interval_partition_canonical_order_and_records():
    p = part(([3], [3, 4]), ([2], [2, 3]))
    assert p.to_records() == [{"bottom": [2], "top": [2, 3]},
                              {"bottom": [3], "top": [3, 4]}]
    assert IntervalPartition.from_records(p.to_records()) == p


# Few labels, so tops repeat; two-digit labels, so digit order is tested.
_label_sets = st.frozensets(st.sampled_from([1, 2, 3, 9, 10, 12]), max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_label_sets, _label_sets), max_size=8))
def test_interval_partition_sorts_by_top_then_bottom(pairs):
    pairs = [(bottom, bottom | extra) for bottom, extra in pairs]
    expected = sorted(pairs, key=lambda bt: (lex_key(bt[1]), lex_key(bt[0])))
    assert IntervalPartition.of(pairs).intervals == tuple(expected)


def test_verify_square_tail_family_with_vertex():
    report = verify_partitioning(
        OFF_FACET_PLUS, part(([2], [2, 3]), ([3], [3, 4]), ([4], [2, 4])))
    assert report.valid and report.violation is None


def test_verify_square_tail_family_without_vertex():
    report = verify_partitioning(
        OFF_FACET, part(([2, 3], [2, 3]), ([3], [3, 4]), ([4], [2, 4])))
    assert report.valid


def test_verify_reports_uncovered_vertex():
    report = verify_partitioning(
        OFF_FACET_PLUS, part(([2, 3], [2, 3]), ([3], [3, 4]), ([4], [2, 4])))
    assert not report.valid
    assert "{2} is not covered" in report.violation


def test_verify_seed_31_intervals():
    assert verify_partitioning(SEED_31_FAMILY, SEED_31_INTERVALS).valid


def test_verify_reports_undercover_of_complex():
    report = verify_partitioning(TRIANGLE_BOUNDARY, part(([], [1, 2])))
    assert not report.valid
    assert "not covered" in report.violation


def test_verify_reports_double_cover_and_non_maximal_top():
    doubled = verify_partitioning(
        TRIANGLE_BOUNDARY,
        part(([], [1, 2]), ([1], [1, 3]), ([2], [2, 3]), ([3], [3])))
    assert not doubled.valid
    low_top = verify_partitioning(
        TRIANGLE_BOUNDARY, part(([], [1, 2]), ([3], [3]), ([1, 3], [1, 3]),
                                ([2, 3], [2, 3])))
    assert not low_top.valid
    assert "not maximal" in low_top.violation


def test_non_maximal_top_names_the_first_containing_member():
    # Many triangles contain {1,2}; the message names the face_key-first.
    skeleton_2 = build_complex(itertools.combinations(range(1, 9), 3))
    report = verify_partitioning(skeleton_2, part(([], [1, 2])))
    assert report.violation == (
        "top of [{}, {1,2}] is not maximal: it is contained in {1,2,3}")


def test_first_offender_ignores_the_faces_of_its_own_interval():
    # {3} belongs to the interval itself; {1,2} is the first non-member.
    fam = FaceFamily(frozenset(build_complex([[1, 2, 3]]).faces - {fs({1, 2})}), 2)
    report = verify_partitioning(fam, part(([], [1, 2, 3])))
    assert report.violation == "interval [{}, {1,2,3}] requires {1,2}, which is not a member"


def test_double_cover_names_the_least_face_an_earlier_interval_covered():
    # The walk over [{}, {1,2,3}] fails at {2,3}, but {1}, covered by the
    # second interval, comes first by size and then lexicographically.
    c = build_complex([[1, 2, 3], [2, 3, 4], [1, 5]])
    p = IntervalPartition(((fs({2, 3}), fs({2, 3, 4})), (fs({1}), fs({1, 5})),
                           (fs(), fs({1, 2, 3}))))
    assert verify_partitioning(c, p).violation == "face {1} is covered twice"


def test_missing_face_is_the_least_non_member_of_the_interval():
    # The walk fails at {2}, but {1} comes first lexicographically.
    fam = FaceFamily(fs({fs(), fs({1, 2})}), 1)
    p = IntervalPartition(((fs(), fs({1, 2})),))
    assert verify_partitioning(fam, p).violation == (
        "interval [{}, {1,2}] requires {1}, which is not a member")


def _drop(pairs, i):
    return pairs[:i] + pairs[i + 1:]


def _duplicate(pairs, i):
    return pairs[:i + 1] + pairs[i:]


def _replace(pairs, i, b, t):
    return pairs[:i] + [(b, t)] + pairs[i + 1:]


def _foreign_bottom(pairs, i):
    b, t = pairs[i]
    return _replace(pairs, i, b | {99}, t)


def _empty_bottom(pairs, i):
    return _replace(pairs, i, frozenset(), pairs[i][1])


def _lowered_top(pairs, i):
    b, t = pairs[i]
    v = max(t - b or t or {99})
    return _replace(pairs, i, b - {v}, t - {v})


def _foreign_top(pairs, i):
    b, t = pairs[i]
    return _replace(pairs, i, b, t | {99})


def _split(pairs, i):
    # [b, t] becomes [b + v, t] and [b, t - v]: the cover stays exact, but
    # the top t - v lies in t, so only the maximality test can refuse it.
    b, t = pairs[i]
    if b == t:
        return pairs
    v = max(t - b)
    return pairs[:i] + [(b | {v}, t), (b, t - {v})] + pairs[i + 1:]


TAMPERINGS = [_drop, _duplicate, _foreign_bottom, _empty_bottom, _lowered_top,
              _foreign_top, _split]


@settings(max_examples=25, deadline=None)
@given(small_complexes(min_facets=1), st.data())
def test_verifier_reports_tampered_certificates_as_the_reference_does(c, data):
    result = nonpure_extender_for_complex(c)
    relative = relative_family(result.extender, result.base)
    for fam, p in ((result.extender, result.extender_partition),
                   (relative, result.relative_partition)):
        pairs = list(p)
        assert verify_by_enumeration(fam.faces, pairs)[0]
        if not pairs:
            continue
        i = data.draw(st.integers(0, len(pairs) - 1))
        for tamper in TAMPERINGS:
            tampered = tamper(pairs, i)
            report = verify_partitioning(fam, IntervalPartition(tuple(tampered)))
            expected = verify_by_enumeration(fam.faces, tampered)
            assert (report.valid, report.violation, report.interval_stats) == expected
            assert report.valid == (tampered == pairs)


def _in(parts, k, tamper, i):
    """``parts`` with list ``k`` tampered at index ``i``, if it has one."""
    if not parts[k]:
        return parts
    return tuple(tamper(p, i % len(p)) if j == k else p for j, p in enumerate(parts))


def _bottom_outside_top(parts, i):
    return _in(parts, 0, _foreign_bottom, i)


def _shared_and_own(parts, i):
    # A copy of a shared interval replaces an own one with as many faces,
    # so the count holds while some faces are covered twice and others not
    # at all; with no such own interval, a shared top is covered again.
    if not parts[0]:
        return parts
    b, t = parts[0][i % len(parts[0])]
    k = 1 + i % 2
    same = [j for j, (ob, ot) in enumerate(parts[k]) if len(ot - ob) == len(t - b)]
    tampered = _replace(parts[k], same[i % len(same)], b, t) if same else parts[k] + [(t, t)]
    return tuple(tampered if j == k else p for j, p in enumerate(parts))


def _repeated_in_shared(parts, i):
    return _in(parts, 0, _duplicate, i)


def _outside_family(parts, i):
    return _in(parts, i % 3, _foreign_top, i)


def _uncovered(parts, i):
    return _in(parts, i % 3, _drop, i)


def _non_maximal(parts, i):
    return _in(parts, i % 3, _split, i)


def _moved_into_shared(parts, i):
    # An interval of one certificate only is listed as shared by both.
    shared, first, second = parts
    own = (first, second)[i % 2]
    if not own:
        return parts
    moved = own[i % len(own)]
    rest = [iv for iv in own if iv != moved]
    return (shared + [moved], rest, second) if i % 2 == 0 else (shared + [moved], first, rest)


def _joint_and_alone(view, removed, parts, codec):
    """The reports of the joint check of (shared, first, second), face
    pairs read through ``codec``, on the family ``view.masks`` and its
    subfamily less the faces ``removed``, and those of each certificate
    checked alone."""
    shared, first, second = ([(codec.mask(b), codec.mask(t)) for b, t in p] for p in parts)
    removed = frozenset(map(codec.mask, removed))
    full = (shared + first, shared + second)
    subfamily = _MaskView(codec, view.masks - removed, view)
    return (partitions._verify_joint(view, removed, shared, (first, second), codec,
                                     lambda: full),
            (partitions._verify_masks(view, full[0], codec),
             partitions._verify_masks(subfamily, full[1], codec)))


JOINT_TAMPERINGS = [_bottom_outside_top, _shared_and_own, _repeated_in_shared,
                    _outside_family, _uncovered, _non_maximal, _moved_into_shared]


@settings(max_examples=40, deadline=None)
@given(small_complexes(min_facets=1), st.data())
def test_joint_check_reports_as_two_single_checks(c, data):
    # The extender and relative certificates of a built result, split at
    # random into shared and own intervals, in any order, and tampered.
    # The joint check lists the shared faces once, yet each report is the
    # one _verify_masks gives for that certificate alone, word for word,
    # which is the frozenset reference's.
    result = nonpure_extender_for_complex(c)
    both = set(result.extender_partition) & set(result.relative_partition)
    shared = [iv for iv in sorted(both, key=str) if data.draw(st.booleans())]
    parts = tuple(data.draw(st.permutations(p)) for p in (
        shared, [iv for iv in result.extender_partition if iv not in shared],
        [iv for iv in result.relative_partition if iv not in shared]))
    tamper = data.draw(st.sampled_from([None, *JOINT_TAMPERINGS]))
    if tamper:
        parts = tamper(parts, data.draw(st.integers(0, 60)))
    view = result.extender._view
    codec = view.reading(itertools.chain(*itertools.chain(*itertools.chain(*parts))))
    joint, alone = _joint_and_alone(view, result.base.faces, parts, codec)
    assert joint == alone
    families = (result.extender.faces, relative_family(result.extender, result.base).faces)
    for report, members, claim in zip(alone, families, (parts[0] + parts[1],
                                                        parts[0] + parts[2])):
        assert (report.valid, report.violation, report.interval_stats) == \
            verify_by_enumeration(members, claim)
    if tamper is None:
        assert all(report.valid for report in joint)


@pytest.mark.parametrize("removed, parts, violations", [
    # {1} is listed by a shared interval and by an own one, {2} by none.
    ([], ([([], [1])], [([1], [1])], [([2], [2])]),
     ("face {1} is covered twice", None)),
    # The shared interval holds {}, which the subfamily lacks.
    ([[]], ([([], [1])], [([2], [2])], []),
     (None, "interval [{}, {1}] requires {}, which is not a member")),
])
def test_joint_check_refuses_claims_of_the_right_size(removed, parts, violations):
    # Each claim lists as many faces as its family has members, so only the
    # disjointness of shared and own faces, or the subfamily's membership,
    # refuses it; the reports are those of each certificate alone.
    codec = _MaskCodec([1, 2])
    view = _MaskView(codec, frozenset(map(codec.mask, ([], [1], [2]))))
    reports, alone = _joint_and_alone(view, removed, parts, codec)
    assert reports == alone
    assert tuple(report.violation for report in reports) == violations


def test_split_relative_certificate_is_refused_through_the_extenders_map():
    # The checker hands the extender's facet-size map to the relative
    # family's verification; the split top is refused there, word for word.
    built = nonpure_extender_for_complex(build_complex([[1, 2, 3], [3, 4], [5]]))
    pairs = list(built.relative_partition)
    split = IntervalPartition(tuple(_split(pairs, next(
        i for i, (b, t) in enumerate(pairs) if b != t))))
    report = verify_partitioning(relative_family(built.extender, built.base), split)
    assert "is not maximal" in report.violation
    handmade = ExtenderResult(built.extender, built.base, built.extender_partition,
                              split, ())
    with pytest.raises(InvalidResult) as excinfo:
        handmade.h_vectors
    assert str(excinfo.value) == f"relative certificate: {report.violation}"


class _CountedSet(set):
    """A set that counts its membership tests."""

    tests = 0

    def __contains__(self, item):
        self.tests += 1
        return super().__contains__(item)


def test_naming_an_offence_is_bounded_by_the_family():
    # The top is a member and {} is not: the walk meets {} first, where a
    # scan of the gap's submasks would test each of its 2**16 faces.
    top = fs(range(1, 17))
    fam = FaceFamily(fs({top, top - {1}}), 15)
    members, codec = _CountedSet(fam._view.masks), fam._view.codec
    pairs = [(0, codec.mask(top))]
    report = partitions._verify_masks(_MaskView(codec, members), pairs, codec)
    assert report.violation == (
        f"interval [{{}}, {format_face(top)}] requires {{}}, which is not a member")
    assert members.tests <= len(members) + len(pairs) + 2


def test_offence_walk_reads_faces_in_label_order_not_bit_order():
    # A codec may hold its labels out of order.  {3} has the lowest bit,
    # but the least offending face by face_key is {2}.
    codec = _MaskCodec([3, 1, 2])
    members = {codec.mask(f) for f in ([], [1], [1, 2, 3])}
    report = partitions._verify_masks(
        _MaskView(codec, members), [(0, codec.mask([1, 2, 3]))], codec)
    assert report.violation == "interval [{}, {1,2,3}] requires {2}, which is not a member"


@settings(max_examples=80, deadline=None)
@given(cycles_with_faces(), st.data())
def test_complexs_facet_sizes_serve_its_relative_families(c, data):
    faces = sorted(c.faces, key=face_key)
    small_faces = data.draw(st.lists(st.sampled_from(faces), max_size=2))
    relative = _oracle_families(c, small_faces, ())[1]
    members, sizes = relative._view.masks, _facet_sizes(c._view.masks)
    assert {m: sizes[m] for m in members} == _facet_sizes(members)
    for pairs in itertools.islice(all_partitionings(relative.faces), 4):
        i = data.draw(st.integers(0, max(len(pairs) - 1, 0)))
        for claim in [pairs, *(tamper(pairs, i) for tamper in TAMPERINGS if pairs)]:
            codec = relative._view.reading(itertools.chain(*itertools.chain(*claim)))
            masks = [(codec.mask(b), codec.mask(t)) for b, t in claim]
            assert partitions._verify_masks(relative._view, masks, codec) \
                == partitions._verify_masks(_MaskView(codec, members), masks, codec)


def test_checks_of_one_complex_read_one_facet_size_map(monkeypatch):
    # The search builds the complex's map on its view; the layer and h
    # checks and every later verification read that map again.
    c = build_complex([[1, 2, 3], [3, 4], [5]])
    p = find_partitioning(c)
    calls = []
    monkeypatch.setattr(complexes, "_facet_sizes", lambda masks: calls.append(masks))
    assert is_layer_compatible(c, p) and is_h_compatible(c, p)
    assert verify_partitioning(c, p).valid and verify_partitioning(c, p).valid
    assert calls == []


def test_relative_family_reads_its_complexs_facet_size_map(monkeypatch):
    c = build_complex([[1, 2, 3], [3, 4], [5]])
    relative = relative_family(c, build_complex([[1, 2], [5]]))
    calls, original = [], complexes._facet_sizes

    def counted(masks):
        calls.append(len(masks))
        return original(masks)
    monkeypatch.setattr(complexes, "_facet_sizes", counted)
    assert f_triangle(relative) == f_triangle(FaceFamily(relative.faces, relative.dim))
    f_triangle(c)
    assert calls == [len(c.faces), len(relative.faces)]  # the second is the copy's


def test_bottom_outside_its_top_is_refused_though_the_faces_cover():
    # The faces {2} + subsets of {1} and {} + subsets of {1} are the whole
    # square, once each, and both tops have one vertex.
    fam = FaceFamily(frozenset(subsets_of(fs({1, 2}))), 1)
    pairs = [(fs({2}), fs({1})), (fs(), fs({1}))]
    report = verify_partitioning(fam, IntervalPartition(tuple(pairs)))
    assert report.violation == "top of [{2}, {1}] is not maximal: it is contained in {1,2}"
    assert (report.valid, report.violation, report.interval_stats) \
        == verify_by_enumeration(fam.faces, pairs)


def test_foreign_top_of_forty_vertices_is_refused_at_once():
    # Listing its 2**40 faces would not end; the family has seven members.
    top = list(range(1, 41))
    report = verify_partitioning(TRIANGLE_BOUNDARY, part(([], top)))
    assert report.violation == (
        f"top of [{{}}, {{{','.join(map(str, top))}}}] is not a member")
    assert report.interval_stats == (((40, 0), 1),)


def test_valid_claims_never_reach_the_offence_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("a valid claim reached the walk")

    monkeypatch.setattr(partitions, "_name_offence", refuse)
    construct._partition_extender.cache_clear()
    try:
        for build, base in ((extender_for_complex, BOWTIE),
                            (nonpure_extender_for_complex,
                             build_complex([[1, 2, 3], [3, 4], [5]]))):
            h_decomposition(build(base))
    finally:
        construct._partition_extender.cache_clear()
    report = verify_partitioning(SEED_31_FAMILY, SEED_31_INTERVALS)
    assert report.valid and report.violation is None


def test_verify_stats_account_for_every_member():
    report = verify_partitioning(SEED_31_FAMILY, SEED_31_INTERVALS)
    covered = sum(count * 2 ** (i - j)
                  for (i, j), count in report.interval_stats)
    assert covered == len(SEED_31_FAMILY.faces)


def test_h_from_partitioning_seed():
    assert h_from_partitioning(SEED_31_FAMILY, SEED_31_INTERVALS) == (0, 2, 3, 0, 0)


def test_h_from_partitioning_triangle_boundary():
    p = part(([], [1, 2]), ([3], [1, 3]), ([2, 3], [2, 3]))
    assert h_from_partitioning(TRIANGLE_BOUNDARY, p) == (1, 1, 1)
    assert h_vector(TRIANGLE_BOUNDARY) == (1, 1, 1)


def test_h_from_partitioning_empty_family():
    fam = FaceFamily(fs(), 1)
    assert h_from_partitioning(fam, part()) == (0, 0, 0)


def test_h_from_partitioning_rejects_invalid():
    with pytest.raises(InvalidPartitioning):
        h_from_partitioning(TRIANGLE_BOUNDARY, part(([], [1, 2])))


TRIANGLE_PLUS_VERTEX = build_complex([[1, 2], [1, 3], [2, 3], [4]])
LAYERED = part(([], [1, 2]), ([3], [1, 3]), ([2, 3], [2, 3]), ([4], [4]))
UNLAYERED = part(([], [4]), ([1], [1, 2]), ([3], [1, 3]), ([2], [2, 3]))


def test_layer_compatibility():
    assert is_layer_compatible(TRIANGLE_PLUS_VERTEX, LAYERED)
    assert not is_layer_compatible(TRIANGLE_PLUS_VERTEX, UNLAYERED)


def test_layer_compatibility_trivial_for_pure():
    p = find_partitioning(TRIANGLE_BOUNDARY)
    assert is_layer_compatible(TRIANGLE_BOUNDARY, p)


def test_h_compatibility():
    assert is_h_compatible(TRIANGLE_PLUS_VERTEX, LAYERED)
    assert not is_h_compatible(TRIANGLE_PLUS_VERTEX, UNLAYERED)


def test_h_compatibility_pure_reduces_to_h_vector():
    p = find_partitioning(TRIANGLE_BOUNDARY)
    assert is_h_compatible(TRIANGLE_BOUNDARY, p)
    assert h_from_partitioning(TRIANGLE_BOUNDARY, p) == h_vector(TRIANGLE_BOUNDARY)


def test_layer_checks_require_valid_partitioning():
    with pytest.raises(InvalidPartitioning):
        is_layer_compatible(TRIANGLE_PLUS_VERTEX, part(([], [1, 2])))
    with pytest.raises(InvalidPartitioning):
        is_h_compatible(TRIANGLE_PLUS_VERTEX, part(([], [1, 2])))


def test_find_partitioning_bowtie_exhausts():
    assert find_partitioning(BOWTIE) is None
    assert naive_find_partitioning(BOWTIE.faces) is None


def test_find_partitioning_k4_plus_edges_exhausts():
    assert find_partitioning(K4_PLUS_EDGES) is None
    assert naive_find_partitioning(K4_PLUS_EDGES.faces) is None


def test_find_partitioning_triangle_boundary():
    p = find_partitioning(TRIANGLE_BOUNDARY)
    assert p is not None
    assert verify_partitioning(TRIANGLE_BOUNDARY, p).valid
    assert h_from_partitioning(TRIANGLE_BOUNDARY, p) == (1, 1, 1)


def test_find_partitioning_deterministic():
    assert find_partitioning(TRIANGLE_BOUNDARY) == find_partitioning(TRIANGLE_BOUNDARY)


def test_find_partitioning_on_families():
    for fam in (OFF_FACET, OFF_FACET_PLUS, SEED_31_FAMILY):
        found = find_partitioning(fam)
        naive = naive_find_partitioning(fam.faces)
        assert found is not None and naive is not None
        assert verify_partitioning(fam, found).valid


def test_find_partitioning_on_a_long_path_takes_the_counted_bottoms():
    # h = (1, 1199, 0): no edge may be its own bottom, so each edge past the
    # first takes its second vertex instead of being undone much later.
    path = build_complex([[i, i + 1] for i in range(1200)])
    found = find_partitioning(path, max_members=len(path.faces))
    assert [sorted(b) for b, _ in found] == [[]] + [[i] for i in range(2, 1201)]


def test_find_partitioning_refuses_negative_h_at_the_root(monkeypatch):
    # The bowtie has h = (1, 2, -1, 0); the search never starts.
    monkeypatch.setattr(partitions, "_submasks", None)
    assert find_partitioning(BOWTIE) is None


def test_find_partitioning_size_limit():
    with pytest.raises(SizeLimitExceeded):
        find_partitioning(BOWTIE, max_members=5)


@settings(max_examples=60, deadline=None)
@given(small_complexes())
def test_find_partitioning_agrees_with_naive_enumeration(c):
    found = find_partitioning(c)
    naive = naive_find_partitioning(c.faces)
    assert (found is None) == (naive is None)
    if found is not None:
        assert verify_partitioning(c, found).valid


def _assert_unpruned_witness(fam):
    found = find_partitioning(fam)
    first = first_partitioning_by_backtracking(fam.faces)
    assert found == (None if first is None else IntervalPartition.of(first))


@settings(max_examples=80, deadline=None)
@given(complex_pairs(), st.data())
def test_find_partitioning_witness_matches_unpruned_search(pair, data):
    big, small = pair
    # A family of some faces, neither closed nor relative: its tops may
    # have subsets outside it.
    faces = sorted(big.faces, key=face_key)
    some_faces = data.draw(st.lists(st.sampled_from(faces), unique=True))
    for fam in (big, relative_family(big, small),
                FaceFamily(frozenset(some_faces), big.dim)):
        _assert_unpruned_witness(fam)


@settings(max_examples=80, deadline=None)
@given(pure_complexes(max_dim=2, max_facets=6))
@example(build_complex([[1, 4], [1, 5], [1, 6], [2, 3], [5, 6]]))
def test_pruned_search_backtracks_to_the_unpruned_witness(c):
    # Pure graphs and 2-complexes backtrack past chosen intervals, so each
    # undone interval must give its bottom size back.
    _assert_unpruned_witness(c)


@settings(max_examples=60, deadline=None)
@given(small_complexes(min_facets=1))
def test_interval_counts_give_h_vector_on_pure_families(c):
    pure = build_complex([f for f in c.facets if len(f) == c.dim + 1])
    p = find_partitioning(pure)
    if p is not None:
        assert h_from_partitioning(pure, p) == h_vector(pure)


@settings(max_examples=60, deadline=None)
@given(small_complexes(min_facets=1))
def test_layer_compatible_implies_h_compatible(c):
    p = find_partitioning(c)
    if p is not None and is_layer_compatible(c, p):
        assert is_h_compatible(c, p)


def _oracle_families(c, small_faces, some_faces):
    """The complex itself, its relative family over a subcomplex, and a
    family of some of its faces, which need be neither."""
    return (c, relative_family(c, build_complex(small_faces)),
            FaceFamily(frozenset(some_faces), c.dim))


@settings(max_examples=120, deadline=None)
@given(cycles_with_faces(), st.data())
def test_f_triangle_and_layer_check_match_oracles(c, data):
    faces = sorted(c.faces, key=face_key)
    small_faces = data.draw(st.lists(st.sampled_from(faces), max_size=2))
    some_faces = data.draw(st.lists(st.sampled_from(faces), unique=True))
    for fam in _oracle_families(c, small_faces, some_faces):
        members, d = fam.faces, fam.dim
        assert f_triangle(fam) == f_triangle_by_definition(members, d)
        for pairs in itertools.islice(all_partitionings(members), 12):
            p = IntervalPartition.of(pairs)
            assert is_layer_compatible(fam, p) == \
                layer_compatible_by_definition(members, d, pairs)


@settings(max_examples=120, deadline=None)
@given(cycles_with_faces(), st.data())
def test_relative_family_reads_as_a_family_encoded_apart(c, data):
    # The relative family shares the complex's codec; a family of the same
    # faces encodes them over its own labels.  Interval faces are drawn from
    # the complex and beyond it (labels 8 and 9), so invalid reports and
    # labels outside either codec are read too.
    faces = sorted(c.faces, key=face_key)
    small_faces = data.draw(st.lists(st.sampled_from(faces), max_size=2))
    relative = _oracle_families(c, small_faces, ())[1]
    apart = FaceFamily(relative.faces, relative.dim)
    assert relative._view.codec is c._view.codec
    assert apart._view.codec is not c._view.codec
    drawn = data.draw(st.lists(st.tuples(
        st.sampled_from(faces), st.frozensets(st.integers(1, 9), max_size=2)), max_size=4))
    candidates = [*itertools.islice(all_partitionings(relative.faces), 6),
                  [(b, b | extra) for b, extra in drawn]]
    for pairs in candidates:
        p = IntervalPartition.of(pairs)
        assert verify_partitioning(relative, p) == verify_partitioning(apart, p)
    assert find_partitioning(relative) == find_partitioning(apart)


def test_cycle_with_vertex_has_both_layer_verdicts():
    # The empty face may top out at the vertex 5 instead of at an edge.
    c = build_complex([[1, 2], [2, 3], [3, 4], [4, 1], [5]])
    verdicts = set()
    for pairs in all_partitionings(c.faces):
        verdict = is_layer_compatible(c, IntervalPartition.of(pairs))
        assert verdict == layer_compatible_by_definition(c.faces, c.dim, pairs)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_check_shelling_order_triangle_boundary():
    order = [fs([1, 2]), fs([1, 3]), fs([2, 3])]
    assert check_shelling_order(TRIANGLE_BOUNDARY, order)


def test_check_shelling_order_bowtie_fails():
    assert not check_shelling_order(BOWTIE, [fs([1, 2, 3]), fs([3, 4, 5])])
    assert not check_shelling_order(BOWTIE, [fs([3, 4, 5]), fs([1, 2, 3])])


def test_check_shelling_order_relative():
    big = build_complex([[1, 2], [2, 3]])
    small = build_complex([[1, 2]])
    assert check_shelling_order(big, [fs([2, 3])], small)


def test_check_shelling_order_relative_first_step_counts():
    # {2} and {3} are both minimal in the first step family, so no order
    # can shell this pair.
    big = build_complex([[1, 2, 3]])
    small = build_complex([[1]])
    assert not check_shelling_order(big, [fs([1, 2, 3])], small)


def test_check_shelling_order_rejects_non_permutation():
    with pytest.raises(NotAPermutation):
        check_shelling_order(TRIANGLE_BOUNDARY, [fs([1, 2])])


@settings(max_examples=200, deadline=None)
@given(small_complexes(labels=5, max_facets=5, max_size=4),
       st.frozensets(st.integers(1, 5), max_size=4))
def test_restriction_face_is_the_unique_minimal_new_face(c, facet):
    new = {s for s in subsets_of(facet) if s not in c.faces}
    minimal = [s for s in new if not any(t < s for t in new)]
    codec = c._view.reading(facet)
    top = codec.mask(facet)
    bottom = partitions._restriction(top, set(c._view.masks))
    assert (bottom is not None) == (len(minimal) == 1)
    if bottom is not None:
        assert minimal == [codec.face[bottom]]
        step = {codec.face[m] for m in partitions._interval(bottom, top)}
        assert step == cube(codec.face[bottom], facet) == new


def test_shelling_reads_no_maximal_faces_and_no_subsets(monkeypatch):
    big, small = build_complex([[1, 2], [2, 3]]), build_complex([[1, 2]])

    def forbidden(*args):
        raise AssertionError("the shelling functions read steps off intervals")

    # A step walks the faces of its own interval only: the faces it adds.
    walked, submasks = [], partitions._submasks

    def counted(gap):
        walked.append(1 << gap.bit_count())
        return submasks(gap)
    monkeypatch.setattr(complexes, "_facet_sizes", forbidden)
    monkeypatch.setattr(partitions, "_submasks", counted)
    order = find_shelling(TRIANGLE_BOUNDARY)
    assert order == (fs([1, 2]), fs([1, 3]), fs([2, 3]))
    walked.clear()
    assert check_shelling_order(TRIANGLE_BOUNDARY, order)
    assert walked == [4, 2, 1]  # [{}, {1,2}], then [{3}, {1,3}], then {2,3}
    assert find_shelling(big, small) == (fs([2, 3]),)
    walked.clear()
    assert check_shelling_order(big, [fs([2, 3])], small)
    assert walked == [2]  # [{3}, {2,3}]


def _triangle_corpus():
    """20 pure 2-complexes on the labels 1..8 from ``random.Random(5)``;
    the i-th has (20, 22, 24)[i % 3] distinct triangles."""
    rng = random.Random(5)
    corpus = []
    for i in range(20):
        triangles = set()
        while len(triangles) < (20, 22, 24)[i % 3]:
            triangles.add(fs(rng.sample(range(1, 9), 3)))
        corpus.append(build_complex(triangles))
    return corpus


# The members of the corpus that are shellable; the other 7 take seconds
# to refute, so they stay out of the suite.
SHELLABLE_CORPUS = (0, 1, 2, 4, 5, 6, 8, 12, 13, 14, 16, 17, 19)


def test_find_shelling_matches_the_oracle_on_the_shellable_corpus():
    corpus = _triangle_corpus()
    for i in SHELLABLE_CORPUS:
        order = find_shelling(corpus[i], max_facets=100)
        assert order is not None
        assert order == first_shelling_by_backtracking(corpus[i])
        assert check_shelling_order(corpus[i], order)


def test_find_shelling():
    order = find_shelling(TRIANGLE_BOUNDARY)
    assert order is not None
    assert check_shelling_order(TRIANGLE_BOUNDARY, order)
    assert find_shelling(BOWTIE) is None
    assert find_shelling(build_complex([[1, 2, 3]])) == (fs([1, 2, 3]),)


OCTAHEDRON = [[a, b, c] for a in (1, 2) for b in (3, 4) for c in (5, 6)]


@pytest.mark.parametrize("pinched", [1, 2, 3, 4])
def test_find_shelling_refutes_octahedron_with_pinched_triangles(pinched):
    # A triangle meeting the rest in one vertex can never be shelled on.
    c = build_complex(OCTAHEDRON + [[1, 7 + 2 * i, 8 + 2 * i] for i in range(pinched)])
    assert len(c.facets) == 8 + pinched
    assert find_shelling(c) is None


@settings(max_examples=80, deadline=None)
@given(st.one_of(complex_pairs(),
                 pure_complexes(max_facets=6).map(lambda c: (c, build_complex([])))))
def test_find_shelling_witness_matches_unmemoized_search(pair):
    big, small = pair
    assert find_shelling(big, small) == first_shelling_by_backtracking(big, small.faces)


def test_find_shelling_size_limit():
    with pytest.raises(SizeLimitExceeded):
        find_shelling(K4_PLUS_EDGES, max_facets=3)


@settings(max_examples=40, deadline=None)
@given(pure=small_complexes(min_facets=1))
def test_shellable_implies_partitionable(pure):
    c = build_complex([f for f in pure.facets if len(f) == pure.dim + 1])
    order = find_shelling(c)
    if order is not None and len(c.faces) <= 40:
        assert find_partitioning(c) is not None


def _outcome(check, *args):
    try:
        return check(*args)
    except ExtendersError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(small_complexes(), st.data())
def test_complex_and_its_family_give_the_same_answers(c, data):
    """Each statistic and check reads the same face set from a complex as
    from the family it copies into; the checks run on valid witnesses and on
    those of a relative family."""
    fam = FaceFamily(c.faces, c.dim)
    for stat in (f_vector, h_vector, f_triangle, h_triangle):
        assert _outcome(stat, c) == _outcome(stat, fam)
    small = build_complex(data.draw(st.lists(st.sampled_from(sorted(c.faces, key=face_key)),
                                             max_size=3)) if c.faces else [])
    witnesses = [_outcome(find_partitioning, x) for x in (c, fam)]
    assert witnesses[0] == witnesses[1]
    candidates = [witnesses[0], find_partitioning(relative_family(c, small))]
    for p in candidates:
        if not isinstance(p, IntervalPartition):
            continue
        for check in (verify_partitioning, h_from_partitioning,
                      is_layer_compatible, is_h_compatible):
            assert _outcome(check, c, p) == _outcome(check, fam, p)
