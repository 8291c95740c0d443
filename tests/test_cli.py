import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import extenders
from extenders import cli, complexes, construct
from extenders.cli import main
from extenders.errors import InternalCheckError

BOWTIE = {"name": "bowtie", "facets": [[1, 2, 3], [3, 4, 5]]}
TRIANGLE = {"facets": [[1, 2], [1, 3], [2, 3]]}
TWO_EDGES = {"facets": [[1, 2], [3, 4]]}
TWO_TRIANGLES = {"facets": [[1, 2, 3], [4, 5, 6]]}


@pytest.fixture
def write(tmp_path):
    def _write(name, payload):
        target = tmp_path / name
        if isinstance(payload, str):
            target.write_text(payload)
        else:
            target.write_text(json.dumps(payload))
        return str(target)
    return _write


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_info_text(write, capsys):
    path = write("bowtie.json", BOWTIE)
    status, out, _ = run(capsys, "info", path)
    assert status == 0
    assert "f-vector: (1, 5, 6, 2)" in out
    assert "h-vector: (1, 2, -1, 0)" in out
    assert "pure: yes" in out


def test_info_json(write, capsys):
    path = write("bowtie.json", BOWTIE)
    status, out, _ = run(capsys, "info", path, "--json")
    report = json.loads(out)
    assert status == 0
    assert report["command"] == "info"
    assert report["result"]["h_vector"] == [1, 2, -1, 0]
    assert report["input"]["name"] == "bowtie"


def test_text_format_and_empty_facet_line(write, capsys):
    path = write("c.txt", "1 2\n-\n3\n")
    status, out, _ = run(capsys, "info", path)
    assert status == 0
    assert "f-vector: (1, 3, 1)" in out


def test_empty_file_is_void(write, capsys):
    path = write("void.txt", "")
    status, out, _ = run(capsys, "info", path)
    assert status == 0
    assert "void: yes" in out


def test_parse_error_reports_position(write, capsys):
    path = write("bad.txt", "1 2\n3 x\n")
    status, _, err = run(capsys, "info", path)
    assert status == 2
    assert ":2:3:" in err


@pytest.mark.parametrize("text, where, message", [
    # int() reads 1_2 as 12 and the Arabic-Indic digit three as 3.
    ("1 2\n1_2 _\n", "2:1", "expected an integer label, got '1_2'"),
    ("1 2\n٣\n", "2:1", "expected an integer label, got '٣'"),
    # The bad token's text also starts an earlier, valid token.
    ("1 2\n+1 +\n", "2:4", "expected an integer label, got '+'"),
    ("1 2\n 4  -3\n", "2:5", "labels must be nonnegative"),
])
def test_text_label_errors_name_the_token(tmp_path, capsys, text, where, message):
    target = tmp_path / "bad.txt"
    target.write_text(text, encoding="utf-8")
    status, out, err = run(capsys, "info", str(target))
    assert (status, out) == (2, "")
    assert err == f"error: {target}:{where}: {message}\n"


def test_bad_json_reports_position(write, capsys):
    path = write("bad.json", "{\"facets\": [[1, 2]")
    status, _, err = run(capsys, "info", path)
    assert status == 2
    assert "invalid JSON" in err


def test_partitionable_exit_codes(write, capsys):
    bowtie = write("bowtie.json", BOWTIE)
    status, out, _ = run(capsys, "partitionable", bowtie)
    assert status == 1 and "not partitionable" in out
    triangle = write("triangle.json", TRIANGLE)
    status, out, _ = run(capsys, "partitionable", triangle)
    assert status == 0 and "not partitionable" not in out


def test_partitionable_size_limit_names_flag(write, capsys):
    bowtie = write("bowtie.json", BOWTIE)
    status, _, err = run(capsys, "partitionable", bowtie, "--max-faces", "3")
    assert status == 2
    assert "--max-faces" in err


def test_shellable_size_limit_names_flag(write, capsys):
    triangle = write("triangle.json", TRIANGLE)
    status, _, err = run(capsys, "shellable", triangle, "--max-facets", "1")
    assert status == 2
    assert "--max-facets" in err


def test_deeply_nested_json_is_input_error(write):
    deep = write("deep.json", "[" * 100000)
    package_root = os.path.dirname(os.path.dirname(extenders.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, "-m", "extenders.cli", "info", deep],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("script", [["certificate_demo.py"], ["growth_table.py", "3"]])
def test_script_runs(script):
    package_root = os.path.dirname(os.path.dirname(extenders.__file__))
    path = os.path.join(os.path.dirname(package_root), "scripts", script[0])
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, path, *script[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr


def test_verify_partition_files(write, capsys):
    triangle = write("triangle.json", TRIANGLE)
    good = write("good.json", [
        {"bottom": [], "top": [1, 2]},
        {"bottom": [3], "top": [1, 3]},
        {"bottom": [2, 3], "top": [2, 3]}])
    status, out, _ = run(capsys, "verify-partition", triangle, good)
    assert status == 0 and "valid" in out
    bad = write("bad.json", [{"bottom": [], "top": [1, 2]}])
    status, out, _ = run(capsys, "verify-partition", triangle, bad)
    assert status == 1 and "not covered" in out


def test_verify_partition_report_refuses_minus(write, capsys, tmp_path):
    bowtie = write("bowtie.json", BOWTIE)
    out = run(capsys, "build-extender", bowtie, "--json")[1]
    report = tmp_path / "report.json"
    report.write_text(out)
    status, out, err = run(capsys, "verify-partition", str(report), "--minus", bowtie)
    assert status == 2 and out == "" and _single_error_line(err)
    assert "--minus" in err


@pytest.mark.parametrize("argv", [
    ["partitionable", "{bowtie}", "--minus", "{nine}"],
    ["shellable", "{bowtie}", "--minus", "{nine}"],
    ["shelling-check", "{bowtie}", "{order}", "--minus", "{nine}"],
    ["verify-partition", "{bowtie}", "{intervals}", "--minus", "{nine}"],
    ["rel-cm-check", "{bowtie}", "{nine}"],
])
def test_non_subcomplex_has_one_message(argv, write, capsys):
    paths = {"bowtie": write("bowtie.json", BOWTIE),
             "nine": write("nine.json", {"facets": [[9]]}),
             "order": write("order.json", BOWTIE["facets"]),
             "intervals": write("intervals.json", [])}
    status, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (status, out) == (2, "")
    assert err == "error: face {9} of the subcomplex is missing from the ambient complex\n"


def test_verify_partition_relative(write, capsys):
    square_tail = write("sq.json", {"facets": [[1, 2], [2, 3], [3, 4], [2, 4]]})
    small = write("small.json", {"facets": [[1, 2]]})
    intervals = write("iv.json", [
        {"bottom": [2, 3], "top": [2, 3]},
        {"bottom": [3], "top": [3, 4]},
        {"bottom": [4], "top": [2, 4]}])
    status, out, _ = run(capsys, "verify-partition", square_tail, intervals,
                         "--minus", small)
    assert status == 0 and "valid" in out


def test_build_extender_report_and_read_back(write, capsys, tmp_path):
    edges = write("edges.json", TWO_EDGES)
    status, out, _ = run(capsys, "build-extender", edges, "--json")
    assert status == 0
    report = json.loads(out)
    result = report["result"]
    assert result["added_vertices"] == 8
    assert result["added_faces"] == 21
    h = result["h"]
    diff = [a - b for a, b in zip(h["extender"], h["relative"])]
    assert diff == h["base"] == [1, 2, -1]
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    status, out, _ = run(capsys, "verify-partition", str(report_path))
    assert status == 0 and "all valid" in out


def test_build_extender_bowtie_h_identity(write, capsys):
    bowtie = write("bowtie.json", BOWTIE)
    status, out, _ = run(capsys, "build-extender", bowtie, "--json")
    assert status == 0
    h = json.loads(out)["result"]["h"]
    assert [a - b for a, b in zip(h["extender"], h["relative"])] == [1, 2, -1, 0]


def test_build_extender_rejects_nonpure_without_flag(write, capsys):
    mixed = write("mixed.json", {"facets": [[1, 2], [3]]})
    status, _, err = run(capsys, "build-extender", mixed)
    assert status == 2 and "nonpure" in err
    status, out, _ = run(capsys, "build-extender", mixed, "--nonpure", "--json")
    assert status == 0
    report = json.loads(out)
    assert report["result"]["h_triangle"]["base"] == [[0], [0, 1], [1, 0, 0]]


def test_depth_and_char_flag(write, capsys):
    bowtie = write("bowtie.json", BOWTIE)
    status, out, _ = run(capsys, "depth", bowtie)
    assert status == 0 and "depth: 2" in out
    status, out, _ = run(capsys, "depth", bowtie, "--char", "2")
    assert status == 0 and "depth: 2" in out
    status, _, err = run(capsys, "depth", bowtie, "--char", "4")
    assert status == 2
    status, out, _ = run(capsys, "depth", bowtie, "--char", str(2 ** 31 - 1))
    assert status == 0 and "depth: 2" in out


# Trial division up to the square root of the first two would take minutes;
# every characteristic from 2^31 up is refused by its size alone.
@pytest.mark.parametrize("char", [2 ** 61 - 1, 4294967291 * 2147483647, 2 ** 31])
def test_char_at_or_above_2_31_is_refused_at_once(write, capsys, char):
    bowtie = write("bowtie.json", BOWTIE)
    start = time.perf_counter()
    status, out, err = run(capsys, "depth", bowtie, "--char", str(char))
    assert time.perf_counter() - start < 5
    assert (status, out) == (2, "")
    assert _single_error_line(err) and "prime below 2^31" in err


def test_depth_json_includes_homology_block(write, capsys):
    bowtie = write("bowtie.json", BOWTIE)
    status, out, _ = run(capsys, "depth", bowtie, "--json")
    assert status == 0
    result = json.loads(out)["result"]
    assert result["depth"] == 2
    assert result["homology"] == {
        "field": 0, "betti": {"-1": 0, "0": 0, "1": 0, "2": 0}}


def test_cm_check_exit_codes(write, capsys):
    simplex = write("simplex.json", {"facets": [[1, 2, 3]]})
    assert run(capsys, "cm-check", simplex)[0] == 0
    bowtie = write("bowtie.json", BOWTIE)
    status, out, _ = run(capsys, "cm-check", bowtie)
    assert status == 1 and "not Cohen-Macaulay" in out


def test_rel_cm_check(write, capsys):
    lid = write("lid.json", {"facets": [[1, 2, 3], [3, 4, 5], [2, 3, 4]]})
    bowtie = write("bowtie.json", BOWTIE)
    assert run(capsys, "rel-cm-check", lid, bowtie)[0] == 0
    skeleton = write("skel.json", {"facets": [
        [1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 2, 6], [1, 3, 4], [1, 3, 5],
        [1, 3, 6], [1, 4, 5], [1, 4, 6], [1, 5, 6], [2, 3, 4], [2, 3, 5],
        [2, 3, 6], [2, 4, 5], [2, 4, 6], [2, 5, 6], [3, 4, 5], [3, 4, 6],
        [3, 5, 6], [4, 5, 6]]})
    two = write("two.json", TWO_TRIANGLES)
    assert run(capsys, "rel-cm-check", skeleton, two)[0] == 1


def test_cm_extender_witness(write, capsys):
    two = write("two.json", TWO_TRIANGLES)
    status, out, _ = run(capsys, "cm-extender", two, "--json")
    assert status == 1
    result = json.loads(out)["result"]
    assert result == {"exists": False, "witness_face": [], "witness_degree": 0}
    bowtie = write("bowtie.json", BOWTIE)
    status, out, _ = run(capsys, "cm-extender", bowtie, "--json")
    assert status == 0
    assert json.loads(out)["result"]["exists"] is True


def test_shelling_check(write, capsys):
    triangle = write("triangle.json", TRIANGLE)
    order = write("order.txt", "1 2\n1 3\n2 3\n")
    assert run(capsys, "shelling-check", triangle, order)[0] == 0
    bowtie = write("bowtie.json", BOWTIE)
    bad_order = write("bad_order.txt", "1 2 3\n3 4 5\n")
    status, out, _ = run(capsys, "shelling-check", bowtie, bad_order)
    assert status == 1 and "not a shelling order" in out
    not_perm = write("not_perm.txt", "1 2\n")
    assert run(capsys, "shelling-check", triangle, not_perm)[0] == 2


def test_shellable(write, capsys):
    triangle = write("triangle.json", TRIANGLE)
    status, out, _ = run(capsys, "shellable", triangle)
    assert status == 0 and "order:" in out
    bowtie = write("bowtie.json", BOWTIE)
    assert run(capsys, "shellable", bowtie)[0] == 1


def test_searches_on_a_long_path_finish(write, capsys, tmp_path):
    # 1200 facets: one level per facet would pass the interpreter's
    # recursion limit.
    path = write("path.json", {"facets": [[i, i + 1] for i in range(1200)]})
    status, out, err = run(capsys, "partitionable", path, "--max-faces", "5000", "--json")
    assert (status, err) == (0, "")
    report = tmp_path / "path.report.json"
    report.write_text(out)
    assert run(capsys, "verify-partition", str(report))[0] == 0
    status, out, err = run(capsys, "shellable", path, "--max-facets", "5000", "--json")
    assert (status, err) == (0, "")
    order = write("path.order.json", json.loads(out)["result"]["order"])
    assert run(capsys, "shelling-check", path, order)[0] == 0


def test_estimate_size(capsys):
    status, out, _ = run(capsys, "estimate-size", "3", "2")
    assert status == 0
    assert "g(2) = 52" in out and "= 64" in out
    assert run(capsys, "estimate-size", "2", "5")[0] == 2


@pytest.mark.parametrize("d,k", [("14", "14"), ("200", "200"), ("14285", "0")])
def test_estimate_size_refuses_unprintable_bound(capsys, d, k):
    status, out, err = run(capsys, "estimate-size", d, k)
    assert (status, out) == (2, "")
    assert _single_error_line(err) and "more than 4300 digits" in err


def test_estimate_size_prints_largest_bound(capsys):
    status, out, _ = run(capsys, "estimate-size", "14284", "0", "--json")
    assert status == 0
    assert len(str(json.loads(out)["result"]["upper_bound"])) == 4300


def test_partitionable_report_read_back(write, capsys, tmp_path):
    triangle = write("triangle.json", TRIANGLE)
    status, out, _ = run(capsys, "partitionable", triangle, "--json")
    assert status == 0
    report_path = tmp_path / "partition_report.json"
    report_path.write_text(out)
    status, out, _ = run(capsys, "verify-partition", str(report_path))
    assert status == 0 and "all valid" in out


def test_byte_identical_reports(write, capsys):
    bowtie = write("bowtie.json", BOWTIE)
    _, first, _ = run(capsys, "build-extender", bowtie, "--json")
    _, second, _ = run(capsys, "build-extender", bowtie, "--json")
    assert first == second
    _, third, _ = run(capsys, "partitionable", bowtie, "--json")
    _, fourth, _ = run(capsys, "partitionable", bowtie, "--json")
    assert third == fourth


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 1e300, math.nan, math.inf, -math.inf])
_ints = st.integers() | st.integers(-2 ** 100, 2 ** 100)
_scalars = st.none() | st.booleans() | _ints | _floats | st.text()
_encodable = st.recursive(
    _scalars | st.lists(_ints) | st.lists(st.lists(_ints, max_size=4), max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
    | st.lists(_ints | st.booleans(), max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25)


@settings(max_examples=500, deadline=None)
@given(_encodable)
def test_report_encoder_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    {"a": {1, 2}}, [frozenset()], {"a": object()}, {1: "key is not a string"}])
def test_report_encoder_refuses_what_is_not_json(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


@pytest.mark.parametrize("name", [
    "NaN", "1.5", '{"a": [1, [2]]}', '"\u00e9\\n"'])
def test_echoed_name_is_written_as_json_dumps_writes_it(write, capsys, name):
    path = write("named.json", '{"facets": [[1, 2]], "name": %s}' % name)
    status, out, _ = run(capsys, "info", path, "--json")
    envelope = json.loads(out)
    assert status == 0
    assert out == json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    echoed = envelope["input"]["name"]
    expected = json.loads(name)
    assert math.isnan(echoed) if name == "NaN" else echoed == expected


def test_deepest_readable_name_is_written(write):
    # One call per level of nesting, as in json's encoder: a name that
    # json.loads can read back is also written.
    package_root = os.path.dirname(os.path.dirname(extenders.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    depth = 900
    path = write("deep_name.json",
                 '{"facets": [[1]], "name": %s}' % ("[" * depth + "]" * depth))
    proc = subprocess.run([sys.executable, "-m", "extenders.cli", "info", path, "--json"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == json.dumps(json.loads(proc.stdout), sort_keys=True, indent=2) + "\n"


def test_build_extender_on_void_is_input_error(write, capsys):
    void = write("void.txt", "")
    status, _, err = run(capsys, "build-extender", void)
    assert status == 2 and "void" in err.lower()


def _single_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["info", "{bad}"],
    ["info", "{bad_json}"],
    ["verify-partition", "{triangle}", "{bad_json}"],
    ["shelling-check", "{triangle}", "{bad}"],
])
def test_undecodable_file_is_input_error(argv, write, capsys, tmp_path):
    paths = {"triangle": write("triangle.json", TRIANGLE)}
    for name in ("bad", "bad_json"):
        target = tmp_path / ("f.txt" if name == "bad" else "f.json")
        target.write_bytes(b"\xff\xfe[[1, 2]]")
        paths[name] = str(target)
    status, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (status, out) == (2, "")
    assert _single_error_line(err) and "not UTF-8" in err


def test_order_of_bare_labels_is_input_error(write, capsys):
    triangle = write("triangle.json", TRIANGLE)
    order = write("order.json", [1, 2])
    status, out, err = run(capsys, "shelling-check", triangle, order)
    assert (status, out) == (2, "")
    assert _single_error_line(err) and err.startswith(f"error: {order}: ")


def test_certificate_with_scalar_minus_is_input_error(write, capsys):
    report = write("rep.json", {"certificates": [
        {"facets": [[1, 2]], "minus": 5, "intervals": [{"bottom": [], "top": [1, 2]}]}]})
    status, out, err = run(capsys, "verify-partition", report)
    assert (status, out) == (2, "")
    assert _single_error_line(err) and err.startswith(f"error: {report}: ")


def test_oversized_json_integer_is_input_error(write, capsys):
    path = write("big.json", "[[" + "1" * 5000 + "]]")
    status, out, err = run(capsys, "info", path)
    assert (status, out) == (2, "")
    assert _single_error_line(err) and "invalid JSON" in err


def test_internal_check_error_is_not_reported_as_input_error(write, capsys, monkeypatch):
    def broken(c, field):
        raise InternalCheckError("depth readings disagree")
    monkeypatch.setattr(cli, "depth", broken)
    status, out, err = run(capsys, "depth", write("bowtie.json", BOWTIE))
    assert (status, out, err) == (2, "", "internal error: depth readings disagree\n")


def test_nonpure_report_computes_each_h_triangle_once(write, capsys, monkeypatch):
    # Each h-triangle is read from one facet-size map, built once per family.
    calls = Counter()
    original = complexes._facet_sizes

    def counted(members):
        calls[frozenset(members)] += 1
        return original(members)
    for module in (complexes, construct):
        monkeypatch.setattr(module, "_facet_sizes", counted)
    mixed = write("mixed.json", {"facets": [[1, 2, 3], [3, 4], [5]]})
    status, _, _ = run(capsys, "build-extender", mixed, "--nonpure", "--json")
    assert status == 0 and len(calls) == 3 and set(calls.values()) == {1}


# Faces have at most 5 labels: a wide facet makes build_complex exponential.
# Bad labels come from the arbitrary JSON values.
_face = st.lists(st.integers(min_value=0, max_value=5), max_size=5)
_faces = st.lists(_face, max_size=5)
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 7) | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(
        st.sampled_from(["facets", "minus", "intervals", "certificates",
                         "bottom", "top", "label", "name"]), inner, max_size=4),
    max_leaves=20)
_records = st.lists(st.fixed_dictionaries({"bottom": _face, "top": _face}), max_size=5)
_certificate = st.fixed_dictionaries(
    {"facets": _faces, "intervals": _records},
    optional={"minus": st.none() | _faces | _json, "label": _json})
_documents = st.one_of(
    _json, _faces, _records,
    st.fixed_dictionaries({"facets": _faces}, optional={"name": _json}),
    st.fixed_dictionaries({"certificates": st.lists(_certificate, max_size=2)}))
_contents = st.binary(max_size=24) | _documents.map(lambda v: json.dumps(v).encode())
_commands = st.sampled_from([
    ["info", "a"], ["partitionable", "a"], ["partitionable", "a", "--minus", "b"],
    ["verify-partition", "a"], ["verify-partition", "a", "b"],
    ["shelling-check", "a", "b"],
    ["depth", "a", "--char", "x"], ["depth", "a", "--char", "9" * 5000],
    ["depth", "a", "--char", "9" * 4000],
    ["partitionable", "a", "--max-faces", "x"],
    ["shellable", "a", "--max-facets", "x"], ["estimate-size", "3", "x"],
    ["estimate-size", "3", "7" * 3000],
    *(command + char for command in (["depth", "a"], ["cm-check", "a"],
                                     ["cm-extender", "a"], ["rel-cm-check", "a", "b"])
      for char in ([], ["--char", "2"], ["--char", str(2 ** 61 - 1)]))])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=_commands, first=_contents, second=_contents, as_json=st.booleans())
def test_cli_is_total(command, first, second, as_json, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a").write_bytes(first)
    (tmp_path / "b").write_bytes(second)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(command + (["--json"] if as_json else []))
    assert status in (0, 1, 2)
    assert all(len(line.encode()) <= 200 for line in err.getvalue().splitlines())
    if status == 2:
        assert out.getvalue() == "" and _single_error_line(err.getvalue())
    else:
        assert err.getvalue() == "" and out.getvalue().endswith("\n")


def test_one_parser_serves_calls_back_to_back(write, capsys):
    bowtie, edges = write("bowtie.json", BOWTIE), write("edges.json", TWO_EDGES)
    calls = [
        ["info", bowtie, "--json"],
        ["build-extender", edges, "--json"],
        ["partitionable", bowtie],
        ["depth", bowtie, "--char", "2", "--json"],
        ["depth", bowtie, "--char", "two"],
        ["estimate-size", "3", "2"],
        ["cm-check", edges],
        ["info"],
        ["shellable", bowtie, "--json"],
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert cli.build_parser() is cli.build_parser()
    shared = [run(capsys, *argv) for argv in calls]
    assert shared == fresh
    assert [status for status, _, _ in shared] == [0, 0, 1, 0, 2, 0, 1, 2, 1]
