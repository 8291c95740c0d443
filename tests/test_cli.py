import ast
import contextlib
import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import time
import tokenize

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import extenders
from extenders import cli, complexes, homology
from extenders.cli import main
from _oracles import cube, subsets_of

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


def test_info_makes_one_facet_size_pass(write, capsys, monkeypatch):
    # The h-triangle is read off the f-triangle already in hand.
    path = write("mixed.json", {"facets": [[1, 2, 3], [3, 4], [5]]})
    calls = []
    original = complexes._facet_sizes

    def counted(masks):
        calls.append(len(masks))
        return original(masks)
    monkeypatch.setattr(complexes, "_facet_sizes", counted)
    assert run(capsys, "info", path)[0] == 0
    assert calls == [11]  # the empty face, 5 vertices, 4 edges and 1 triangle


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
    # Beyond the digit limit, int() raises ValueError.
    pytest.param("1 2\n" + "9" * 5000 + " 2\n", "2:1", "label has more than 4300 digits",
                 id="label-beyond-the-digit-limit"),
])
def test_text_label_errors_name_the_token(tmp_path, capsys, text, where, message):
    target = tmp_path / "bad.txt"
    target.write_text(text, encoding="utf-8")
    status, out, err = run(capsys, "info", str(target))
    assert (status, out) == (2, "")
    assert err == f"error: {target}:{where}: {message}\n"
    complex_ = tmp_path / "edge.txt"
    complex_.write_text("1 2\n", encoding="utf-8")
    status, out, err = run(capsys, "shelling-check", str(complex_), str(target))
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


@pytest.mark.parametrize("command", ["info", "build-extender", "cm-extender"])
def test_wide_facet_stops_at_the_closure_bound(command, write, capsys, monkeypatch):
    # One facet of 40 labels has 2^40 faces; none is listed and no complex
    # is made.  The bound is fixed, so no flag is named.
    path = write("wide.json", {"facets": [list(range(40))]})
    made = []
    init = complexes.SimplicialComplex.__init__
    monkeypatch.setattr(complexes.SimplicialComplex, "__init__",
                        lambda self, faces: made.append(faces) or init(self, faces))
    status, out, err = run(capsys, command, path)
    assert (status, out, made) == (2, "", [])
    assert _single_error_line(err)
    assert err == ("error: a facet of 40 vertices has 2^40 faces, above the "
                   "closure bound of 262144\n")


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


def test_script_runs():
    # The demo's whole standard output is pinned, byte for byte.
    package_root = os.path.dirname(os.path.dirname(extenders.__file__))
    path = os.path.join(os.path.dirname(package_root), "scripts", "certificate_demo.py")
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, path], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "eba43c2317309027dee24f6ba48758175b07fad2511718ece2e92f60c09ca5a7")


def _console_script_entry():
    """The (module, name) that pyproject.toml's console script calls."""
    # Python 3.10 has no tomllib, so the one line is read with a regex.
    package_root = pathlib.Path(extenders.__file__).resolve().parent.parent
    text = (package_root.parent / "pyproject.toml").read_text(encoding="utf-8")
    entry = re.search(r'^\[project\.scripts\]\nextenders = "([\w.]+):(\w+)"$', text, re.M)
    assert entry is not None
    return entry.groups()


def _entry_argv(entry):
    """The interpreter arguments that start the command line by ``entry``:
    the package or the CLI module run as ``-m``, or the console script's
    wrapper, which exits with what its entry returns."""
    if entry == "console-script":
        module, name = _console_script_entry()
        return ["-c", f"import sys; from {module} import {name}; sys.exit({name}())"]
    return ["-m", entry]


ENTRIES = ["extenders", "extenders.cli", "console-script"]


def test_console_script_names_the_process_entry():
    # The console script calls the one entry that both -m forms run.
    module, name = _console_script_entry()
    assert getattr(importlib.import_module(module), name) is cli.run


def test_package_runs_as_a_module():
    # With the source tree on the path and nothing installed, as tier-1 runs.
    package_root = os.path.dirname(os.path.dirname(extenders.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, "-m", "extenders", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: extenders") and proc.stderr == ""


def test_closed_stdout_exits_2_without_a_traceback(write):
    # The report is larger than a pipe buffer, so the reader is gone while
    # it is written; no answer reached it.
    bowtie = write("bowtie.json", BOWTIE)
    package_root = os.path.dirname(os.path.dirname(extenders.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    for entry in ENTRIES:
        argv = [sys.executable, *_entry_argv(entry), "build-extender", bowtie, "--json"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(4) == b'{\n  '
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2, entry
        assert err == cli._CLOSED_STDOUT + "\n", entry  # one line, no traceback


@pytest.mark.parametrize("entry", ENTRIES)
def test_closed_stdout_at_the_flush_at_exit_exits_2(write, entry):
    # A short report waits in stdout's buffer until the process flushes it,
    # and the pipe's reader is closed before the process starts.
    bowtie = write("bowtie.json", BOWTIE)
    package_root = os.path.dirname(os.path.dirname(extenders.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    env.pop("PYTHONUNBUFFERED", None)
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run([sys.executable, *_entry_argv(entry), "depth", bowtie],
                              stdout=writer, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(writer)
    assert proc.returncode == 2
    assert proc.stderr.decode() == cli._CLOSED_STDOUT + "\n"


def test_closed_stdout_is_one_error_line_in_process(write, capsys, monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    bowtie = write("bowtie.json", BOWTIE)
    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["info", bowtie, "--json"]) == 2
    assert capsys.readouterr().err == cli._CLOSED_STDOUT + "\n"


def test_readme_library_sketch_prints_its_comments():
    # Each bare expression of the sketch is checked against the value its
    # comment gives, on the same line or the next; other lines just run.
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    sketch = sketch.split("```", 1)[0]
    comments = {tok.start[0]: tok.string.lstrip("# ")
                for tok in tokenize.generate_tokens(io.StringIO(sketch).readline)
                if tok.type == tokenize.COMMENT}
    namespace, checked = {}, []
    for stmt in ast.parse(sketch).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        comment = comments.get(stmt.end_lineno) or comments[stmt.end_lineno + 1]
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert value == ast.literal_eval(comment.split(":", 1)[0]), ast.unparse(stmt)
        checked.append(value)
    assert checked == [(1, 2, -1, 0), None,
                       ((1, 46, 37, 18), (0, 44, 38, 18), (1, 2, -1, 0))]


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


def test_report_verification_builds_each_certificate_complex_once(write, capsys, monkeypatch):
    # Both certificates of a build-extender report name the extender's
    # facets; the relative one also names the base's.
    _, report, _ = run(capsys, "build-extender", write("bowtie.json", BOWTIE), "--json")
    path = write("report.json", report)
    built = []
    build = cli._build_checked
    monkeypatch.setattr(cli, "_build_checked", lambda faces: built.append(1) or build(faces))
    # Each built complex has its view from birth and the relative family
    # reads the extender's, so no view is built lazily: the mask views are
    # counted where both classes cache them.
    viewed = []
    for cls in (complexes.SimplicialComplex, complexes.FaceFamily):
        view = cls.__dict__["_view"]
        monkeypatch.setattr(view, "func", lambda x, read=view.func: viewed.append(x) or read(x))
    status, out, _ = run(capsys, "verify-partition", path)
    assert (status, out.splitlines()[-1]) == (0, "all valid")
    assert len(built) == 2
    assert len(viewed) == 0


def test_byte_identical_reports(write, capsys):
    bowtie = write("bowtie.json", BOWTIE)
    _, first, _ = run(capsys, "build-extender", bowtie, "--json")
    _, second, _ = run(capsys, "build-extender", bowtie, "--json")
    assert first == second
    _, third, _ = run(capsys, "partitionable", bowtie, "--json")
    _, fourth, _ = run(capsys, "partitionable", bowtie, "--json")
    assert third == fourth


def _workload_sized_complexes():
    """Seeded complexes shaped like the benchmark's nonpure inputs, 6-10
    triangles with free edges and isolated vertices, with the flags each
    takes; the triangles alone, pure, are built both ways, and so is one
    pure 3-complex."""
    rng = random.Random(33)
    for count in range(6, 11):
        verts = rng.randint(10, 14)
        triangles = sorted(map(sorted, rng.sample(
            list(itertools.combinations(range(verts), 3)), count)))
        covered = {e for t in triangles for e in itertools.combinations(t, 2)}
        edges = [e for e in itertools.combinations(range(verts + 2), 2) if e not in covered]
        extra = [list(e) for e in rng.sample(edges, rng.randint(1, 3))]
        extra += [[verts + 2 + i] for i in range(rng.randint(1, 2))]
        yield triangles + extra, ["--nonpure"]
        if count % 2:
            yield triangles, []
            yield triangles, ["--nonpure"]
    tetrahedra = sorted(map(sorted, rng.sample(list(itertools.combinations(range(7), 4)), 5)))
    yield tetrahedra, []
    yield tetrahedra, ["--nonpure"]


@pytest.mark.parametrize("facets, flags", list(_workload_sized_complexes()))
def test_workload_sized_reports_are_json_dumps_and_log_the_partitions(
        write, capsys, facets, flags):
    status, out, _ = run(capsys, "build-extender", write("in.json", {"facets": facets}),
                         "--json", *flags)
    assert status == 0
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    result = report["result"]

    def order(record):
        return record["top"], record["bottom"]
    for name in ("extender", "relative"):
        logged = [entry[f"{name}_intervals"] for entry in result["attachment_log"]]
        # Each entry's records are in the partition's order, and together
        # they are exactly the partition's records.
        assert all(records == sorted(records, key=order) for records in logged)
        assert sorted(itertools.chain(*logged), key=order) == result[f"{name}_partition"]
    # Each entry's relative intervals cover exactly the faces of the
    # extender that hold one of its fresh vertices, and its extender
    # intervals those faces and its face.
    gamma = {frozenset(f) for facet in result["extender_facets"] for f in subsets_of(facet)}
    for entry in result["attachment_log"]:
        fresh = set(entry["fresh_vertices"])
        added = {f for f in gamma if not fresh.isdisjoint(f)}
        for name, expected in (("relative", added),
                               ("extender", added | {frozenset(entry["face"])})):
            covered = [f for r in entry[f"{name}_intervals"]
                       for f in cube(frozenset(r["bottom"]), frozenset(r["top"]))]
            assert len(covered) == len(expected) and set(covered) == expected


def _drop(entry, other):
    return dataclasses.replace(entry, fresh_vertices=entry.fresh_vertices[:-1]), other


def _move(entry, other):
    *rest, last = entry.fresh_vertices
    return (dataclasses.replace(entry, fresh_vertices=tuple(rest)),
            dataclasses.replace(other, fresh_vertices=(last, *other.fresh_vertices)))


def _swap(entry, other):
    return (dataclasses.replace(entry, fresh_vertices=other.fresh_vertices),
            dataclasses.replace(other, fresh_vertices=entry.fresh_vertices))


@pytest.mark.parametrize("change, message", [
    (_drop, "attachment log has no entry holding interval [{7,23}, {6,7,23}] "
            "of the extender certificate"),
    (_move, "attachment log has no entry holding interval [{7,23}, {6,7,23}] "
            "of the extender certificate"),
    (_swap, "attachment log entry {} lacks its face's interval"),
], ids=["drop", "move", "swap"])
def test_log_that_disagrees_with_its_partitions_is_an_internal_error(
        write, capsys, monkeypatch, change, message):
    """The bowtie's first entry, the empty face's with fresh vertices 6-23,
    loses its last fresh vertex, or gives it to the next entry, the face
    {1}'s, or swaps fresh vertices with that entry.  A wrong
    attachment_facet is caught only when an interval of its entry leaves
    it; one that still holds the base vertices of every such top is not."""
    build = cli.nonpure_extender_for_complex

    def wrong_log(base):
        result = build(base)
        log = list(result.attachment_log)
        log[0], log[1] = change(log[0], log[1])
        return dataclasses.replace(result, attachment_log=tuple(log))
    monkeypatch.setattr(cli, "nonpure_extender_for_complex", wrong_log)
    path = write("bowtie.json", BOWTIE)
    status, out, err = run(capsys, "build-extender", path, "--nonpure", "--json")
    assert (status, out) == (2, "")
    assert err == "internal error: " + message + "\n"


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 1e300, math.nan, math.inf, -math.inf])
_ints = st.integers() | st.integers(-2 ** 100, 2 ** 100)
_scalars = st.none() | st.booleans() | _ints | _floats | st.text()
# Lists shaped like interval records, and near misses: empty values, bools
# among the ints, records with extra keys, and values of other types.
_record_lists = st.lists(st.dictionaries(
    st.sampled_from(["bottom", "top", "extra", "100%"]),
    st.lists(_ints, max_size=3) | st.lists(_ints | st.booleans(), max_size=3) | _scalars,
    max_size=3), min_size=1, max_size=4)
# Keys of log-shaped records; '%' must be escaped in the encoder's row template.
_LOG_KEYS = ["face", "top", "bottom", "100%", "%s"]


@st.composite
def _log_shaped(draw, depth=2):
    """A list of records shaped like the attachment log: one set of keys,
    each key's column holding int lists or, above depth 0, lists of records.
    A nested column is drawn as one list of records and cut between the
    rows, so its records share their keys and some rows get an empty list."""
    keys = draw(st.lists(st.sampled_from(_LOG_KEYS), min_size=1, max_size=3, unique=True))
    rows = draw(st.integers(1, 4))
    columns = []
    for _ in keys:
        if depth and draw(st.booleans()):
            items = draw(_log_shaped(depth - 1))
            cuts = sorted(draw(st.lists(st.integers(0, len(items)),
                                        min_size=rows - 1, max_size=rows - 1)))
            bounds = [0, *cuts, len(items)]
            columns.append([items[a:b] for a, b in zip(bounds, bounds[1:])])
        else:
            columns.append(draw(st.lists(st.lists(_ints, max_size=3),
                                         min_size=rows, max_size=rows)))
    return [dict(zip(keys, values)) for values in zip(*columns)]


def _leaves(records, depth=0):
    """(depth, record, key) for each value of ``records`` that holds no record."""
    for record in records:
        for key, value in record.items():
            if value and type(value[0]) is dict:
                yield from _leaves(value, depth + 1)
            else:
                yield depth, record, key


@st.composite
def _log_near_miss(draw):
    """A log-shaped list with one change: a row's key set differs from the
    others' at the same size, a bool among the ints, a tuple for a list, or
    one int list at two depths."""
    records = draw(_log_shaped())
    leaves = list(_leaves(records))
    _, record, key = draw(st.sampled_from(leaves))
    miss = draw(st.sampled_from(["keys", "bool", "tuple", "shared"]))
    if miss == "keys":
        record[next(k for k in _LOG_KEYS if k not in record)] = record.pop(key)
    elif miss == "bool":
        record[key] = [*record[key], draw(st.booleans())]
    elif miss == "tuple":
        record[key] = tuple(record[key])
    else:
        depth, other, other_key = draw(st.sampled_from(leaves))
        if depth == 0:  # no deeper int list to share
            other[other_key] = [{"top": record[key]}]
        else:
            record[key] = other[other_key]
    return records


_encodable = st.recursive(
    _scalars | st.lists(_ints) | st.lists(st.lists(_ints, max_size=4), max_size=4)
    | _record_lists | _log_shaped() | _log_near_miss(),
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
    | st.lists(_ints | st.booleans(), max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25)
# One object at several depths, as a report shares its face lists.
_shared = _encodable.map(lambda v: {"a": v, "b": [v, {"c": [v, (v,)]}], "d": v})


@settings(max_examples=500, deadline=None)
@given(_encodable | _shared)
def test_report_encoder_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_report_encoder_keeps_no_memo_between_calls():
    # The same list, changed in place between two calls, is encoded afresh.
    faces = [[1, 2], [3]]
    envelope = {"facets": faces, "certificates": [{"facets": faces}]}
    cli._dumps(envelope)
    faces.append([4])
    assert cli._dumps(envelope) == json.dumps(envelope, sort_keys=True, indent=2)


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


@pytest.mark.parametrize("label", ["true", "-1", "1e400", '"a"'])
@pytest.mark.parametrize("as_report", [False, True])
def test_bad_interval_label_is_input_error(write, capsys, label, as_report):
    # Interval faces are read through the same label check as facets.
    records = '[{"bottom": [], "top": [1, 2]}, {"bottom": [%s], "top": [%s, 3]}]' % (
        label, label)
    if as_report:
        argv = [write("rep.json", '{"certificates": [{"facets": %s, "intervals": %s}]}'
                      % (json.dumps(TRIANGLE["facets"]), records))]
    else:
        argv = [write("triangle.json", TRIANGLE), write("iv.json", records)]
    status, out, err = run(capsys, "verify-partition", *argv)
    assert (status, out) == (2, "")
    assert _single_error_line(err)
    assert "vertex labels must be nonnegative integers, got " in err


def test_oversized_json_integer_is_input_error(write, capsys):
    path = write("big.json", "[[" + "1" * 5000 + "]]")
    status, out, err = run(capsys, "info", path)
    assert (status, out) == (2, "")
    assert _single_error_line(err) and "invalid JSON" in err


def test_unreadable_path_is_input_error(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    for path, reason in ((missing, "No such file or directory"),
                         (str(tmp_path), "Is a directory")):
        assert run(capsys, "info", path) == (2, "", f"error: {path}: {reason}\n")


def test_verify_partition_refuses_malformed_documents(write, capsys):
    triangle = write("triangle.json", TRIANGLE)
    intervals = write("iv.json", {"intervals": 5})
    assert run(capsys, "verify-partition", triangle, intervals) == (
        2, "", f"error: {intervals}: expected a list of bottom/top records\n")
    report = write("rep.json", {"certificates": [{}]})
    assert run(capsys, "verify-partition", report) == (
        2, "", f"error: {report}: bad certificate: 'facets'\n")


def test_wrong_skeleton_extender_is_an_internal_error(write, capsys, monkeypatch):
    # Sigma built without one of its facets: the shelling check's
    # permutation test refuses it, and the CLI must not report that
    # NotAPermutation as bad input.
    def without_a_facet(facets):
        return complexes.build_complex([f for f in facets if set(f) != {1, 2, 4}])
    monkeypatch.setattr(homology, "_build_checked", without_a_facet)
    strip = write("strip.json", {"facets": [[1, 2, 3], [2, 3, 4], [3, 4, 5]]})
    assert run(capsys, "cm-extender", strip) == (
        2, "", "internal error: skeleton extender's facets are not the 3-subsets "
               "of the base's 5 vertices\n")


def test_internal_check_error_is_not_reported_as_input_error(write, capsys, monkeypatch):
    # A wrong skeleton reading: the bowtie is not Cohen-Macaulay, so depth's
    # cross-check reads its 1-skeleton, here two disjoint edges, which is not
    # either.  The points are, so the skeleton criterion reads 1, not 2.
    split = complexes.build_complex([[1, 2], [4, 5]])
    monkeypatch.setattr(homology, "skeleton", lambda c, r: complexes.skeleton(split, r))
    status, out, err = run(capsys, "depth", write("bowtie.json", BOWTIE))
    assert (status, out) == (2, "")
    assert err == ("internal error: depth readings disagree: link criterion gives 2, "
                   "skeleton criterion gives 1\n")


def test_cm_commands_walk_their_input_once(write, capsys, monkeypatch):
    # depth and cm-check read their report's Betti numbers off the walk that
    # gives the answer; cm-extender walks the base and the pair (Sigma,
    # base), and certifies Sigma by its shelling.  Only a base that is not
    # Cohen-Macaulay sends depth's cross-check down to smaller skeleta.
    walks = []
    walk = homology._link_betti

    def recorded(big, pair, field):
        walks.append((sorted(map(sorted, big.facets)), pair is big))
        return walk(big, pair, field)

    monkeypatch.setattr(homology, "_link_betti", recorded)
    disk = [[1, 2, 3], [1, 3, 4]]
    sigma = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
    bowtie, graph = BOWTIE["facets"], [[1, 2], [1, 3], [2, 3], [3, 4], [3, 5], [4, 5]]
    skeleton_on_five = [list(f) for f in itertools.combinations(range(1, 6), 3)]
    expected = {  # (command, base): (exit status, walks)
        ("depth", "disk"): (0, [(disk, True)]),
        ("cm-check", "disk"): (0, [(disk, True)]),
        ("cm-extender", "disk"): (0, [(disk, True), (sigma, False)]),
        ("depth", "bowtie"): (0, [(bowtie, True), (graph, True)]),
        ("cm-check", "bowtie"): (1, [(bowtie, True)]),
        ("cm-extender", "bowtie"): (0, [(bowtie, True), (graph, True),
                                        (skeleton_on_five, False)]),
    }
    paths = {"disk": write("disk.json", {"facets": disk}),
             "bowtie": write("bowtie.json", BOWTIE)}
    for (command, name), (status, walked) in expected.items():
        for char in ("0", "2"):
            walks.clear()
            assert run(capsys, command, paths[name], "--char", char, "--json")[0] == status
            assert walks == walked


def test_nonpure_report_computes_each_h_triangle_once(write, capsys, monkeypatch):
    # The h-triangles come from two facet-size maps on masks, the base's and
    # the extender's; the relative family's is the extender's, restricted.
    mixed = write("mixed.json", {"facets": [[1, 2, 3], [3, 4], [5]]})
    _, expected, _ = run(capsys, "build-extender", mixed, "--nonpure", "--json")
    calls = []
    original = complexes._facet_sizes

    def counted(masks):
        calls.append(len(masks))
        return original(masks)
    monkeypatch.setattr(complexes, "_facet_sizes", counted)
    status, out, _ = run(capsys, "build-extender", mixed, "--nonpure", "--json")
    base_faces = 11  # the empty face, 5 vertices, 4 edges and 1 triangle
    assert (status, out) == (0, expected)
    assert len(calls) == 2 and calls[0] == base_faces < calls[1]


def test_pure_report_reads_no_facet_sizes(write, capsys, monkeypatch):
    # Every top of a pure build's certificates is full, so each h-triangle
    # is its h-vector in the top row and no facet-size map is read.
    paths = [write("three.json", {"facets": [[1, 2, 3, 4], [3, 4, 5, 6], [2, 5, 7, 8]]}),
             write("bowtie.json", BOWTIE)]
    expected = [run(capsys, "build-extender", path, "--json")[1] for path in paths]
    calls = []
    monkeypatch.setattr(complexes, "_facet_sizes", lambda masks: calls.append(masks))
    for path, out in zip(paths, expected):
        assert run(capsys, "build-extender", path, "--json")[:2] == (0, out)
    assert calls == []


def test_verifying_a_nonpure_report_makes_one_facet_size_pass(
        write, capsys, monkeypatch, tmp_path):
    # Both certificates name one extender, built once, and the relative
    # family's view reads the extender's facet-size map.
    base = write("layers.json", {"facets": [[1, 2, 3, 4], [4, 5], [6]]})
    report = tmp_path / "layers.report.json"
    report.write_text(run(capsys, "build-extender", base, "--nonpure", "--json")[1])
    _, expected, _ = run(capsys, "verify-partition", str(report), "--json")
    calls = []
    original = complexes._facet_sizes

    def counted(masks):
        calls.append(len(masks))
        return original(masks)
    monkeypatch.setattr(complexes, "_facet_sizes", counted)
    status, out, _ = run(capsys, "verify-partition", str(report), "--json")
    assert (status, out) == (0, expected)
    assert calls == [2817]  # the extender's faces, not the relative family's 2798


def test_json_report_formats_no_interval_line(write, capsys, monkeypatch):
    bowtie = write("bowtie.json", BOWTIE)
    _, expected, _ = run(capsys, "build-extender", bowtie, "--json")

    def refuse(records):
        raise AssertionError("interval lines formatted for a --json report")
    monkeypatch.setattr(cli, "_format_intervals", refuse)
    status, out, _ = run(capsys, "build-extender", bowtie, "--json")
    assert (status, out) == (0, expected)
    status, _, _ = run(capsys, "build-extender", bowtie, "--nonpure", "--json")
    assert status == 0


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
# A text document whose label has more digits than int() converts.
_long_label = ("9" * 5000 + " 2\n").encode()
_contents = (st.binary(max_size=24) | _documents.map(lambda v: json.dumps(v).encode())
             | st.just(_long_label))
_commands = st.sampled_from([
    ["info", "a"], ["partitionable", "a"], ["partitionable", "a", "--minus", "b"],
    ["build-extender", "a"], ["build-extender", "a", "--nonpure"],
    ["verify-partition", "a"], ["verify-partition", "a", "b"],
    ["shelling-check", "a", "b"],
    ["depth", "a", "--char", "x"], ["depth", "a", "--char", "9" * 5000],
    ["depth", "a", "--char", "9" * 4000],
    ["partitionable", "a", "--max-faces", "x"],
    ["shellable", "a"], ["shellable", "a", "--minus", "b"],
    ["shellable", "a", "--max-facets", "x"], ["estimate-size", "3", "x"],
    ["estimate-size", "3", "7" * 3000], ["estimate-size", "0", "0"],
    ["estimate-size", "13", "13"], ["estimate-size", "14", "14"],
    ["estimate-size", "3", "-1"],
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
