"""Tests for the benchmark's own checkers and tracer.

    python3 -m pytest -q bench
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import extenders  # noqa: E402
import extenders.cli  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BOWTIE = [[1, 2, 3], [3, 4, 5]]
K4_PLUS_EDGES = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4], [5, 6], [7, 8]]
MIXED = [[1, 2, 3], [3, 4], [5], [4, 5, 6, 7]]
# Six-vertex real projective plane: no rational homology, Z/2 torsion.
RP2 = [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
       [2, 3, 5], [3, 4, 6], [2, 4, 5], [3, 5, 6], [2, 4, 6]]


def _intervals(partition):
    return [(frozenset(b), frozenset(t)) for b, t in partition]


def _certificates(facets, nonpure=False):
    base = extenders.build_complex(facets)
    build = extenders.nonpure_extender_for_complex if nonpure else extenders.extender_for_complex
    res = build(base)
    gamma = set(res.extender.faces)
    delta = oracles.closure(facets)
    return (delta, gamma, _intervals(res.extender_partition),
            _intervals(res.relative_partition))


@pytest.mark.parametrize("facets", [BOWTIE, K4_PLUS_EDGES])
def test_pure_examples_pass(facets):
    delta, gamma, ext_iv, rel_iv = _certificates(facets)
    dim = oracles.dimension(delta)
    assert oracles.is_closed(gamma) and delta <= gamma
    assert oracles.check_intervals(gamma, ext_iv) is None
    assert oracles.check_intervals(gamma - delta, rel_iv) is None
    diff = [a - b for a, b in zip(oracles.interval_counts(ext_iv, dim),
                                  oracles.interval_counts(rel_iv, dim))]
    assert diff == oracles.h_vector(delta, dim)
    assert oracles.find_partitioning(delta) is None


def test_nonpure_example_passes():
    delta, gamma, ext_iv, rel_iv = _certificates(MIXED, nonpure=True)
    dim = oracles.dimension(delta)
    for fam, iv in ((gamma, ext_iv), (gamma - delta, rel_iv)):
        assert oracles.check_intervals(fam, iv) is None
        assert oracles.is_layer_compatible(fam, iv, dim)
    diff = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(
        oracles.interval_triangle(ext_iv, dim), oracles.interval_triangle(rel_iv, dim))]
    assert diff == oracles.h_triangle(delta, dim)
    sizes = oracles.depth_sizes(gamma)
    assert all(sizes[s] == n for s, n in oracles.depth_sizes(delta).items())


def test_h_vector_by_expansion():
    assert oracles.h_vector(oracles.closure(BOWTIE), 2) == [1, 2, -1, 0]


@pytest.mark.parametrize("facets,nonpure", [(BOWTIE, False), (K4_PLUS_EDGES, False),
                                            (MIXED, True)])
def test_dropped_interval_is_rejected(facets, nonpure):
    _, gamma, ext_iv, _ = _certificates(facets, nonpure)
    assert oracles.check_intervals(gamma, ext_iv[1:]) is not None


@pytest.mark.parametrize("facets,nonpure", [(BOWTIE, False), (K4_PLUS_EDGES, False),
                                            (MIXED, True)])
def test_changed_bottom_is_rejected(facets, nonpure):
    _, gamma, ext_iv, _ = _certificates(facets, nonpure)
    i, (bottom, top) = next((i, iv) for i, iv in enumerate(ext_iv) if iv[0] != iv[1])
    changed = ext_iv[:i] + [(bottom | {min(top - bottom)}, top)] + ext_iv[i + 1:]
    assert oracles.check_intervals(gamma, changed) is not None


def test_betti_over_both_characteristics():
    faces = oracles.closure(RP2)
    assert oracles.reduced_betti(faces, 0) == [0, 0, 0, 0]
    assert oracles.reduced_betti(faces, 2) == [0, 0, 1, 1]
    sphere = oracles.closure([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    assert oracles.reduced_betti(sphere, 0) == [0, 0, 0, 1]
    assert oracles.reduced_euler(sphere) == 1
    assert oracles.reduced_euler(faces) == 0


def test_depth_by_links():
    assert oracles.depth(oracles.closure(BOWTIE), 0) == 2
    cross = oracles.closure(workloads._cross_skeleton(4, 3))  # a 3-sphere
    assert oracles.depth(cross, 0) == oracles.depth(cross, 2) == 4
    cross_2 = oracles.closure(workloads._cross_skeleton(5, 2))
    assert len(cross_2) == 131
    assert oracles.depth(cross_2, 0) == oracles.depth(cross_2, 2) == 3
    assert oracles.depth(oracles.closure(RP2), 0) == 3
    assert oracles.depth(oracles.closure(RP2), 2) == 2


def _outputs(w, specs, workdir, tracer=None):
    out = []
    for spec in specs:
        w.write_input(spec, workdir)
        op = w.prepare(spec, workdir, extenders)
        if tracer is not None:
            tracer.start("bench.op")
        try:
            result = w.run(op, extenders)
        finally:
            if tracer is not None:
                tracer.stop()
        out.append(w.record(result))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_identical(name, tmp_path):
    w = workloads.WORKLOADS[name]
    specs = w.generate(seed=5, seconds=0)[:2]
    plain = _outputs(w, specs, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _outputs(w, specs, str(tmp_path), tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    for spec, outputs in zip(specs, plain):
        paths = []
        for k, (_, text) in enumerate(outputs):
            paths.append(tmp_path / f"out-{spec['index']}-{k}.json")
            paths[-1].write_text(text)
        assert w.check(spec, outputs, [str(p) for p in paths], extenders) == []
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.metric_names())
    assert metrics["cli.main.calls"]["value"] == (0 if name == "pure-extend" else
                                                   len(specs) * len(plain[0]))


def test_removed_function_reads_zero(monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "complexes", ("no_such_function", "build_complex"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start("bench.op")
        extenders.build_complex([[1, 2]])
        tracer.stop()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["complexes.no_such_function.calls"]["value"] == 0
    assert metrics["complexes.build_complex.calls"]["value"] == 1
