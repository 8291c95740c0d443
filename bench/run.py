"""Benchmark of the extenders package: one workload per run.

    python3 bench/run.py --workload pure-extend --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run is one process and one thread.  It works, as a closed
loop, through a fixed list of operations generated from the seed, whose
length is set by ``--seconds`` and never by a clock.  Each operation's
outputs are saved outside its timed span and checked after the loop by
``oracles``, which shares no code with the package.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from a traced run with ``--trace 1``).  Details go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Set-up is timed in this process and in this many fresh ones; setup_s is
# the median of all of them.  One set-up takes 30-100 ms, and single samples
# vary by a third.
SETUP_SUBPROCESSES = 16

import workloads  # noqa: E402  (bench/ is on sys.path when run as a script)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print its seconds and exit")
    return parser.parse_args(argv)


def setup(w, seed, seconds, workdir, tracer=None):
    """Import the package, generate the inputs, build the gadgets.

    Returns (package, specs, prepared operations, seconds taken).
    """
    start = perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    ext = importlib.import_module("extenders")
    importlib.import_module("extenders.cli")
    if tracer is not None:
        tracer.install()
        tracer.start("bench.setup")
    specs = w.generate(seed, seconds)
    ops = [w.prepare(spec, workdir, ext) for spec in specs]
    w.warm_up(ext)
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.stop()
    return ext, specs, ops, elapsed


def setup_sample(args) -> float:
    """Seconds of one set-up in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure(args, w, workdir):
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    ext, specs, ops, setup_s = setup(w, args.seed, args.seconds, workdir, tracer)
    for spec in specs:
        w.write_input(spec, workdir)

    latencies, cpu_times, saved, errors = [], [], [], {}
    setup_samples = [setup_s]
    # The host's speed shifts by up to half for seconds at a time, so the
    # set-up samples are spread over the run, between operations, rather
    # than taken together.
    sample_every = max(1, len(specs) // SETUP_SUBPROCESSES)
    digest = hashlib.sha256()
    for spec, op in zip(specs, ops):
        i = spec["index"]
        if tracer is None and i % sample_every == 0 \
                and len(setup_samples) <= SETUP_SUBPROCESSES:
            setup_samples.append(setup_sample(args))
        gc.collect()
        if tracer is not None:
            tracer.start("bench.op")
        start, cpu_start = perf_counter(), process_time()
        try:
            result = w.run(op, ext)
        except (Exception, SystemExit) as exc:  # a failed operation, not a failed run
            result, errors[i] = None, f"raised {exc!r}"
        latencies.append(perf_counter() - start)
        cpu_times.append(process_time() - cpu_start)
        if tracer is not None:
            tracer.stop()
        paths = []
        if result is not None:
            for k, (code, text) in enumerate(w.record(result)):
                path = os.path.join(workdir, f"out-{i}-{k}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                digest.update(f"{i}.{k}:{code}\n".encode() + text.encode())
                paths.append((code, path))
        saved.append(paths)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for spec, paths in zip(specs, saved):
        i = spec["index"]
        if i in errors:
            continue
        outputs = []
        for code, path in paths:
            with open(path, encoding="utf-8") as handle:
                outputs.append([code, handle.read()])
        if any(code == 2 for code, _ in outputs):
            errors[i] = "exited 2"
            continue
        try:
            problems = w.check(spec, outputs, [p for _, p in paths], ext)
        except (Exception, SystemExit) as exc:
            problems = [f"check raised {exc!r}"]
        if problems:
            errors[i] = "; ".join(problems)
    for i, message in sorted(errors.items())[:10]:
        print(f"operation {i} ({specs[i]['kind']}) failed: {message}", file=sys.stderr)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "cpus": os.cpu_count(), "output_sha256": digest.hexdigest(),
        "latencies_ms": [1000 * t for t in latencies],
        # Process CPU time per operation leaves out time the host took the
        # CPU away; its gap to the latency shows contention on the machine.
        "cpu_ms": [1000 * t for t in cpu_times],
        "kinds": [spec["kind"] for spec in specs],
    }
    # A failed operation's latency is left out of the timings, so that a
    # change that fails fast cannot read as a speed-up.
    timed = [t for spec, t in zip(specs, latencies) if spec["index"] not in errors]
    timed = timed or latencies
    if tracer is not None:
        metrics = tracer.metrics()
        metrics["traced.ops_per_s"] = {"value": len(timed) / sum(timed), "unit": "op/s"}
        detail["edges"] = tracer.edge_table()
        tracer.uninstall()
    else:
        detail["setup_samples_s"] = setup_samples
        metrics = {
            "ops_per_s": {"value": len(timed) / sum(timed), "unit": "op/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(timed), "unit": "ms"},
            "op_p90_ms": {"value": 1000 * percentile(timed, 90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
    # Every operation that raised, exited 2 or failed its check is a fault:
    # no workload keeps an operation that is expected to fail.
    summary = {"correct": not errors, "attempted": len(specs), "failed": len(errors),
               "metrics": metrics}
    detail["summary"] = summary
    return summary, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "extenders", "__init__.py")):
        print(f"error: no extenders package under {SRC}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    # Reports name their input paths, so the run's directory depends only on
    # the workload and seed: traced and untraced outputs then compare byte
    # for byte.
    workdir = os.path.join(OUT, f"work-{args.workload}-seed{args.seed}")
    if args.setup_only:
        print(setup(w, args.seed, args.seconds, workdir)[3])
        return 0
    os.makedirs(workdir, exist_ok=True)
    try:
        summary, detail = measure(args, w, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    print(f"output sha256 {detail['output_sha256']}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
