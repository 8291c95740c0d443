"""The benchmark's workloads: seeded inputs, one timed operation each, and
the independent checks every operation's output must pass.

A workload's operation list is whole rounds of a fixed slot pattern.  Each
slot fixes the shape of its input (dimension, facet count, family) and the
seed draws the rest, so every seed gives the same mix of costs and a run's
median and 90th percentile fall inside the same cost class on every seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random

import oracles


def _relabel(rng: random.Random, facets: list, pool: int = 100) -> list:
    verts = sorted({v for f in facets for v in f})
    new = dict(zip(verts, rng.sample(range(1, pool), len(verts))))
    return [sorted(new[v] for v in f) for f in facets]


def _random_facets(rng: random.Random, size: int, nverts: int, count: int) -> list:
    chosen: set = set()
    while len(chosen) < count:
        chosen.add(tuple(sorted(rng.sample(range(nverts), size))))
    return [list(f) for f in sorted(chosen)]


def _canonical(facets) -> list:
    return sorted((sorted(f) for f in facets), key=lambda f: (len(f), f))


def input_path(spec: dict, workdir: str) -> str:
    return os.path.join(workdir, f"in-{spec['index']}.json")


def run_cli(cli, argv: list) -> tuple:
    """Call the CLI in-process; return (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """One set of inputs, drawn a round of slots at a time.  A nominal
    round duration turns ``--seconds`` into a round count, so the operation
    list never depends on how fast the program runs."""

    name = ""
    round_seconds = 1.0
    gadget_dims: tuple = ()

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_seconds))

    def generate(self, seed: int, seconds: float) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        specs = []
        for _ in range(self.rounds(seconds)):
            specs.extend(self.draw_round(rng))
        for i, spec in enumerate(specs):
            spec["index"] = i
        return specs

    def warm_up(self, ext) -> None:
        """Build every gadget the operations glue, so that the lru_cache
        recursion is paid in set-up rather than in the first operation."""
        for d in self.gadget_dims:
            for k in range(-1, d + 1):
                ext.partition_extender(d, k)

    def draw_round(self, rng) -> list:
        raise NotImplementedError

    def prepare(self, spec: dict, workdir: str, ext):
        """The operation's input, made in set-up."""
        raise NotImplementedError

    def write_input(self, spec: dict, workdir: str) -> None:
        """Write the input file a CLI operation reads.  This runs outside
        set-up: creating a hundred small files costs as much as the rest of
        set-up and varies far more, which would hide the import and gadget
        costs that ``setup_s`` is there to show."""
        with open(input_path(spec, workdir), "w", encoding="utf-8") as handle:
            json.dump({"facets": spec["facets"]}, handle)

    def run(self, op, ext):
        """The timed operation."""
        raise NotImplementedError

    def record(self, result) -> list:
        """An operation's outputs as [exit code, text] pairs, made outside
        the timed span."""
        return result

    def check(self, spec: dict, outputs: list, paths: list, ext) -> list:
        """Problems with one operation's outputs; empty when all pass."""
        raise NotImplementedError


class PureExtend(Workload):
    """find_partitioning, extender_for_complex and h_decomposition on pure
    complexes of dimension 2-3 with 2-5 facets on 7-9 vertices."""

    name = "pure-extend"
    round_seconds = 1.0
    gadget_dims = (2, 3)
    # (dimension, facet count); None draws the count from 2-5.  A
    # dimension-2 operation costs a tenth of a dimension-3 one, so two
    # dimension-2 slots of eight keep the median inside the dimension-3 mode,
    # and fixed facet counts there keep the cost mix the same on every seed.
    SLOTS = ((2, None), (2, None), (3, 2), (3, 3), (3, 3), (3, 4), (3, 4), (3, 5))

    def draw_round(self, rng):
        specs = []
        for dim, count in self.SLOTS:
            count = count or rng.randint(2, 5)
            nverts = rng.randint(7, 9)
            facets = _random_facets(rng, dim + 1, nverts, count)
            specs.append({"kind": f"dim{dim}", "facets": _relabel(rng, facets, 20)})
        return specs

    def prepare(self, spec, workdir, ext):
        return ext.build_complex(spec["facets"])

    def write_input(self, spec, workdir):
        pass  # library calls read no file

    def run(self, op, ext):
        witness = ext.find_partitioning(op, max_members=10**6)
        result = ext.extender_for_complex(op)
        return witness, result, ext.h_decomposition(result)

    def record(self, outcome):
        witness, result, h = outcome
        return [[0, json.dumps({
            "partition": None if witness is None else witness.to_records(),
            "faces": _canonical(result.extender.faces),
            "extender_partition": result.extender_partition.to_records(),
            "relative_partition": result.relative_partition.to_records(),
            "h": [list(v) for v in h],
        }, sort_keys=True)]]

    def check(self, spec, outputs, paths, ext):
        out = json.loads(outputs[0][1])
        problems = []
        delta = oracles.closure(spec["facets"])
        dim = oracles.dimension(delta)
        if dim not in (2, 3) or {len(f) for f in spec["facets"]} != {dim + 1}:
            return [f"input is not a pure complex of dimension 2 or 3: {spec['facets']}"]
        gamma = {frozenset(f) for f in out["faces"]}
        if not delta <= gamma:
            problems.append("extender does not contain the base")
        if oracles.dimension(gamma) != dim:
            problems.append("extender changed the dimension")
        if not oracles.is_closed(gamma):
            problems.append("extender is not closed under subsets")
        relative = gamma - delta
        ext_iv = _intervals(out["extender_partition"])
        rel_iv = _intervals(out["relative_partition"])
        for label, fam, iv in (("extender", gamma, ext_iv), ("relative", relative, rel_iv)):
            bad = oracles.check_intervals(fam, iv)
            if bad:
                problems.append(f"{label} certificate: {bad}")
        h_delta = oracles.h_vector(delta, dim)
        diff = [a - b for a, b in zip(oracles.interval_counts(ext_iv, dim),
                                      oracles.interval_counts(rel_iv, dim))]
        if diff != h_delta:
            problems.append(f"interval counts give {diff}, h(base) is {h_delta}")
        expected_h = [oracles.h_vector(gamma, dim), oracles.h_vector(relative, dim), h_delta]
        if out["h"] != expected_h:
            problems.append(f"h_decomposition gave {out['h']}, expected {expected_h}")
        if out["partition"] is not None:
            bad = oracles.check_intervals(delta, _intervals(out["partition"]))
            if bad:
                problems.append(f"partitioning witness: {bad}")
        elif oracles.find_partitioning(delta) is not None:
            problems.append("find_partitioning missed a partitioning")
        return problems


class NonpureCli(Workload):
    """``build-extender --nonpure --json`` on nonpure complexes of dimension
    2: 6-10 triangles on 10-14 vertices, plus edges and isolated vertices."""

    name = "nonpure-cli"
    round_seconds = 1.0
    gadget_dims = (0, 1, 2)
    TRIANGLES = (6, 7, 8, 9, 10)

    def draw_round(self, rng):
        specs = []
        for count in self.TRIANGLES:
            nverts = rng.randint(10, 14)
            triangles = _random_facets(rng, 3, nverts, count)
            covered = {frozenset(e) for t in triangles
                       for e in itertools.combinations(t, 2)}
            edges, want = [], rng.randint(1, 3)
            while len(edges) < want:
                e = sorted(rng.sample(range(nverts + 2), 2))
                if frozenset(e) not in covered and e not in edges:
                    edges.append(e)
            isolated = [[nverts + 2 + i] for i in range(rng.randint(1, 2))]
            facets = _relabel(rng, triangles + edges + isolated, 40)
            specs.append({"kind": f"tri{count}", "facets": _canonical(facets)})
        return specs

    def prepare(self, spec, workdir, ext):
        return ["build-extender", input_path(spec, workdir), "--nonpure", "--json"]

    def run(self, op, ext):
        return [list(run_cli(ext.cli, op))]

    def check(self, spec, outputs, paths, ext):
        code, text = outputs[0]
        if code != 0:
            return [f"build-extender exited {code}"]
        report = json.loads(text)
        res = report["result"]
        problems = []
        delta = oracles.closure(spec["facets"])
        dim = oracles.dimension(delta)
        if dim != 2 or len(oracles.maximal_members(delta)) != len(spec["facets"]) \
                or min(map(len, spec["facets"])) > 1:
            return [f"input is not a nonpure complex of dimension 2: {spec['facets']}"]
        if _canonical(res["base_facets"]) != spec["facets"]:
            problems.append("report names other base facets")
        gamma = oracles.closure(res["extender_facets"])
        if not delta <= gamma or oracles.dimension(gamma) != dim:
            problems.append("extender does not contain the base in its dimension")
            return problems
        relative = gamma - delta
        certs = {c["label"]: c for c in report["certificates"]}
        ext_iv = _intervals(res["extender_partition"])
        rel_iv = _intervals(res["relative_partition"])
        if (_intervals(certs["extender"]["intervals"]) != ext_iv
                or _intervals(certs["relative"]["intervals"]) != rel_iv):
            problems.append("certificates differ from the result partitions")
        for label, fam, iv in (("extender", gamma, ext_iv), ("relative", relative, rel_iv)):
            bad = oracles.check_intervals(fam, iv)
            if bad:
                problems.append(f"{label} certificate: {bad}")
            elif not oracles.is_layer_compatible(fam, iv, dim):
                problems.append(f"{label} certificate is not layer-compatible")
        depth_d, depth_g = oracles.depth_sizes(delta), oracles.depth_sizes(gamma)
        if any(depth_g[s] != n for s, n in depth_d.items()):
            problems.append("a facet depth changed")
        tri = {name: oracles.h_triangle(fam, dim)
               for name, fam in (("base", delta), ("extender", gamma), ("relative", relative))}
        if res["h_triangle"] != tri:
            problems.append("reported h-triangles are wrong")
        diff = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(
            oracles.interval_triangle(ext_iv, dim), oracles.interval_triangle(rel_iv, dim))]
        if diff != tri["base"]:
            problems.append("interval counts do not give the h-triangle of the base")
        code, text = run_cli(ext.cli, ["verify-partition", paths[0], "--json"])
        if code != 0 or not json.loads(text)["result"]["valid"]:
            problems.append(f"verify-partition on the report exited {code}")
        return problems


def _skeleton(nverts: int, r: int) -> list:
    return [list(c) for c in itertools.combinations(range(nverts), r + 1)]


def _cross_skeleton(d: int, r: int) -> list:
    """r-skeleton of the boundary of the d-dimensional cross-polytope: one
    vertex from each of r + 1 of its d antipodal pairs per facet."""
    return [[2 * i + s for i, s in zip(pairs, signs)]
            for pairs in itertools.combinations(range(d), r + 1)
            for signs in itertools.product((0, 1), repeat=r + 1)]


def _cone(facets: list) -> list:
    apex = 1 + max(v for f in facets for v in f)
    return [f + [apex] for f in facets]


def _suspension(facets: list) -> list:
    a = 1 + max(v for f in facets for v in f)
    return [f + [a] for f in facets] + [f + [a + 1] for f in facets]


class CmCli(Workload):
    """``depth``, ``cm-check`` and ``cm-extender --json`` on one input per
    operation, alternating ``--char 0`` and ``--char 2``; inputs have
    100-300 faces."""

    name = "cm-cli"
    round_seconds = 1.25
    COMMANDS = ("depth", "cm-check", "cm-extender")

    def slots(self, rng):
        """(family, Cohen-Macaulay by construction, facets) per slot.  The
        count is odd, so a slot's characteristic alternates between rounds."""
        return [
            ("skeleton", True, _skeleton(10, 2)),
            ("skeleton", True, _skeleton(8, 3)),
            ("cross-polytope-skeleton", True, _cross_skeleton(5, 2)),
            ("cone-skeleton", True, _cone(_skeleton(8, 2))),
            ("suspension-skeleton", True, _suspension(_skeleton(7, 2))),
            ("random", False, _random_facets(rng, 3, 12, rng.randint(40, 56))),
            ("random", False, _random_facets(rng, 4, 10, rng.randint(28, 36))),
        ]

    def rounds(self, seconds):
        return 2 * max(1, round(seconds / (2 * self.round_seconds)))

    def draw_round(self, rng):
        return [{"kind": kind, "cm": cm, "facets": _canonical(_relabel(rng, facets))}
                for kind, cm, facets in self.slots(rng)]

    def generate(self, seed, seconds):
        specs = super().generate(seed, seconds)
        for spec in specs:
            spec["char"] = 2 * (spec["index"] % 2)
        return specs

    def prepare(self, spec, workdir, ext):
        path = input_path(spec, workdir)
        return [[cmd, path, "--char", str(spec["char"]), "--json"] for cmd in self.COMMANDS]

    def run(self, op, ext):
        return [list(run_cli(ext.cli, argv)) for argv in op]

    def check(self, spec, outputs, paths, ext):
        (c_depth, t_depth), (c_cm, t_cm), (c_ext, t_ext) = outputs
        if c_depth != 0 or c_cm not in (0, 1) or c_ext not in (0, 1):
            return [f"exit codes {c_depth}, {c_cm}, {c_ext}"]
        char = spec["char"]
        faces = oracles.closure(spec["facets"])
        dim = oracles.dimension(faces)
        if not 100 <= len(faces) <= 300 or {len(f) for f in spec["facets"]} != {dim + 1}:
            return [f"input is not pure with 100-300 faces: {spec['facets']}"]
        betti = oracles.reduced_betti(faces, char)
        expected_h = {"field": char,
                      "betti": {str(i - 1): b for i, b in enumerate(betti)}}
        depth = oracles.depth(faces, char)
        problems = []
        r_depth, r_cm, r_ext = (json.loads(t)["result"] for t in (t_depth, t_cm, t_ext))
        if r_depth["homology"] != expected_h or r_cm["homology"] != expected_h:
            problems.append(f"reported homology differs from {expected_h}")
        euler = sum((-1) ** (int(i) % 2) * b for i, b in r_depth["homology"]["betti"].items())
        if euler != oracles.reduced_euler(faces):
            problems.append("reported Betti numbers contradict the Euler characteristic")
        if r_depth["depth"] != depth:
            problems.append(f"depth {r_depth['depth']}, expected {depth}")
        if spec["cm"] and depth != dim + 1:
            problems.append(f"a Cohen-Macaulay family has depth {depth}")
        if r_cm["cohen_macaulay"] != (depth == dim + 1) or c_cm != (0 if depth == dim + 1 else 1):
            problems.append("cm-check verdict contradicts the depth")
        if r_ext["exists"] != (depth >= dim) or c_ext != (0 if depth >= dim else 1):
            problems.append("cm-extender existence contradicts the depth")
        elif r_ext["exists"]:
            verts = sorted({v for f in spec["facets"] for v in f})
            if r_ext["extender_facets"] != _canonical(itertools.combinations(verts, dim + 1)):
                problems.append("cm-extender is not the skeleton of the simplex")
        else:
            face = frozenset(r_ext["witness_face"])
            degree = r_ext["witness_degree"]
            lk = {t - face for t in faces if face <= t} if face in faces else set()
            betti_lk = oracles.reduced_betti(lk, char) if lk else []
            if not 0 <= degree + 1 < len(betti_lk) or not betti_lk[degree + 1]:
                problems.append("witness link has no homology in the named degree")
            elif len(face) + degree + 1 != depth:
                problems.append("witness does not attain the depth")
        return problems


def _intervals(records: list) -> list:
    return [(frozenset(r["bottom"]), frozenset(r["top"])) for r in records]


WORKLOADS = {w.name: w for w in (PureExtend(), NonpureCli(), CmCli())}
