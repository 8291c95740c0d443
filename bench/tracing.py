"""Per-layer timing of the ``extenders`` package from outside it.

Each traced function is replaced, in every ``extenders`` module that holds
it, by a wrapper that records a span: calls, total time and self time (the
span's duration minus the time of traced spans nested inside it), and the
edge to the span that called it.  Spans are aggregated in memory per
(caller, callee) edge and written out when the run ends.  A function that
no longer exists reads zero calls.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# The layers are the package's modules; each list names the public
# functions timed in that layer.
TRACED = {
    "complexes": ("f_triangle", "h_triangle", "maximal_faces", "link", "skeleton",
                  "build_complex", "relative_family"),
    "partitions": ("verify_partitioning", "is_layer_compatible", "is_h_compatible",
                   "find_partitioning"),
    "construct": ("partition_extender", "extender_for_complex",
                  "nonpure_extender_for_complex", "h_decomposition"),
    "homology": ("chain_complex", "matrix_rank", "reduced_betti", "is_cohen_macaulay",
                 "depth", "cm_extender"),
    "cli": ("main", "emit"),
}
MATRIX_RANK = "homology.matrix_rank"


def metric_names() -> list:
    names = []
    for module, funcs in TRACED.items():
        for func in funcs:
            names += [f"{module}.{func}.calls", f"{module}.{func}.self_ms"]
    names += [f"{MATRIX_RANK}.cells", f"{MATRIX_RANK}.q_self_ms", f"{MATRIX_RANK}.gf_self_ms"]
    return names


def _rank_args(args) -> tuple:
    """(rows x columns, characteristic) of a ``matrix_rank(matrix, field)``
    call."""
    matrix, field = args
    return len(matrix) * (len(matrix[0]) if matrix else 0), field.characteristic


class Tracer:
    """Installs the wrappers; records only between start and stop."""

    def __init__(self):
        self.active = False
        self.stack: list = []
        self.edges: dict = {}  # (caller, callee) -> [calls, total s, self s]
        self.cells = 0
        self.rank_self_s = {"q": 0.0, "gf": 0.0}
        self._restore: list = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "extenders" or name.startswith("extenders.")]
        for module, funcs in TRACED.items():
            try:
                home = importlib.import_module(f"extenders.{module}")
            except ModuleNotFoundError:
                continue
            for func in funcs:
                original = getattr(home, func, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{module}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def start(self, root: str) -> None:
        """Record spans, as children of a benchmark-side span ``root``."""
        self.stack.append([root, 0.0])
        self.active = True

    def stop(self) -> None:
        self.active = False
        self.stack.pop()

    def _wrap(self, key: str, fn):
        tracer = self
        is_rank = key == MATRIX_RANK

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1]
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[1] += elapsed
                own = elapsed - frame[1]
                stats = tracer.edges.setdefault((parent[0], key), [0, 0.0, 0.0])
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += own
                if is_rank:
                    cells, char = _rank_args(args)
                    tracer.cells += cells
                    tracer.rank_self_s["q" if char == 0 else "gf"] += own

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        calls: dict = {}
        self_s: dict = {}
        for (_, key), (n, _, own) in self.edges.items():
            calls[key] = calls.get(key, 0) + n
            self_s[key] = self_s.get(key, 0.0) + own
        out = {}
        for module, funcs in TRACED.items():
            for func in funcs:
                key = f"{module}.{func}"
                out[f"{key}.calls"] = {"value": calls.get(key, 0), "unit": "count"}
                out[f"{key}.self_ms"] = {"value": 1000 * self_s.get(key, 0.0), "unit": "ms"}
        out[f"{MATRIX_RANK}.cells"] = {"value": self.cells, "unit": "count"}
        out[f"{MATRIX_RANK}.q_self_ms"] = {"value": 1000 * self.rank_self_s["q"], "unit": "ms"}
        out[f"{MATRIX_RANK}.gf_self_ms"] = {"value": 1000 * self.rank_self_s["gf"], "unit": "ms"}
        return out

    def edge_table(self) -> list:
        return [{"caller": a, "callee": b, "calls": n, "total_ms": 1000 * t, "self_ms": 1000 * s}
                for (a, b), (n, t, s) in sorted(self.edges.items())]
