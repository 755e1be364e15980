"""Span tracing of the tfqkd layers, applied from outside the package.

Every function that one tfqkd submodule imports from another is replaced,
at the name the importing module binds it to, by a wrapper that records a
span (name, start, end, parent). The functions the benchmark itself calls
and the ones whose calls are counted are also wrapped in their defining
module. Spans live in flat arrays in memory; self times and counts are
derived from them when the run ends, and they are written out as one .npz
file.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np

# Wrapped where they are defined as well as where they are imported: the
# benchmark calls these through their own module, or the per-layer counts
# need calls made inside the defining module (sweep -> optimize_point).
ENTRY_POINTS = {
    "cli": ("main",),
    "optimize": ("optimize_point",),
    "keyrate": ("analyze",),
    "constraints": ("build_lp", "dump_lp"),
    "simplex": ("solve_max", "load_lp"),
    "channel": ("expected_observations", "sample_observations"),
}


class Tracer:
    """Installs span-recording wrappers into the tfqkd modules and turns
    the recorded spans into per-layer metrics."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name: str):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.span_names)
            self.span_names.append(span_name)
        nid = self._name_ids[span_name]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter_ns
        on_result = _RESULT_COUNTERS.get(span_name)

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(i)
            start[i] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                counters[f"{span_name}:{type(exc).__name__}"] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out, counters)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        import tfqkd

        modules = {
            info.name: importlib.import_module(f"tfqkd.{info.name}")
            for info in pkgutil.iter_modules(tfqkd.__path__)
        }
        targets = []
        for name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                imported = home.startswith("tfqkd.") and home != mod.__name__
                if imported or attr in ENTRY_POINTS.get(name, ()):
                    targets.append((mod, attr, obj))
        for mod, attr, obj in targets:
            layer = obj.__module__.rsplit(".", 1)[-1]
            self._patches.append((mod, attr, obj))
            setattr(mod, attr, self._wrap(obj, f"{layer}.{obj.__name__}"))
        return self

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64)
        par = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return nid, par, dur

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its child spans cover, in ns."""
        nid, par, dur = self.arrays()
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def save(self, path) -> None:
        nid, par, _ = self.arrays()
        np.savez_compressed(
            path,
            span_names=np.array(json.dumps(self.span_names)),
            name_id=nid.astype(np.uint16),
            parent=par,
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times (the per_layer metrics that come
        from spans)."""
        nid, par, dur = self.arrays()
        self_ns = self.self_times()
        names = self.span_names
        n_spans = len(nid)

        def mask_name(span_name):
            return nid == names.index(span_name) if span_name in names else np.zeros(n_spans, bool)

        def mask_layer(layer):
            return np.isin(nid, [i for i, n in enumerate(names) if n.split(".", 1)[0] == layer])

        def under(flag_names):
            """Spans with an ancestor among flag_names."""
            flagged = np.isin(nid, [names.index(n) for n in flag_names if n in names])
            found = np.zeros(n_spans, bool)
            up = par.copy()
            while (up >= 0).any():
                live = up >= 0
                found[live] |= flagged[up[live]]
                nxt = np.full(n_spans, -1)
                nxt[live] = par[up[live]]
                up = nxt
            return found

        def secs(mask):
            return float(self_ns[mask].sum()) * 1e-9

        c = self.counters
        solve = mask_name("simplex.solve_max")
        build = mask_name("constraints.build_lp")
        point = mask_name("optimize.optimize_point")
        in_point = under(["optimize.optimize_point"])
        in_analyze = under(["keyrate.analyze"])
        optimize_layer = mask_layer("optimize")
        parent_is_optimize = np.zeros(n_spans, bool)
        has_parent = par >= 0
        parent_is_optimize[has_parent] = optimize_layer[par[has_parent]]
        evaluations = int((mask_layer("channel") & parent_is_optimize).sum())
        candidate_solves = int((solve & in_point & ~in_analyze).sum())
        lp_solves = int((solve & in_point).sum())
        n_solve, n_build, n_point = int(solve.sum()), int(build.sum()), int(point.sum())
        return {
            "simplex.solve_max.calls": n_solve,
            "simplex.solve_max.self_s": secs(solve),
            "simplex.solve_max.us_per_call": _per(secs(solve) * 1e6, n_solve),
            "simplex.pivots": c["pivots"],
            "simplex.pivots_per_solve": _per(c["pivots"], n_solve),
            "simplex.infeasible": c["infeasible"],
            "constraints.build_lp.calls": n_build,
            "constraints.build_lp.self_s": secs(build),
            "constraints.build_lp.us_per_call": _per(secs(build) * 1e6, n_build),
            "constraints.clamp_events": c["clamp_events"],
            "numerics.calls": int(mask_layer("numerics").sum()),
            "numerics.self_s": secs(mask_layer("numerics")),
            "constraints.dump_lp.self_s": secs(mask_name("constraints.dump_lp")),
            "simplex.load_lp.self_s": secs(mask_name("simplex.load_lp")),
            "channel.calls": int(mask_layer("channel").sum()),
            "channel.self_s": secs(mask_layer("channel")),
            "channel.no_detections": sum(
                v for k, v in c.items() if k.startswith("channel.") and k.endswith(":NoDetections")
            ),
            "keyrate.analyze.calls": int(mask_name("keyrate.analyze").sum()),
            "keyrate.self_s": secs(mask_layer("keyrate")),
            "keyrate.zero_key": c["zero_key"],
            "optimize.optimize_point.calls": n_point,
            "optimize.self_s": secs(optimize_layer),
            "optimize.evaluations": evaluations,
            "optimize.lp_solves": lp_solves,
            "optimize.pruned": evaluations - candidate_solves,
            "optimize.solves_per_point": _per(lp_solves, n_point),
            "cli.self_s": secs(mask_layer("cli")),
        }

    def covered_seconds(self) -> float:
        """Total duration of the outermost spans (equal to the sum of all
        self times)."""
        _, par, dur = self.arrays()
        return float(dur[par < 0].sum()) * 1e-9


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def _count_solve(sol, counters: Counter) -> None:
    counters["pivots"] += int(sol.iterations)
    counters["infeasible"] += sol.status == "infeasible"


def _count_build(lp, counters: Counter) -> None:
    counters["clamp_events"] += len(lp.clamp_events)


def _count_analyze(report, counters: Counter) -> None:
    counters["zero_key"] += report.key_length <= 0.0


_RESULT_COUNTERS = {
    "simplex.solve_max": _count_solve,
    "constraints.build_lp": _count_build,
    "keyrate.analyze": _count_analyze,
}
