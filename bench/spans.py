"""Outside-in tracing of perdom's layers, and the per-layer metrics it yields.

The tracer wraps public functions of each perdom module from the outside:
every module attribute bound to the original function is rebound to the
wrapper, so calls through ``from .finflag import make_tower`` in another
module are caught too.  Each call records a span ``[name, start, end,
parent, count, key]`` in memory; ``count`` is a size taken from the result
(points enumerated, simplices built, ...) and ``key`` identifies the input,
so that repeated work on the same input shows as a distinct-to-calls ratio.
The child process writes the spans out when it ends and the parent turns
them into metrics with ``span_metrics``.
"""

from __future__ import annotations

import functools
import sys
import time


# (module, function, count from result, key from arguments)
LAYERS = (
    ("rootdata", "build_root_datum", None, None),
    ("weyl", "generate_weyl", lambda r: len(r.elements), None),
    ("weyl", "stabilizer_w_mu", None, None),
    ("weyl", "kostant_reps", None, None),
    ("galois", "weyl_orbits", len, None),
    ("cohom", "assemble_cohomology", lambda r: len(r.summands), None),
    ("cohom", "dim_induced", None, lambda t, gd, I: f"{t.instance_id(gd)}:{sorted(I)}"),
    ("cohom", "dim_v", None, None),
    ("cohom", "all_dim_polys", None, None),
    ("cohom", "lefschetz_series", None, None),
    ("finflag", "make_tower", lambda r: r.size, None),
    ("finflag", "enumerate_flag_points", len, None),
    ("finflag", "enumerate_subspaces", len, None),
    ("finflag", "rref", None, None),
    ("semistable", "build_verifier", None, None),
    ("semistable", "slope", None, None),
    ("semistable", "is_semistable", None,
     lambda t, ctx, index, *rest, **kw: f"{t.instance_id(ctx)}:{index}"),
    ("semistable", "bruhat_cells_check", None, None),
    ("semistable", "parabolic_invariance_sample", None, None),
    ("complex", "build_t_x", lambda r: sum(len(level) for level in r.simplices), None),
    ("complex", "reduced_homology", None, None),
    ("cli", "instantiate", None, None),
    ("cli", "render", None, None),
)

ROOT = "cli.main"
SPAN_NAMES = (ROOT,) + tuple(f"{mod}.{fn}" for mod, fn, _, _ in LAYERS)

# metric name -> (span name, aggregate); aggregates are summed over the
# commands of a workload, except "max" ones, which take the largest value
COUNTS = {
    "weyl.generate_weyl.elements": ("weyl.generate_weyl", "count"),
    "galois.weyl_orbits.orbits": ("galois.weyl_orbits", "count"),
    "cohom.summands": ("cohom.assemble_cohomology", "count"),
    "cohom.dim_induced.calls": ("cohom.dim_induced", "calls"),
    "finflag.make_tower.max_field_size": ("finflag.make_tower", "max"),
    "finflag.points": ("finflag.enumerate_flag_points", "count"),
    "finflag.subspaces": ("finflag.enumerate_subspaces", "count"),
    "finflag.rref.calls": ("finflag.rref", "calls"),
    "semistable.slope.calls": ("semistable.slope", "calls"),
    "semistable.is_semistable.calls": ("semistable.is_semistable", "calls"),
    "complex.reduced_homology.calls": ("complex.reduced_homology", "calls"),
    "complex.simplices": ("complex.build_t_x", "count"),
}
# ratio metric -> (span name); distinct keys over calls
RATIOS = {
    "cohom.dim_induced.distinct_ratio": "cohom.dim_induced",
    "semistable.is_semistable.distinct_ratio": "semistable.is_semistable",
}
MAX_METRICS = {m for m, (_, agg) in COUNTS.items() if agg == "max"}


def _perdom_modules() -> list:
    return [m for n, m in sys.modules.items() if n == "perdom" or n.startswith("perdom.")]


class Tracer:
    """Installs span-recording wrappers into the loaded perdom modules."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._instances: dict[int, tuple[object, int]] = {}
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # kept alive, so ids stay unique

    def instance_id(self, obj) -> int:
        """A small id that is never reused, because the object is kept alive."""
        if id(obj) not in self._instances:
            self._instances[id(obj)] = (obj, len(self._instances))
        return self._instances[id(obj)][1]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self._wrap(name, fn, None, None)(*args, **kwargs)

    def _wrap(self, name, fn, count, key):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(result)
            if key is not None:
                rec[5] = key(tracer, *args, **kwargs)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self) -> None:
        modules = _perdom_modules()
        for mod_name, fn_name, count, key in LAYERS:
            original = getattr(sys.modules[f"perdom.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, count, key)
            self._wrappers[id(wrapper)] = wrapper
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, original))

    def uninstall(self) -> bool:
        """Restore every rebound name; True when no wrapper is left anywhere."""
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        restored = all(getattr(mod, attr) is original for mod, attr, original in self._bindings)
        leftover = any(id(v) in self._wrappers for m in _perdom_modules() for v in vars(m).values())
        self._bindings.clear()
        return restored and not leftover


def span_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced command.

    ``<span>.s`` is the time inside the outermost span of that name,
    ``<span>.self_s`` the time not covered by child spans; counts follow
    ``COUNTS`` and each ratio in ``RATIOS`` is given by its two parts,
    ``<ratio>.distinct`` and ``<ratio>.calls``, so that commands can be
    summed before dividing.
    """
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    counts = dict.fromkeys(SPAN_NAMES, 0)
    maxima = dict.fromkeys(SPAN_NAMES, 0)
    keys: dict[str, set] = {name: set() for name in SPAN_NAMES}
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, count, key) in enumerate(spans):
        duration = end - start
        if parent >= 0:
            child_time[parent] += duration
        calls[name] += 1
        if count is not None:
            counts[name] += count
            maxima[name] = max(maxima[name], count)
        if key is not None:
            keys[name].add(key)
        # a span nested in one of the same name is already in the outer total
        outer = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][3]
        if outer:
            total[name] += duration
    for i, (name, start, end, *_rest) in enumerate(spans):
        self_s[name] += (end - start) - child_time[i]

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = total[name]
        out[f"{name}.self_s"] = self_s[name]
    for metric, (name, agg) in COUNTS.items():
        out[metric] = {"count": counts, "calls": calls, "max": maxima}[agg][name]
    for metric, name in RATIOS.items():
        out[f"{metric}.distinct"] = len(keys[name])
        out[f"{metric}.calls"] = calls[name]
    return out
