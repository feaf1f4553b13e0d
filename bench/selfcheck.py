"""Checks on the benchmark itself.

Usage, from the root of a checkout:  python3 bench/selfcheck.py

1. A tampered golden file makes the run count a failed command.
2. The tracer restores every name it rebinds, including the copies that
   other modules imported (``semistable.make_tower``, ``complex.is_semistable``).
3. Every workload reports every metric named in BENCHMARK.json, untraced and
   traced, with the layers it exists to exercise doing work; two traced runs
   with one seed give identical counts.

Each workload runs one pass per mode, so the whole check takes a few minutes.
Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import run
from spans import COUNTS, RATIOS, Tracer
from workloads import BENCH_DIR, WORKLOADS

SEED = 3
# per workload, counts that must be positive because the workload exists for them
EXERCISED = {
    "engine": ("cohom.dim_induced.calls", "weyl.generate_weyl.elements", "galois.weyl_orbits.orbits"),
    "verify": ("finflag.rref.calls", "semistable.slope.calls", "finflag.points"),
    "sweep": ("complex.reduced_homology.calls", "complex.simplices", "semistable.is_semistable.calls"),
    "bigfield": ("finflag.make_tower.max_field_size",),
}


def check_tampered_golden(root: Path) -> str | None:
    with tempfile.TemporaryDirectory(dir=root / ".bench_work") as tmp:
        golden = Path(tmp) / "golden"
        shutil.copytree(BENCH_DIR / "golden", golden)
        path = golden / "verify-sl2-m8_9_10.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        report["mu_dominant"][0] += 1
        path.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        record, result = run(root, "bigfield", SEED, 0, False, golden_dir=golden)
    if result["correct"] or record["failed_frac"] <= 0:
        return f"tampered golden accepted: {result}"
    return None


def check_unwrap(root: Path) -> str | None:
    sys.path.insert(0, str(root / "src"))
    from perdom import cli, complex, finflag, semistable

    before = {(m.__name__, n): getattr(m, n) for m in (finflag, semistable, complex)
              for n in ("make_tower", "is_semistable", "rref") if hasattr(m, n)}
    tracer = Tracer()
    tracer.install()
    if semistable.make_tower is before[("perdom.semistable", "make_tower")]:
        return "semistable.make_tower was not rebound"
    if complex.is_semistable is before[("perdom.complex", "is_semistable")]:
        return "complex.is_semistable was not rebound"
    spec = root / "specs" / "sl2.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = tracer.call("cli.main", cli.main, ["verify", "--spec", str(spec), "--m", "1"])
    if not tracer.uninstall() or code != 0:
        return f"uninstall left wrappers or perdom exited {code}"
    modules = {"perdom.finflag": finflag, "perdom.semistable": semistable, "perdom.complex": complex}
    if any(getattr(modules[m], n) is not f for (m, n), f in before.items()):
        return "a rebound name was not restored"
    names = {span[0] for span in tracer.spans}
    if not {"finflag.make_tower", "semistable.is_semistable", "finflag.rref"} <= names:
        return f"spans missed calls through imported names: {sorted(names)}"
    return None


def check_workload(root: Path, workload: str) -> str | None:
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    _, plain = run(root, workload, SEED, 0, False)
    _, traced = run(root, workload, SEED, 0, True)
    _, again = run(root, workload, SEED, 0, True)
    for result, key in ((plain, "end_to_end"), (traced, "per_layer"), (again, "per_layer")):
        if not result["correct"]:
            return f"failed commands: {result}"
        missing = {m["name"] for m in bench[key]} - set(result["metrics"])
        if missing:
            return f"missing {key} metrics {sorted(missing)}"
    idle = [m for m in EXERCISED[workload] if traced["metrics"][m]["value"] <= 0]
    if idle:
        return f"layers did no work: {idle}"
    counts = [m for m in list(COUNTS) + list(RATIOS)
              if traced["metrics"][m]["value"] != again["metrics"][m]["value"]]
    if counts:
        return f"counts differ between traced runs: {counts}"
    return None


def main() -> int:
    root = Path.cwd()
    (root / ".bench_work").mkdir(exist_ok=True)
    checks = [("tampered golden", check_tampered_golden), ("tracer unwrap", check_unwrap)]
    checks += [(f"workload {w}", lambda r, w=w: check_workload(r, w)) for w in WORKLOADS]
    failures = 0
    for name, check in checks:
        problem = check(root)
        print(f"{name}: {'FAIL ' + problem if problem else 'ok'}", flush=True)
        failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
