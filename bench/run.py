"""perdom benchmark: run one workload of CLI commands and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload engine --seed 1 --seconds 30 --trace 0

Every command runs the way a user runs it, in a fresh interpreter, one child
at a time.  The commands of the workload are run in rounds until
``--seconds`` is spent: every command runs in the first round, and each later
round takes the commands longest first, starting one only when its previous
duration still fits.  Every output is compared with the
golden JSON in ``bench/golden``.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s``, the
time inside ``perdom.cli.main`` summed over the workload's commands from
per-command medians; ``setup_s``, the time from spawn to entering
``cli.main``, as the median over all children times the number of commands;
and ``peak_rss_mib``, the largest peak RSS of any child.  With ``--trace 1`` each
repetition runs the command untraced and then traced, and the result holds
the per-layer metrics of ``spans.py`` plus ``trace.overhead_s``.

The last line of stdout is the result object; the line before it is the run
record with every sample.  The exit code is 0 unless the benchmark itself
could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import COUNTS, MAX_METRICS, RATIOS, SPAN_NAMES, span_metrics
from workloads import BENCH_DIR, WORKLOADS, command_argv, normalise

CHILD = BENCH_DIR / "child.py"
GOLDEN = BENCH_DIR / "golden"
# a run, its first pass included, ends within this many seconds of its start;
# a child still running then is killed and counts as failed
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def run_child(root: Path, env: dict, argv: list[str], traced: bool, golden: str,
              limit: float) -> dict:
    """One fresh interpreter running one perdom command; returns its sample.

    ``limit`` is the monotonic time by which the child must have ended."""
    spawn = time.monotonic()
    if spawn >= limit:
        return {"ok": False, "error": "not run: the run's time limit was spent"}
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), "1" if traced else "0", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=limit - spawn,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "killed at the run's time limit"}
    if proc.returncode != 0:
        return {"ok": False, "error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    rec = json.loads(proc.stdout)
    sample = {
        "wall_s": rec["leave"] - rec["enter"],
        "setup_s": rec["enter"] - spawn,
        "rss_mib": rec["peak_rss_kib"] / 1024,
        "exit_code": rec["code"],
    }
    errors = []
    if rec["code"] != 0:
        errors.append(f"perdom exited {rec['code']}")
    elif normalise(rec["output"]) != golden:
        errors.append("output differs from golden")
    if traced:
        if not rec["unwrapped"]:
            errors.append("tracing wrappers were left installed")
        sample["layers"] = span_metrics(rec["spans"])
    sample["ok"] = not errors
    if errors:
        sample["error"] = "; ".join(errors)
    return sample


def measure(root: Path, workload: str, seed: int, seconds: float, traced: bool,
            work: Path, golden_dir: Path = GOLDEN) -> dict[str, list[dict]]:
    """Samples per command id; traced runs pair an untraced and a traced sample."""
    limit = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # children import perdom from cached bytecode, as from an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    commands = WORKLOADS[workload]
    argvs = {c.id: command_argv(root, work, c, seed) for c in commands}
    goldens = {c.id: (golden_dir / f"{c.id}.json").read_text(encoding="utf-8") for c in commands}
    # write the bytecode cache once, so that no measured child compiles perdom
    subprocess.run([sys.executable, "-c", "import perdom.cli"], cwd=root, env=env,
                   check=True, timeout=RUN_LIMIT_S)

    samples: dict[str, list[dict]] = {c.id: [] for c in commands}
    last_duration: dict[str, float] = {}
    deadline = min(time.monotonic() + seconds, limit)
    while True:
        ran = False
        # longest first, so that the commands that dominate wall_s repeat most
        for c in sorted(commands, key=lambda c: -last_duration.get(c.id, 0.0)):
            start = time.monotonic()
            if samples[c.id] and start + last_duration[c.id] > deadline:
                continue
            sample = run_child(root, env, argvs[c.id], False, goldens[c.id], limit)
            if traced:
                sample = {"untraced": sample,
                          "traced": run_child(root, env, argvs[c.id], True, goldens[c.id], limit)}
            samples[c.id].append(sample)
            last_duration[c.id] = time.monotonic() - start
            ran = True
        if not ran:
            return samples


def _sum_of_medians(per_command: list[list[float]]) -> float:
    return sum(statistics.median(values) for values in per_command)


def end_to_end_metrics(samples: dict[str, list[dict]]) -> dict[str, float]:
    """Metrics from every child that ran to the end, matching the golden or not."""
    timed = [[s for s in runs if "wall_s" in s] for runs in samples.values()]
    if any(not runs for runs in timed):
        return {}
    # set-up ends before perdom reads its arguments, so it does not depend on
    # the command: one median over every child is the steadier estimate
    setup = statistics.median(s["setup_s"] for runs in timed for s in runs)
    return {
        "wall_s": _sum_of_medians([[s["wall_s"] for s in runs] for runs in timed]),
        "setup_s": setup * len(timed),
        "peak_rss_mib": max(s["rss_mib"] for runs in timed for s in runs),
    }


def per_layer_metrics(samples: dict[str, list[dict]]) -> dict[str, float]:
    pairs = [[p for p in runs if "wall_s" in p["untraced"] and "layers" in p["traced"]]
             for runs in samples.values()]
    if any(not runs for runs in pairs):
        return {}
    totals: dict[str, float] = {}
    for runs in pairs:
        layers = [p["traced"]["layers"] for p in runs]
        for key in layers[0]:
            value = statistics.median(layer[key] for layer in layers)
            combine = max if key in MAX_METRICS else operator.add
            totals[key] = combine(totals.get(key, 0), value)
    out = {key: totals[key] for key in [f"{n}.{k}" for n in SPAN_NAMES for k in ("s", "self_s")]}
    out.update({key: totals[key] for key in COUNTS})
    for ratio in RATIOS:
        calls = totals[f"{ratio}.calls"]
        out[ratio] = totals[f"{ratio}.distinct"] / calls if calls else 0.0
    out["trace.overhead_s"] = (
        _sum_of_medians([[p["traced"]["wall_s"] for p in runs] for runs in pairs])
        - _sum_of_medians([[p["untraced"]["wall_s"] for p in runs] for runs in pairs])
    )
    return out


def _git_sha(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        golden_dir: Path = GOLDEN) -> tuple[dict, dict]:
    """(run record, result object) for one run of the benchmark."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (root / "src" / "perdom" / "cli.py").is_file():
        raise BenchError(f"no perdom sources under {root / 'src'}")
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".bench_work"))
    try:
        samples = measure(root, workload, seed, seconds, trace, work, golden_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    children = [child for runs in samples.values() for s in runs
                for child in ((s["untraced"], s["traced"]) if trace else (s,))]
    failed = sum(1 for child in children if not child["ok"])
    values = per_layer_metrics(samples) if trace else end_to_end_metrics(samples)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if failed == 0 and set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "failed_frac": failed / len(children),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(root),
        "src_sha256": _source_sha256(root),
        "samples": samples,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = run(Path.cwd(), args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.CalledProcessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
