"""Write the golden output of every workload command from the current code.

Usage, from the root of a checkout:  python3 bench/make_golden.py

Run it only when a change to perdom's report is intended; the benchmark
counts every command whose normalised output differs from these files as
failed.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import BENCH_DIR, WORKLOADS, command_argv, normalise


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out_dir = BENCH_DIR / "golden"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for commands in WORKLOADS.values():
            for cmd in commands:
                argv = command_argv(root, Path(tmp), cmd, seed=0)
                proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "0", *argv],
                                      cwd=root, env=env, capture_output=True, text=True, check=True)
                rec = json.loads(proc.stdout)
                if rec["code"] != 0:
                    print(f"{cmd.id}: perdom exited {rec['code']}", file=sys.stderr)
                    return 1
                (out_dir / f"{cmd.id}.json").write_text(normalise(rec["output"]), encoding="utf-8")
                print(f"{cmd.id}: {rec['leave'] - rec['enter']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
