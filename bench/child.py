"""Run one perdom CLI command in this fresh interpreter and report on it.

Usage: python3 bench/child.py <trace 0|1> <perdom arguments...>

The parent passes the checkout's ``src`` on PYTHONPATH.  The child imports
``perdom.cli`` the way the ``perdom`` script does, notes the clock on entering
``cli.main`` and on leaving it, and writes one JSON object to stdout: the exit
code, the command's own output, both clock readings, the peak resident set
size and, when traced, the spans.  Clock readings are CLOCK_MONOTONIC, which
the parent shares, so the parent can time the start-up from its spawn.
"""

import contextlib
import io
import json
import os
import sys
import time

from perdom import cli


def peak_rss_kib() -> int:
    """VmHWM, the peak RSS of this program.  Not ru_maxrss: after fork and
    exec that also holds the parent's RSS at the fork."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    traced = sys.argv[1] == "1"
    argv = sys.argv[2:]
    src = os.path.realpath(os.environ["PYTHONPATH"].split(os.pathsep)[0])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"perdom imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = io.StringIO()
    record = {}
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        enter = time.monotonic()
        with contextlib.redirect_stdout(out):
            code = tracer.call("cli.main", cli.main, argv)
        leave = time.monotonic()
        record["unwrapped"] = tracer.uninstall()
        record["spans"] = tracer.spans
    else:
        enter = time.monotonic()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        leave = time.monotonic()
    record.update(
        code=code,
        enter=enter,
        leave=leave,
        peak_rss_kib=peak_rss_kib(),
        output=out.getvalue(),
    )
    json.dump(record, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
