"""Reports outside the benchmark catalog, against committed goldens.

Each ``golden/specs/<name>.json`` has its ``cohomology`` report in
``golden/cohomology-<name>.json``: twisted D4 (order 2 and triality), factor
swaps and cycles, twisted A4 and A5 at q = 3, B2 x G2, C3 at q = 5 and a
non-dominant mu under a twist.  Each ``golden/verifier_specs/<name>.json``
has its ``verify --m 1,2`` and ``sweep --m 1,2`` reports in
``golden/verify-<name>.json`` and ``golden/sweep-<name>.json``: SL3 at q = 3
and q = 4 and U3 at q = 3, the verifier's odd-characteristic and non-prime
fields.  Outputs must match byte for byte.
"""

from pathlib import Path

import pytest

from perdom import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = sorted(p.stem for p in (GOLDEN / "specs").glob("*.json"))
VERIFIER_NAMES = sorted(p.stem for p in (GOLDEN / "verifier_specs").glob("*.json"))


@pytest.mark.parametrize("name", NAMES)
def test_cohomology_report_matches_golden(name, capsys):
    code = cli.main(["cohomology", "--spec", str(GOLDEN / "specs" / f"{name}.json")])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / f"cohomology-{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("name", VERIFIER_NAMES)
def test_verifier_report_matches_golden(name, command, capsys):
    code = cli.main([command, "--spec", str(GOLDEN / "verifier_specs" / f"{name}.json"), "--m", "1,2"])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / f"{command}-{name}.json").read_text(encoding="utf-8")
