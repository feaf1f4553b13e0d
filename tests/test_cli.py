"""Spec ingestion, report determinism, exit codes, command flows."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from helpers import time_limit
from perdom import cli, finflag, semistable
from perdom.rootdata import DEFAULT_BUDGET


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
SL2 = {"type": [["A", 1]], "mu": [1, -1], "q": 2}
SL3 = {"type": [["A", 2]], "mu": [1, 0, -1], "q": 2}
U3 = {"type": [["A", 2]], "twist": {"perm": [2, 1], "order": 2}, "mu": [1, 0, -1], "q": 2}


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_rejects_missing_fields():
    with pytest.raises(cli.SpecError, match="mu"):
        cli.parse_group_spec({"type": [["A", 1]], "q": 2})
    with pytest.raises(cli.SpecError, match="q"):
        cli.parse_group_spec({"type": [["A", 1]], "mu": [1, -1]})
    with pytest.raises(cli.SpecError, match="type"):
        cli.parse_group_spec({"mu": [1, -1], "q": 2})


def test_parse_rejects_bad_values():
    for q in (6, 1, 0):
        with pytest.raises(cli.SpecError, match="q"):
            cli.parse_group_spec({"type": [["A", 1]], "mu": [1, -1], "q": q})
    with pytest.raises(cli.SpecError, match="twist"):
        cli.parse_group_spec({"type": [["A", 2]], "mu": [0, 0, 0], "q": 2, "twist": {"perm": [2, 1]}})
    with pytest.raises(cli.SpecError, match=r"type\[0\]"):
        cli.parse_group_spec({"type": [["A"]], "mu": [1, -1], "q": 2})


@pytest.mark.parametrize("field,spec", [
    ("type[0]", {"type": [["A", True]], "mu": [1, -1], "q": 2}),
    ("twist.perm", {**U3, "twist": {"perm": [True, 1], "order": 2}}),
    ("twist.order", {**U3, "twist": {"perm": [2, 1], "order": True}}),
    ("mu", {"type": [["A", 1]], "mu": [True, False], "q": 2}),
    ("q", {"type": [["A", 1]], "mu": [1, -1], "q": True}),
    ("budget", {"type": [["A", 1]], "mu": [1, -1], "q": 2, "budget": True}),
])
def test_spec_rejects_booleans_for_integers(tmp_path, capsys, field, spec):
    # JSON true and false load as Python bools, which are ints
    code, out, err = run(["cohomology", "--spec", write_spec(tmp_path, spec)], capsys)
    assert code == cli.EXIT_SPEC and out == ""
    assert err.startswith(f"spec error: {field}: ")


def test_spec_error_exit_code(tmp_path, capsys):
    path = write_spec(tmp_path, {"type": [["E", 8]], "mu": [0] * 8, "q": 2})
    code, _, err = run(["cohomology", "--spec", path], capsys)
    assert code == cli.EXIT_SPEC
    assert "family 'E'" in err


def test_huge_rank_refused_fast_with_a_bounded_message(tmp_path, capsys):
    path = write_spec(tmp_path, {"type": [["A", 1000000]], "mu": [1, -1], "q": 2})
    with time_limit(1):
        code, out, err = run(["cohomology", "--spec", path], capsys)
    assert code == cli.EXIT_SPEC
    assert (out, err) == ("", "spec error: type: Weyl order exceeds budget 1000000\n")


def test_cohomology_json_deterministic(tmp_path, capsys):
    path = write_spec(tmp_path, U3)
    code1, out1, _ = run(["cohomology", "--spec", path], capsys)
    code2, out2, _ = run(["cohomology", "--spec", path], capsys)
    assert code1 == code2 == cli.EXIT_OK
    assert out1 == out2
    report = json.loads(out1)
    degrees = [s["degree"] for s in report["cohomology"]["summands"]]
    assert degrees == [1, 3, 4, 6]
    assert report["cohomology"]["summands"][0]["dim_v"] == [0, 0, 0, 1]


def test_report_round_trip(tmp_path, capsys):
    path = write_spec(tmp_path, U3)
    _, out, _ = run(["cohomology", "--spec", path], capsys)
    echoed = json.loads(out)["spec"]
    spec = cli.parse_group_spec(echoed)
    assert spec.cartan_type == (("A", 2),)
    assert spec.twist == ((2, 1), 2)
    assert spec.mu == (1, 0, -1) and spec.q == 2


def test_dominance_normalization_reported(tmp_path, capsys):
    path = write_spec(tmp_path, {"type": [["A", 1]], "mu": [-1, 1], "q": 2})
    _, out, _ = run(["cohomology", "--spec", path], capsys)
    report = json.loads(out)
    assert report["dominance_normalized"] is True
    assert report["mu_dominant"] == [1, -1]


def test_non_integral_dominant_mu_reported_exactly(tmp_path, capsys):
    # the G2 coroot of alpha_2 is (-2/3, 1/3, 1/3): the dominant conjugate of
    # an integral mu can have thirds, written as exact fractions
    path = write_spec(tmp_path, {"type": [["G", 2]], "mu": [0, 0, -1], "q": 2})
    _, out, _ = run(["cohomology", "--spec", path], capsys)
    report = json.loads(out)
    assert report["dominance_normalized"] is True
    assert report["mu_dominant"] == ["-2/3", "-2/3", "1/3"]
    code, out, _ = run(["cohomology", "--spec", path, "--format", "table"], capsys)
    assert code == cli.EXIT_OK
    assert "mu normalized to dominant representative [-2/3, -2/3, 1/3]" in out


def test_verify_sl2(tmp_path, capsys):
    path = write_spec(tmp_path, SL2)
    code, out, _ = run(["verify", "--spec", path, "--m", "1,2,3"], capsys)
    assert code == cli.EXIT_OK
    report = json.loads(out)
    counts = [(r["series"], r["brute_force"]) for r in report["verification"]["counts"]]
    assert counts == [(0, 0), (2, 2), (6, 6)]
    assert report["verification"]["cells"]["all_match"]
    assert report["verification"]["induced_dim_guard"]["match"]
    assert report["verification"]["invariant_spot_checks"]["parabolic_invariance"]


def test_verify_u3(tmp_path, capsys):
    path = write_spec(tmp_path, U3)
    code, out, _ = run(["verify", "--spec", path, "--m", "1,2"], capsys)
    assert code == cli.EXIT_OK
    report = json.loads(out)
    counts = [(r["series"], r["brute_force"]) for r in report["verification"]["counts"]]
    assert counts == [(0, 0), (24, 24)]


def test_verify_rejects_unsupported(tmp_path, capsys):
    path = write_spec(tmp_path, {"type": [["B", 2]], "mu": [2, 1], "q": 2})
    code, _, err = run(["verify", "--spec", path], capsys)
    assert code == cli.EXIT_SPEC
    assert "verify supports" in err


def test_verify_budget_exit(tmp_path, capsys):
    path = write_spec(tmp_path, {"type": [["A", 2]], "mu": [1, 0, -1], "q": 2})
    code, out, _ = run(["verify", "--spec", path, "--m", "3", "--budget", "100"], capsys)
    assert code == cli.EXIT_BUDGET
    report = json.loads(out)
    assert "budget_error" in report["verification"]
    assert report["verification"]["smallest_feasible_m"] == 1


def test_verify_u3_budget_counts_the_chambers(capsys):
    # U3 at m = 3 has 2^9 + 1 chambers; the 4,161 lines over F_64 are never built
    path = str(SPECS / "u3.json")
    code, out, _ = run(["verify", "--spec", path, "--m", "3", "--budget", "500"], capsys)
    assert code == cli.EXIT_BUDGET
    assert json.loads(out)["verification"]["budget_error"] == "513 chambers exceed budget 500"
    code, _, _ = run(["verify", "--spec", path, "--m", "3", "--budget", "600"], capsys)
    assert code == cli.EXIT_OK


SL3_FLAGS = {"type": [["A", 2]], "mu": [1, 0, -1], "q": 2}


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_spec_budget_wins_over_flag(tmp_path, capsys, command):
    path = write_spec(tmp_path, {**SL3_FLAGS, "budget": 5})
    code, out, _ = run([command, "--spec", path, "--m", "2", "--budget", str(10**7)], capsys)
    assert code == cli.EXIT_BUDGET
    assert "budget_error" in json.loads(out)["verification"]


@pytest.mark.parametrize("argv", [["verify", "--m", "2", "--budget", "5"], ["dims", "--budget", "2"]])
def test_guard_budget_failure_writes_report(tmp_path, capsys, argv):
    path = write_spec(tmp_path, SL3_FLAGS)
    code, out, _ = run([argv[0], "--spec", path] + argv[1:], capsys)
    assert code == cli.EXIT_BUDGET
    assert "flags exceed budget" in json.loads(out)["verification"]["budget_error"]


@pytest.mark.parametrize("argv,suggested", [
    (["dims", "--budget", "2"], None),
    (["verify", "--m", "3", "--budget", "100"], 1),
    (["sweep", "--m", "2", "--budget", "5"], None),
])
def test_table_format_reports_budget_error(tmp_path, capsys, argv, suggested):
    path = write_spec(tmp_path, SL3_FLAGS)
    code, out, _ = run([argv[0], "--spec", path] + argv[1:], capsys)
    assert code == cli.EXIT_BUDGET
    verification = json.loads(out)["verification"]
    assert verification.get("smallest_feasible_m") == suggested
    code, out, _ = run([argv[0], "--spec", path, "--format", "table"] + argv[1:], capsys)
    assert code == cli.EXIT_BUDGET
    lines = out.splitlines()
    assert f"budget exhausted: {verification['budget_error']}" in lines
    assert (f"smallest feasible m: {suggested}" in lines) == (suggested is not None)


def test_field_tower_checked_against_budget(capsys):
    # central mu has one point, the 1024-entry tables of F_1024 do not fit
    path = str(SPECS / "central.json")
    code, out, _ = run(["verify", "--spec", path, "--m", "10", "--budget", "1000"], capsys)
    assert code == cli.EXIT_BUDGET
    assert "1024-entry field tables of F_1024" in json.loads(out)["verification"]["budget_error"]


def test_field_tables_fit_where_flags_fit(tmp_path, capsys):
    # 257 flags and the 256-entry tables of F_256 both fit the budget
    path = write_spec(tmp_path, SL2)
    code, out, _ = run(["verify", "--spec", path, "--m", "8", "--budget", "1000"], capsys)
    assert code == cli.EXIT_OK
    verification = json.loads(out)["verification"]
    assert verification["counts"] == [{"brute_force": 254, "m": 8, "match": True, "series": 254}]
    assert max(c["y_count"] for c in verification["cells"]["checks"]) == 257


CENTRAL_Q1024 = {"type": [["A", 2]], "mu": [0, 0, 0], "q": 1024}


def test_guard_field_tower_checked_against_budget(tmp_path, capsys):
    # one point fits the budget, the 1024-entry tables of F_1024 do not
    path = write_spec(tmp_path, CENTRAL_Q1024)
    code, out, _ = run(["dims", "--spec", path, "--budget", "1000"], capsys)
    assert code == cli.EXIT_BUDGET
    verification = json.loads(out)["verification"]
    assert "1024-entry field tables of F_1024" in verification["budget_error"]
    assert "smallest_feasible_m" not in verification


@pytest.mark.parametrize("spec,argv,error", [
    # every m needs the 1024-entry tables of F_1024 or larger ones
    (CENTRAL_Q1024, ["--m", "1", "--budget", "1000"], "1024-entry field tables of F_1024"),
    # 7 points fit at m = 1, but the guard's 21 + 7 + 7 + 1 flags do not
    ({"type": [["A", 2]], "mu": [2, -1, -1], "q": 2}, ["--m", "2", "--budget", "10"], "36 flags"),
])
def test_no_infeasible_m_suggested(tmp_path, capsys, spec, argv, error):
    path = write_spec(tmp_path, spec)
    code, out, _ = run(["verify", "--spec", path] + argv, capsys)
    assert code == cli.EXIT_BUDGET
    verification = json.loads(out)["verification"]
    assert error in verification["budget_error"]
    assert "smallest_feasible_m" not in verification


def test_guard_bounds_the_total_over_label_sets(tmp_path, capsys):
    # 615,195 full flags of F_2^6 fit the budget; all 32 label sets together do not
    path = write_spec(tmp_path, {"type": [["A", 5]], "mu": [3, 2, 1, 0, -1, -2], "q": 2})
    code, out, _ = run(["dims", "--spec", path, "--budget", "1000000"], capsys)
    assert code == cli.EXIT_BUDGET
    report = json.loads(out)
    assert report["verification"] == {"budget_error": "2257888 flags exceed budget 1000000"}
    assert len(report["dims"]) == 32


def test_dims_includes_guard(tmp_path, capsys):
    path = write_spec(tmp_path, U3)
    code, out, _ = run(["dims", "--spec", path], capsys)
    assert code == cli.EXIT_OK
    report = json.loads(out)
    guard = report["verification"]["induced_dim_guard"]
    assert guard["match"]
    rows = {tuple(r["I"]): r for r in report["dims"]}
    assert rows[()]["value_induced_at_q"] == 9
    assert rows[()]["dim_v"] == [0, 0, 0, 1]
    assert rows[("a1",)]["value_v_at_q"] == 1


def test_dims_split_guard(tmp_path, capsys):
    path = write_spec(tmp_path, {"type": [["A", 2]], "mu": [1, 0, -1], "q": 3})
    code, out, _ = run(["dims", "--spec", path], capsys)
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["verification"]["induced_dim_guard"]["match"]
    rows = {tuple(r["I"]): r for r in report["dims"]}
    assert rows[()]["value_v_at_q"] == 27  # Steinberg at q=3


def test_sweep_command(tmp_path, capsys):
    path = write_spec(tmp_path, SL2)
    code, out, _ = run(["sweep", "--spec", path, "--m", "1,2"], capsys)
    assert code == cli.EXIT_OK
    report = json.loads(out)
    rows = report["verification"]["sweep"]
    assert [r["non_semistable"] for r in rows] == [3, 3]
    assert all(r["all_acyclic"] for r in rows)


def test_verify_points_csv_export(tmp_path, capsys):
    path = write_spec(tmp_path, SL2)
    csv_path = tmp_path / "points.csv"
    code, out, _ = run(
        ["verify", "--spec", path, "--m", "2", "--points-csv", str(csv_path)], capsys
    )
    assert code == cli.EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("point,semistable")
    assert len(lines) == 1 + 5  # header plus one row per point of the projective line
    verdicts = [row.split(",")[1] for row in lines[1:]]
    assert verdicts.count("1") == 2


def test_verify_points_csv_unwritable_is_a_spec_error(tmp_path, capsys):
    path = write_spec(tmp_path, SL2)
    csv_path = tmp_path / "missing" / "points.csv"
    code, out, err = run(["verify", "--spec", path, "--m", "2", "--points-csv", str(csv_path)], capsys)
    assert code == cli.EXIT_SPEC and out == ""
    assert err.startswith(f"spec error: --points-csv: cannot write {csv_path}: ")
    # an empty path, given either way, is a path that cannot be written
    for option in (["--points-csv", ""], ["--points-csv="]):
        code, out, err = run(["verify", "--spec", path, "--m", "2", *option], capsys)
        assert code == cli.EXIT_SPEC and out == "", option
        assert err.startswith("spec error: --points-csv: cannot write : "), option


@pytest.mark.parametrize("spec", [SL3, U3])
def test_verify_mismatch_reports_a_counterexample(tmp_path, capsys, monkeypatch, spec):
    # a series one too large: every count row disagrees with the brute force
    true_series = cli.lefschetz_series
    monkeypatch.setattr(cli, "lefschetz_series", lambda gd, table, m: true_series(gd, table, m) + 1)
    path = write_spec(tmp_path, spec)
    code, out, _ = run(["verify", "--spec", path, "--m", "2"], capsys)
    assert code == cli.EXIT_MISMATCH
    (row,) = json.loads(out)["verification"]["counts"]
    assert row["match"] is False and row["series"] == row["brute_force"] + 1
    example = row["counterexample"]
    assert example["semistable_count"] == row["brute_force"] > 0
    probe = example["probe_point"]
    # the point's chain: a line, then a plane, as echelon rows of 3-space
    # over the verifier's tower, F_4 for SL3 and F_16 for U3
    assert [len(rows) for rows in probe] == [1, 2]
    size = spec["q"] ** (4 if "twist" in spec else 2)
    assert all(len(r) == 3 and all(0 <= x < size for x in r) for rows in probe for r in rows)
    code, out, _ = run(["verify", "--spec", path, "--m", "2", "--format", "table"], capsys)
    assert code == cli.EXIT_MISMATCH
    assert f"m=2: series={row['series']} brute={row['brute_force']} MISMATCH" in out


def test_cohomology_accepts_a_large_prime_q(tmp_path, capsys):
    path = write_spec(tmp_path, {**SL2, "q": 2**31 - 1})
    code, out, _ = run(["cohomology", "--spec", path], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["spec"]["q"] == 2**31 - 1


def test_table_format_smoke(tmp_path, capsys):
    path = write_spec(tmp_path, SL2)
    code, out, _ = run(["cohomology", "--spec", path, "--format", "table"], capsys)
    assert code == cli.EXIT_OK
    assert "H^1" in out and "H^2" in out


def test_central_spec_single_row(tmp_path, capsys):
    path = write_spec(tmp_path, {"type": [["A", 2]], "mu": [0, 0, 0], "q": 2})
    _, out, _ = run(["cohomology", "--spec", path], capsys)
    report = json.loads(out)
    assert len(report["cohomology"]["summands"]) == 1
    assert report["cohomology"]["summands"][0]["degree"] == 0


# ---------------------------------------------------------------------------
# the command line

def _load_bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the class's module up
    spec.loader.exec_module(module)
    return module


workloads = _load_bench_workloads()
BENCH_COMMANDS = sorted({c for cmds in workloads.WORKLOADS.values() for c in cmds}, key=lambda c: c.id)


@pytest.mark.parametrize("command", BENCH_COMMANDS, ids=lambda c: c.id)
def test_benchmark_command_lines_give_the_golden_reports(tmp_path, capsys, command):
    argv = workloads.command_argv(ROOT, tmp_path, command, seed=1)
    code, out, err = run(argv, capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    assert workloads.normalise(out) == (ROOT / "bench" / "golden" / f"{command.id}.json").read_text()


def record_calls(monkeypatch) -> list:
    """Replace the four commands by stubs that record their arguments."""
    calls = []
    for name in ("cmd_cohomology", "cmd_dims", "cmd_verify", "cmd_sweep"):
        def stub(spec, *args, _name=name, **kwargs):
            calls.append((_name, spec.budget, args, kwargs))
            return cli.EXIT_OK, ""
        monkeypatch.setattr(cli, name, stub)
    return calls


NO_CSV = {"points_csv_path": None}


# the perdom command lines of README.md and the CI workflow, with the call
# each one made before; $spec is a spec written by the workflow
@pytest.mark.parametrize("line,call", [
    ("cohomology --spec specs/u3.json --format table", ("cmd_cohomology", DEFAULT_BUDGET, ("table",), {})),
    ("dims --spec specs/sl3_flags.json", ("cmd_dims", DEFAULT_BUDGET, ("json",), {})),
    ("verify --spec specs/sl2.json --m 1,2,3", ("cmd_verify", DEFAULT_BUDGET, ("json", [1, 2, 3], 0), NO_CSV)),
    ("sweep --spec specs/sl3_minuscule.json --m 1,2 --fail-fast",
     ("cmd_sweep", DEFAULT_BUDGET, ("json", [1, 2], True), {})),
    ("cohomology --spec $spec", ("cmd_cohomology", DEFAULT_BUDGET, ("json",), {})),
    ("verify --spec bench/specs/sl4_mid.json --m 3", ("cmd_verify", DEFAULT_BUDGET, ("json", [3], 0), NO_CSV)),
    ("sweep --spec bench/specs/sl4_mid.json --m 3", ("cmd_sweep", DEFAULT_BUDGET, ("json", [3], False), {})),
    ("verify --spec $spec --m 1,2", ("cmd_verify", DEFAULT_BUDGET, ("json", [1, 2], 0), NO_CSV)),
    ("verify --spec specs/u3.json --m 5", ("cmd_verify", DEFAULT_BUDGET, ("json", [5], 0), NO_CSV)),
    ("dims --spec $spec --budget 1000000", ("cmd_dims", 1000000, ("json",), {})),
    ("verify --spec specs/sl2.json --m 12,13", ("cmd_verify", DEFAULT_BUDGET, ("json", [12, 13], 0), NO_CSV)),
])
def test_documented_command_lines_make_the_same_calls(tmp_path, capsys, monkeypatch, line, call):
    calls = record_calls(monkeypatch)
    spec = write_spec(tmp_path, SL3)
    argv = [spec if a == "$spec" else str(ROOT / a) if a.endswith(".json") else a for a in line.split()]
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (cli.EXIT_OK, "", "")
    assert calls == [call]


@pytest.mark.parametrize("variant", [
    # --opt=value
    ["verify", "--spec={path}", "--m=1,2", "--seed=3", "--format=table", "--budget=1000"],
    # any order, and a repeated option keeps its last value
    ["verify", "--format", "json", "--budget", "5", "--m", "9", "--seed", "3", "--spec", "{path}",
     "--m", "1,2", "--budget", "1000", "--format", "table"],
])
def test_option_forms_give_the_same_report(tmp_path, capsys, variant):
    path = write_spec(tmp_path, SL2)
    spaced = run(["verify", "--spec", path, "--m", "1,2", "--seed", "3", "--format", "table",
                  "--budget", "1000"], capsys)
    assert spaced[0] == cli.EXIT_OK and "m=2: series=2 brute=2 ok" in spaced[1]
    assert run([a.format(path=path) for a in variant], capsys) == spaced


def test_a_negative_seed_is_a_value(tmp_path, capsys):
    code, out, _ = run(["verify", "--spec", write_spec(tmp_path, SL2), "--seed", "-1", "--m", "1"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["verification"]["invariant_spot_checks"]["seed"] == -1


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    path = write_spec(tmp_path, SL2)
    monkeypatch.setattr(sys, "argv", ["perdom", "cohomology", "--spec", path])
    assert run(None, capsys) == run(["cohomology", "--spec", path], capsys)


@pytest.mark.parametrize("argv,field", [
    (["cohomology", "--spec", "{path}", "--bogus", "1"], "--bogus"),
    (["verify", "--spec", "{path}", "--fail-fast"], "--fail-fast"),
    (["cohomology", "--spec", "{path}", "--m", "1"], "--m"),
    (["cohomology", "--spec", "{path}", "extra"], "extra"),
    (["cohomology", "--spec"], "--spec"),
    (["cohomology", "--spec", "--format", "table"], "--spec"),
    (["verify", "--spec", "{path}", "--seed"], "--seed"),
    (["cohomology", "--spec", "{path}", "--budget", "ten"], "--budget"),
    (["verify", "--spec", "{path}", "--seed=1.5"], "--seed"),
    (["cohomology", "--spec", "{path}", "--format", "xml"], "--format"),
    (["sweep", "--spec", "{path}", "--fail-fast=yes"], "--fail-fast"),
    (["cohomology", "--for", "table", "--spec", "{path}"], "--for"),
    (["cohomology", "--format", "table"], "--spec"),
    (["bogus", "--spec", "{path}"], "command"),
    (["--spec", "{path}"], "command"),
    ([], "command"),
])
def test_malformed_command_line_is_a_spec_error(tmp_path, capsys, argv, field):
    path = write_spec(tmp_path, SL2)
    code, out, err = run([a.format(path=path) for a in argv], capsys)
    assert code == cli.EXIT_SPEC and out == ""
    assert err.startswith(f"spec error: {field}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "--spec", "x.json", "-h"]])
def test_help_lists_the_commands(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_OK and err == ""
    assert out.startswith("usage: perdom {cohomology,dims,verify,sweep} --spec PATH")


@pytest.mark.parametrize("command", ["cohomology", "verify"])
def test_spec_that_is_not_utf8_is_a_spec_error(tmp_path, capsys, command):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(SL2).encode("utf-16-le"))
    code, out, err = run([command, "--spec", str(path)], capsys)
    assert code == cli.EXIT_SPEC and out == ""
    assert err.startswith("spec error: $: not UTF-8 text: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["cohomology", "verify"])
def test_spec_nested_too_deeply_is_a_spec_error(tmp_path, capsys, command):
    path = tmp_path / "spec.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run([command, "--spec", str(path)], capsys)
    assert (code, out, err) == (cli.EXIT_SPEC, "", "spec error: $: invalid JSON: nested too deeply\n")


@pytest.mark.parametrize("command", ["cohomology", "verify"])
def test_spec_integer_past_the_digit_limit_is_a_spec_error(tmp_path, capsys, command):
    # json.load refuses to convert an integer literal of over 4,300 digits
    path = tmp_path / "spec.json"
    path.write_text('{"type": [["A", 2]], "mu": [1, 0, -1], "q": 1' + "0" * 5000 + "}")
    code, out, err = run([command, "--spec", str(path)], capsys)
    assert (code, out) == (cli.EXIT_SPEC, "")
    assert err.startswith("spec error: $: integer too long: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("spec,m,error", [
    # 2^m + 1 flags: too many digits to print at m = 15,000, and at m = 10^9
    # too large to compute; either is named by the power of q it exceeds
    ("sl2.json", 15000, "more than 2^15000 flags"),
    ("sl2.json", 10**9, "more than 2^1000000000 flags"),
    ("u3.json", 10**9 + 1, "more than 2^3000000003 chambers"),
    # a central mu has one point, so the tables of F_(2^m) are refused
    ("central.json", 10**9, "2^1000000000-entry field tables of F_2^1000000000"),
])
def test_huge_m_is_refused_fast_with_a_report(capsys, command, spec, m, error):
    with time_limit(1):
        code, out, _ = run([command, "--spec", str(SPECS / spec), "--m", str(m)], capsys)
    assert code == cli.EXIT_BUDGET
    verification = json.loads(out)["verification"]
    assert verification["budget_error"] == f"{error} exceed budget 10000000"
    assert verification.get("smallest_feasible_m") == (1 if command == "verify" else None)


def test_cli_namespace_holds_no_verifier_model():
    # the brute-force model (towers, flags, chambers, budgets, cells) lives in semistable
    names = ("FlagLevels", "make_tower", "flag_count", "enumerate_twisted_fixed_flags",
             "check_verifier_budget", "bruhat_cells_check")
    assert [name for name in names if hasattr(cli, name)] == []


A2_AT = {"type": [["A", 2]], "mu": [1, 0, -1]}


@pytest.mark.parametrize("command", ["cohomology", "dims"])
@pytest.mark.parametrize("spec", [
    # P_all(q) = (q + 1)(q^2 + q + 1) at q = 2^5000 has 4,516 digits, and G2's
    # count at q = 2^3000 5,419: more than Python writes
    {**A2_AT, "q": 2**5000},
    {"type": [["G", 2]], "mu": [1, 0, -1], "q": 2**3000},
    # the least power of 2 whose A2 count has 4,301 digits
    {**A2_AT, "q": 2**4762},
], ids=["a2", "g2", "a2-past-the-limit"])
def test_q_whose_dimensions_cannot_be_written_is_a_spec_error(tmp_path, capsys, command, spec):
    code, out, err = run([command, "--spec", write_spec(tmp_path, spec)], capsys)
    assert (code, out) == (cli.EXIT_SPEC, "")
    assert err == "spec error: q: the dimensions at q have more than 4300 digits\n"


@pytest.mark.parametrize("q", [3**9000 + 2, 10**4299], ids=["3^9000+2", "10^4299"])
def test_huge_q_that_is_no_prime_power_is_refused_fast(tmp_path, capsys, q):
    # 4,295 and 4,300 digits, which the reader accepts.  Finding the largest
    # k with q a k-th power by trying every k from the bit length down took
    # 31 s on 3^9000 + 2, and Miller-Rabin past its proven bound 8.5 s more
    path = write_spec(tmp_path, {"type": [["A", 1]], "mu": [1, -1], "q": q})
    with time_limit(1):
        code, out, err = run(["cohomology", "--spec", path], capsys)
    assert (code, out, err) == (cli.EXIT_SPEC, "", "spec error: q: expected a prime power >= 2\n")


def test_q_whose_dimensions_have_4300_digits_is_written(tmp_path, capsys):
    q = 2**4761
    code, out, _ = run(["cohomology", "--spec", write_spec(tmp_path, {**A2_AT, "q": q})], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["dims"][0]["value_induced_at_q"] == (q + 1) * (q * q + q + 1)


def test_u3_with_a_twist_of_order_4_is_verified_as_u3(tmp_path, capsys):
    # the engine and the verifier read only the permutation, so the reports
    # equal those of order 2 but for the spec echo
    order4 = write_spec(tmp_path, {**U3, "twist": {"perm": [2, 1], "order": 4}}, "order4.json")
    for argv in (["cohomology"], ["dims"], ["verify", "--m", "1,2,3"], ["sweep", "--m", "1,2"]):
        reports = []
        for path in (str(SPECS / "u3.json"), order4):
            code, out, _ = run([argv[0], "--spec", path, *argv[1:]], capsys)
            assert code == cli.EXIT_OK, argv
            reports.append({k: v for k, v in json.loads(out).items() if k != "spec"})
        assert reports[0] == reports[1], argv
        if argv[0] == "verify":
            counts = reports[1]["verification"]["counts"]
            assert [(row["series"], row["brute_force"]) for row in counts] == [(0, 0), (24, 24), (504, 504)]


SL6 = {"type": [["A", 5]], "mu": [1, 0, 0, 0, 0, 0], "q": 2}
U3_CENTRAL = {**U3, "mu": [0, 0, 0]}
SL8 = {"type": [["A", 7]], "mu": [1, 0, 0, 0, 0, 0, 0, 0], "q": 2}


@pytest.mark.parametrize("spec,argv,error", [
    # the guard of dims and verify sums the flags of every label set first
    (SL6, ["dims", "--budget", "1000"], "2257888 flags exceed budget 1000"),
    (SL6, ["verify", "--m", "1", "--budget", "1000"], "2257888 flags exceed budget 1000"),
    # sweep has no guard: the 63 lines fit, and the first level of rational
    # subspaces past the budget is the 1,395 3-spaces of F_2^6
    (SL6, ["sweep", "--m", "1", "--budget", "1000"], "1395 subspaces exceed budget 1000"),
    # a central mu has one point, so U3's 9 rational chambers are refused
    (U3_CENTRAL, ["dims", "--budget", "5"], "9 chambers exceed budget 5"),
    (U3_CENTRAL, ["verify", "--m", "1", "--budget", "5"], "9 chambers exceed budget 5"),
    (U3_CENTRAL, ["sweep", "--m", "1", "--budget", "5"], "9 chambers exceed budget 5"),
    # the 21,845 lines over F_4 fit, the 200,787 rational 4-spaces of F_2^8 do not
    (SL8, ["sweep", "--m", "2", "--budget", "100000"], "200787 subspaces exceed budget 100000"),
])
def test_refusal_names_the_count_past_the_budget(tmp_path, capsys, spec, argv, error):
    code, out, _ = run([argv[0], "--spec", write_spec(tmp_path, spec), *argv[1:]], capsys)
    assert code == cli.EXIT_BUDGET
    assert json.loads(out)["verification"]["budget_error"] == error


def test_refused_sweep_enumerates_nothing(tmp_path, capsys, monkeypatch):
    # every count is checked before any point or test is listed: the 21,845
    # points fit the budget and the rational subspaces do not
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("enumerated before every budget check")

    # semistable reaches enumerate_subspaces only through finflag.FlagLevels
    for module, names in ((finflag, ("enumerate_flag_points", "enumerate_subspaces")),
                          (semistable, ("enumerate_flag_points",))):
        for name in (*names, "enumerate_twisted_fixed_flags"):
            monkeypatch.setattr(module, name, enumerate_nothing)
    code, out, _ = run(["sweep", "--spec", write_spec(tmp_path, SL8), "--m", "2", "--budget", "100000"], capsys)
    assert code == cli.EXIT_BUDGET
    assert json.loads(out)["verification"]["budget_error"] == "200787 subspaces exceed budget 100000"
