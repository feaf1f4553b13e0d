"""Command surface: ingest a group spec, run the engine and the verifiers.

Exit codes: 0 success, 2 malformed spec or command line (an unknown
option, a missing value, a bad ``--m``, an unwritable ``--points-csv``
path, a q whose dimensions at q are too long for Python to write), 3
verification mismatch, 4 budget exhausted.  Reports are
deterministic JSON (fixed key order, canonical rational formatting) unless
the table format is requested.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple

from .cohom import (
    CohomologyTable,
    GroupData,
    assemble_cohomology,
    build_group_data,
    dim_induced,
    dim_v,
    label_sets,
    lefschetz_series,
)
from .complex import acyclicity_sweep
from .finflag import _factor_prime_power
from .rootdata import DEFAULT_BUDGET, BudgetError, UnsupportedTypeError
from .semistable import (
    brute_force_ss_count,
    build_verifier,
    cell_checks,
    parabolic_invariance_sample,
    points_csv,
    rational_point_counts,
    semistable_indices,
    smallest_feasible_m,
    verifier_mode,
)

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4


class SpecError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class GroupSpec(NamedTuple):
    cartan_type: tuple[tuple[str, int], ...]
    twist: tuple[tuple[int, ...], int] | None
    mu: tuple[int, ...]
    q: int
    budget: int

    def echo(self) -> dict:
        out = {
            "type": [[f, r] for f, r in self.cartan_type],
            "mu": list(self.mu),
            "q": self.q,
        }
        if self.twist is not None:
            out["twist"] = {"perm": list(self.twist[0]), "order": self.twist[1]}
        return out


def _is_int(value) -> bool:
    """A JSON integer; JSON true and false load as Python bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_group_spec(raw: dict, budget: int = DEFAULT_BUDGET) -> GroupSpec:
    if not isinstance(raw, dict):
        raise SpecError("$", "spec must be a JSON object")
    if "type" not in raw:
        raise SpecError("type", "missing")
    ctype = raw["type"]
    if not isinstance(ctype, list) or not ctype:
        raise SpecError("type", "expected a non-empty list of [family, rank] pairs")
    parsed_type = []
    for i, item in enumerate(ctype):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise SpecError(f"type[{i}]", "expected a [family, rank] pair")
        fam, rank = item
        if not isinstance(fam, str) or not _is_int(rank):
            raise SpecError(f"type[{i}]", "family must be a string and rank an integer")
        parsed_type.append((fam.upper(), rank))

    twist = None
    if raw.get("twist") is not None:
        t = raw["twist"]
        if not isinstance(t, dict) or "perm" not in t or "order" not in t:
            raise SpecError("twist", "expected {perm: [...], order: n}")
        perm = t["perm"]
        order = t["order"]
        if not isinstance(perm, list) or not all(_is_int(p) for p in perm):
            raise SpecError("twist.perm", "expected a list of 1-indexed images")
        if not _is_int(order) or order < 1:
            raise SpecError("twist.order", "expected a positive integer")
        twist = (tuple(perm), order)

    if "mu" not in raw:
        raise SpecError("mu", "missing")
    mu = raw["mu"]
    if not isinstance(mu, list) or not all(_is_int(c) for c in mu):
        raise SpecError("mu", "expected a list of integers")

    if "q" not in raw:
        raise SpecError("q", "missing")
    q = raw["q"]
    if not _is_int(q):
        raise SpecError("q", "expected a prime power >= 2")
    try:
        _factor_prime_power(q)
    except ValueError as exc:
        raise SpecError("q", "expected a prime power >= 2") from exc

    budget = raw.get("budget", budget)
    if not _is_int(budget) or budget < 1:
        raise SpecError("budget", "expected a positive integer")
    return GroupSpec(
        cartan_type=tuple(parsed_type), twist=twist, mu=tuple(mu), q=q, budget=budget
    )


def load_spec(path: str, budget: int = DEFAULT_BUDGET) -> GroupSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecError("$", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError("$", f"invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError("$", f"not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise SpecError("$", "invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer past Python's 4,300-digit limit
        raise SpecError("$", f"integer too long: {str(exc).partition(';')[0]}") from exc
    return parse_group_spec(raw, budget)


def instantiate(spec: GroupSpec) -> GroupData:
    try:
        return build_group_data(spec.cartan_type, spec.mu, spec.q, twist=spec.twist)
    except UnsupportedTypeError as exc:
        raise SpecError("type", str(exc)) from exc
    except ValueError as exc:
        raise SpecError("spec", str(exc)) from exc


# ---------------------------------------------------------------------------
# rendering

def _labels(gd: GroupData, I: frozenset[int]) -> list[str]:
    return [gd.orbits_delta.labels[k] for k in sorted(I)]


def cohomology_block(gd: GroupData, table: CohomologyTable) -> dict:
    summands = []
    for s in table.summands:
        summands.append(
            {
                "degree": s.degree,
                "twist": s.twist,
                "orbit_size": s.galois_dim,
                "I": _labels(gd, s.I),
                "dim_v": list(dim_v(gd, s.I).coeffs),
            }
        )
    return {"d_prime": table.d_prime, "summands": summands}


def euler_block(gd: GroupData, table: CohomologyTable) -> list[dict]:
    """The alternating sum of the table, one signed term per summand."""
    return [
        {
            "sign": (-1) ** s.degree,
            "I": _labels(gd, s.I),
            "twist": s.twist,
            "orbit_size": s.galois_dim,
        }
        for s in table.summands
    ]


def dims_block(gd: GroupData) -> list[dict]:
    # the largest value here is P_all(q), the induced dimension of the empty
    # label set; Python writes no int past its digit limit (0: no limit).
    # Below 2^(3 limit) < 10^limit, 10^limit need not be built
    limit = getattr(sys, "get_int_max_str_digits", int)()
    top = dim_induced(gd, frozenset())(gd.q)
    if limit and top.bit_length() > 3 * limit and top >= 10**limit:
        raise SpecError("q", f"the dimensions at q have more than {limit} digits")
    out = []
    for I in label_sets(gd):
        ipoly, vpoly = dim_induced(gd, I), dim_v(gd, I)
        out.append(
            {
                "I": _labels(gd, I),
                "dim_induced": list(ipoly.coeffs),
                "dim_v": list(vpoly.coeffs),
                "value_induced_at_q": ipoly(gd.q),
                "value_v_at_q": vpoly(gd.q),
            }
        )
    return out


def base_report(spec: GroupSpec, gd: GroupData) -> dict:
    return {
        "spec": spec.echo(),
        # exact: in the G2 model a conjugate of an integral mu can have thirds
        "mu_dominant": [int(c) if c.denominator == 1 else str(c) for c in gd.mu.coords],
        "dominance_normalized": gd.dominance_normalized,
        "d_prime": gd.d_prime,
        "reflex_degree": gd.e_degree,
    }


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, separators=(",", ": "))
    lines = []
    spec = report.get("spec", {})
    lines.append(f"type {spec.get('type')} twist {spec.get('twist', None)} mu {spec.get('mu')} q {spec.get('q')}")
    if report.get("dominance_normalized"):
        mu = ", ".join(str(c) for c in report["mu_dominant"])
        lines.append(f"mu normalized to dominant representative [{mu}]")
    if "cohomology" in report:
        lines.append(f"d' = {report['d_prime']}")
        for s in report["cohomology"]["summands"]:
            i_txt = "{" + ",".join(s["I"]) + "}"
            lines.append(
                f"H^{s['degree']}: I={i_txt} twist={s['twist']} orbit_size={s['orbit_size']} dim_v={s['dim_v']}"
            )
    if "dims" in report:
        for row in report["dims"]:
            i_txt = "{" + ",".join(row["I"]) + "}"
            lines.append(
                f"P_{i_txt}: dim_induced={row['dim_induced']} (={row['value_induced_at_q']} at q) "
                f"dim_v={row['dim_v']} (={row['value_v_at_q']} at q)"
            )
    if "verification" in report:
        v = report["verification"]
        for row in v.get("counts", []):
            lines.append(
                f"m={row['m']}: series={row['series']} brute={row['brute_force']} "
                f"{'ok' if row['match'] else 'MISMATCH'}"
            )
        if "cells" in v:
            lines.append(f"cell checks: {'ok' if v['cells']['all_match'] else 'MISMATCH'}")
        if "induced_dim_guard" in v:
            lines.append(
                f"induced dimension guard: {'ok' if v['induced_dim_guard']['match'] else 'MISMATCH'}"
            )
        if "sweep" in v:
            for row in v["sweep"]:
                lines.append(
                    f"sweep m={row['m']}: {row['non_semistable']} non-semistable points, "
                    f"{'all acyclic' if row['all_acyclic'] else 'VIOLATIONS'}"
                )
        if "budget_error" in v:
            lines.append(f"budget exhausted: {v['budget_error']}")
        if "smallest_feasible_m" in v:
            lines.append(f"smallest feasible m: {v['smallest_feasible_m']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

def cmd_cohomology(spec: GroupSpec, fmt: str) -> tuple[int, str]:
    gd = instantiate(spec)
    table = assemble_cohomology(gd)
    report = base_report(spec, gd)
    report["cohomology"] = cohomology_block(gd, table)
    report["euler"] = euler_block(gd, table)
    report["dims"] = dims_block(gd)
    return EXIT_OK, render(report, fmt)


def _induced_dim_guard(gd: GroupData, budget: int) -> dict:
    """Mandatory equality of the counting formula with actual point counts."""
    checks = [
        {"I": _labels(gd, I), "formula": dim_induced(gd, I)(gd.q), "points": points}
        for I, points in rational_point_counts(gd, budget).items()
    ]
    return {"match": all(c["formula"] == c["points"] for c in checks), "checks": checks}


def cmd_dims(spec: GroupSpec, fmt: str) -> tuple[int, str]:
    gd = instantiate(spec)
    report = base_report(spec, gd)
    report["dims"] = dims_block(gd)
    if verifier_mode(gd) is not None:
        try:
            guard = _induced_dim_guard(gd, spec.budget)
        except BudgetError as exc:
            report["verification"] = {"budget_error": str(exc)}
            return EXIT_BUDGET, render(report, fmt)
        report["verification"] = {"induced_dim_guard": guard}
        if not guard["match"]:
            return EXIT_MISMATCH, render(report, fmt)
    return EXIT_OK, render(report, fmt)


def cmd_verify(spec: GroupSpec, fmt: str, m_list: list[int], seed: int,
               points_csv_path: str | None = None) -> tuple[int, str]:
    gd = instantiate(spec)
    if verifier_mode(gd) is None:
        raise SpecError("type", "verify supports split type-A instances and twisted A_2")
    table = assemble_cohomology(gd)
    report = base_report(spec, gd)
    report["cohomology"] = cohomology_block(gd, table)
    verification: dict = {}
    report["verification"] = verification

    counts = []
    cell_rows = []
    cells_ok = True
    spot_ok = True
    try:
        guard = _induced_dim_guard(gd, spec.budget)
        verification["induced_dim_guard"] = guard
        all_match = guard["match"]
        for pos, m in enumerate(m_list):
            ctx = build_verifier(gd, m, budget=spec.budget)
            series = lefschetz_series(gd, table, m)
            brute = brute_force_ss_count(ctx)
            row = {"m": m, "series": series, "brute_force": brute, "match": series == brute}
            if not row["match"]:
                ss = semistable_indices(ctx)
                row["counterexample"] = {
                    "semistable_count": len(ss),
                    "probe_point": [[list(r) for r in s.rows] for s in ctx.chain(ss[0] if ss else 0)],
                }
            counts.append(row)
            all_match = all_match and row["match"]

            for I, ok, detail in cell_checks(ctx):
                cells_ok = cells_ok and ok
                cell_rows.append({"m": m, "I": _labels(gd, I), "match": ok, **detail})
            if pos == 0:
                spot_ok = parabolic_invariance_sample(ctx, seed=seed)
                if points_csv_path is not None:
                    text = points_csv(ctx)
                    try:
                        with open(points_csv_path, "w", encoding="utf-8") as fh:
                            fh.write(text)
                    except OSError as exc:
                        raise SpecError("--points-csv", f"cannot write {points_csv_path}: {exc}") from exc
                    verification["points_csv"] = points_csv_path

        verification["counts"] = counts
        if cell_rows:
            verification["cells"] = {"all_match": cells_ok, "checks": cell_rows}
            all_match = all_match and cells_ok
        verification["invariant_spot_checks"] = {"seed": seed, "parabolic_invariance": spot_ok}
        all_match = all_match and spot_ok
    except BudgetError as exc:
        # a failed guard is refused at every m
        suggestion = smallest_feasible_m(gd, spec.budget) if "induced_dim_guard" in verification else None
        verification["budget_error"] = str(exc)
        if suggestion is not None:
            verification["smallest_feasible_m"] = suggestion
        return EXIT_BUDGET, render(report, fmt)

    return (EXIT_OK if all_match else EXIT_MISMATCH), render(report, fmt)


def cmd_sweep(spec: GroupSpec, fmt: str, m_list: list[int], fail_fast: bool) -> tuple[int, str]:
    gd = instantiate(spec)
    if verifier_mode(gd) is None:
        raise SpecError("type", "sweep supports split type-A instances and twisted A_2")
    report = base_report(spec, gd)
    rows = []
    ok = True
    try:
        for m in m_list:
            ctx = build_verifier(gd, m, budget=spec.budget)
            sweep = acyclicity_sweep(ctx, fail_fast=fail_fast)
            rows.append(
                {
                    "m": m,
                    "total_points": sweep.total_points,
                    "non_semistable": sweep.non_semistable,
                    "all_acyclic": sweep.all_acyclic,
                    "violations": list(sweep.violations),
                    "per_point": list(sweep.per_point),
                }
            )
            ok = ok and sweep.all_acyclic
    except BudgetError as exc:
        report["verification"] = {"sweep": rows, "budget_error": str(exc)}
        return EXIT_BUDGET, render(report, fmt)
    report["verification"] = {"sweep": rows}
    return (EXIT_OK if ok else EXIT_MISMATCH), render(report, fmt)


# ---------------------------------------------------------------------------
# entry point

def _parse_m_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise SpecError("--m", f"bad extension list {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise SpecError("--m", "extension degrees must be positive")
    return values


# the options each command takes; --fail-fast is the one without a value
_COMMON = ("--spec", "--format", "--budget")
_OPTIONS = {
    "cohomology": _COMMON,
    "dims": _COMMON,
    "verify": _COMMON + ("--m", "--seed", "--points-csv"),
    "sweep": _COMMON + ("--m", "--fail-fast"),
}

USAGE = """\
usage: perdom {cohomology,dims,verify,sweep} --spec PATH [--format json|table] [--budget N]
  verify, sweep: [--m LIST]            comma-separated extension degrees (1,2)
  verify:        [--seed N]            seed of the invariant spot checks (0)
                 [--points-csv PATH]   write per-point slope reports here
  sweep:         [--fail-fast]         stop each m at its first violation
"""


def parse_args(argv: list[str]) -> tuple[str, dict]:
    """The command and its options, defaults filled in.  Options come in any
    order, as ``--opt value`` or ``--opt=value``, and a repeated option keeps
    its last value; a malformed command line raises SpecError."""
    command = argv[0] if argv else ""
    if command not in _OPTIONS:
        raise SpecError("command", f"expected one of {', '.join(_OPTIONS)}, got {command!r}")
    opts = {"--format": "json", "--budget": DEFAULT_BUDGET, "--m": "1,2", "--seed": 0,
            "--points-csv": None, "--fail-fast": False}
    rest = iter(argv[1:])
    for arg in rest:
        name, eq, value = arg.partition("=")
        if name not in _OPTIONS[command]:
            raise SpecError(name, f"not an option of {command}")
        if name == "--fail-fast":
            if eq:
                raise SpecError(name, "takes no value")
            value = True
        elif not eq:
            value = next(rest, "--")
            if value.startswith("--"):
                raise SpecError(name, "expected a value")
        if name == "--format" and value not in ("json", "table"):
            raise SpecError(name, f"expected json or table, got {value!r}")
        if name in ("--budget", "--seed"):
            try:
                value = int(value)
            except ValueError as exc:
                raise SpecError(name, f"expected an integer, got {value!r}") from exc
        opts[name] = value
    if "--spec" not in opts:
        raise SpecError("--spec", "missing")
    return command, opts


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        return EXIT_OK
    try:
        command, opts = parse_args(argv)
        spec = load_spec(opts["--spec"], budget=opts["--budget"])
        if command == "cohomology":
            code, out = cmd_cohomology(spec, opts["--format"])
        elif command == "dims":
            code, out = cmd_dims(spec, opts["--format"])
        elif command == "verify":
            code, out = cmd_verify(spec, opts["--format"], _parse_m_list(opts["--m"]), opts["--seed"],
                                   points_csv_path=opts["--points-csv"])
        else:
            code, out = cmd_sweep(spec, opts["--format"], _parse_m_list(opts["--m"]), opts["--fail-fast"])
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
