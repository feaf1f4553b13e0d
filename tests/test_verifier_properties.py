"""``verify`` and ``sweep`` on random small instances, judged by their reports.

Instances are split SL2, SL3 and SL4 over q up to 11, 5 and 3, and the
quasi-split U3 over q up to 5, each with a random integer mu in [-2, 2]^n
and m = 1, 2 or both.  An instance whose points at some m exceed 20,000 by
``check_verifier_budget`` is discarded before any command runs.  Each
report must say what a correct verifier says: exit 0, every brute-force
count equal to its series, every cell check and the spot check passing, and
every destabilizing complex acyclic.  The runs are derandomised.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from perdom import cli  # noqa: E402
from perdom.rootdata import DEFAULT_BUDGET, BudgetError  # noqa: E402
from perdom.semistable import check_verifier_budget  # noqa: E402

POINTS = 20_000
# the largest q per model: SL2, SL3, SL4 by n, and U3
LARGEST_Q = {2: 11, 3: 5, 4: 3, "u3": 5}
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11)


@st.composite
def instances(draw):
    model = draw(st.sampled_from((2, 3, 4, "u3")))
    n = 3 if model == "u3" else model
    q = draw(st.sampled_from([p for p in PRIME_POWERS if p <= LARGEST_Q[model]]))
    mu = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    twist = ((2, 1), 2) if model == "u3" else None
    spec = cli.GroupSpec(cartan_type=(("A", n - 1),), twist=twist, mu=tuple(mu), q=q, budget=DEFAULT_BUDGET)
    return spec, draw(st.sampled_from(([1], [2], [1, 2])))


def fits(spec, m_list) -> bool:
    gd = cli.instantiate(spec)
    try:
        for m in m_list:
            check_verifier_budget(gd, m, POINTS)
    except BudgetError:
        return False
    return True


@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(instances())
def test_verify_and_sweep_hold_on_random_instances(case):
    spec, m_list = case
    assume(fits(spec, m_list))
    code, text = cli.cmd_verify(spec, "json", m_list, seed=0)
    verification = json.loads(text)["verification"]
    assert code == cli.EXIT_OK, (spec, m_list, verification)
    assert [row["m"] for row in verification["counts"]] == m_list
    assert all(row["brute_force"] == row["series"] for row in verification["counts"])
    assert verification["cells"]["all_match"] if spec.twist is None else "cells" not in verification
    assert verification["invariant_spot_checks"]["parabolic_invariance"]
    code, text = cli.cmd_sweep(spec, "json", m_list, fail_fast=False)
    rows = json.loads(text)["verification"]["sweep"]
    assert code == cli.EXIT_OK, (spec, m_list)
    assert [row["m"] for row in rows] == m_list
    assert all(row["all_acyclic"] for row in rows)
