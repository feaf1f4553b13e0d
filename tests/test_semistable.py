"""Weighted-flag pairings, slopes, the semistability oracle, stratification."""

import collections
import itertools
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from helpers import (
    INSTANCES,
    HermitianData,
    bruhat_cells_by_point,
    cell_row_by_point,
    contains,
    coordinate_filtration,
    destabilizer_rows_by_point,
    incidence_by_subspace,
    frobenius_equivariance_holds,
    instance,
    is_k_rational,
    levels_of,
    matrix_times_subspace,
    orbit_weight,
    pairwise_flag_points,
    point_chains,
    position_tests,
    rational_filtrations,
    representative_invariants,
    standard_subspaces,
    strata_by_point,
    table,
    verifier,
    weighted_point,
    y_I_points_by_row,
)
from perdom import cli, finflag, semistable
from perdom.cohom import GroupData, assemble_cohomology, build_group_data, label_sets, lefschetz_series, omega_I
from perdom.complex import acyclicity_sweep, build_t_x
from perdom.finflag import (
    Subspace,
    enumerate_subspaces,
    full_space,
    intersection_dim,
    make_tower,
    row_families,
    subspace_from_rows,
)
from perdom.rootdata import DEFAULT_BUDGET
from perdom.semistable import (
    FlagPoint,
    VerifierContext,
    brute_force_ss_count,
    bruhat_cells_check,
    build_verifier,
    cell_checks,
    check_verifier_budget,
    filtration_pairing,
    is_semistable,
    parabolic_invariance_sample,
    points_csv,
    rational_point_counts,
    semistable_indices,
    slope,
    subspace_coweight_filtration,
    verifier_mode,
)


def test_pairing_of_equal_regular_cocharacters():
    t = make_tower(2, 1)
    f = coordinate_filtration(t, [1, 0, -1])
    assert filtration_pairing(t, f, f) == 2


def test_pairing_cross_example():
    t = make_tower(2, 1)
    f = coordinate_filtration(t, [1, -1, 0])
    g = coordinate_filtration(t, [0, 1, -1])
    assert filtration_pairing(t, f, g) == -1
    assert filtration_pairing(t, g, f) == -1


def test_pairing_against_trivial_filtration():
    t = make_tower(2, 1)
    f = coordinate_filtration(t, [1, 0, -1])
    trivial = FlagPoint(chain=(), weights=(Fraction(0),), n=3)
    assert filtration_pairing(t, f, trivial) == 0


def test_pairing_rejects_ambient_mismatch():
    t = make_tower(2, 1)
    f = coordinate_filtration(t, [1, -1])
    g = coordinate_filtration(t, [1, 0, -1])
    with pytest.raises(ValueError):
        filtration_pairing(t, f, g)


def test_torus_pairing_identity_on_random_pairs():
    # 200 seeded random cocharacter pairs across three ambient ranks
    rng = random.Random(2024)
    towers = {2: make_tower(2, 1), 3: make_tower(3, 1), 4: make_tower(2, 2)}
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        t = towers[n]
        lam = [rng.randint(-4, 4) for _ in range(n)]
        mu = [rng.randint(-4, 4) for _ in range(n)]
        f = coordinate_filtration(t, lam)
        g = coordinate_filtration(t, mu)
        assert filtration_pairing(t, f, g) == sum(a * b for a, b in zip(lam, mu))


def test_subspace_coweight_filtration_weights():
    t = make_tower(2, 1)
    line = subspace_from_rows(t, [[1, 0, 0]], 3)
    f = subspace_coweight_filtration(line)
    assert f.weights == (Fraction(2, 3), Fraction(-1, 3))
    plane = subspace_from_rows(t, [[1, 0, 0], [0, 1, 0]], 3)
    f = subspace_coweight_filtration(plane)
    assert f.weights == (Fraction(1, 3), Fraction(-2, 3))
    half = subspace_coweight_filtration(subspace_from_rows(t, [[1, 0]], 2))
    assert half.weights == (Fraction(1, 2), Fraction(-1, 2))


def test_subspace_coweight_filtration_rejects_trivial():
    t = make_tower(2, 1)
    with pytest.raises(ValueError):
        subspace_coweight_filtration(full_space(t, 3))


def test_slope_examples_p1():
    ctx = verifier("a1_reg", 1)
    chains = point_chains(ctx)
    own = chains.index(
        next(x for x in chains if x[0].rows == ((1, 0),))
    )
    point = weighted_point(ctx, chains[own])
    tests = rational_filtrations(ctx)
    same = next(t for t in tests if t.chain[0].rows == ((1, 0),))
    other = next(t for t in tests if t.chain[0].rows == ((0, 1),))
    assert slope(ctx.tower, point, same) == -1
    assert slope(ctx.tower, point, other) == 1


def test_slope_scales_with_positive_multiples():
    ctx = verifier("a1_reg", 2)
    point = weighted_point(ctx, ctx.chain(0))
    test = rational_filtrations(ctx)[0]
    scaled = FlagPoint(
        chain=test.chain, weights=tuple(Fraction(3, 2) * w for w in test.weights), n=test.n
    )
    assert slope(ctx.tower, point, scaled) == Fraction(3, 2) * slope(ctx.tower, point, test)


def test_semistable_p1_over_f4():
    ctx = verifier("a1_reg", 2)
    verdicts = [not is_semistable(ctx, i) for i in range(len(ctx.points))]
    assert sum(verdicts) == 2
    # the three rational points are exactly the unstable ones
    for i, x in enumerate(point_chains(ctx)):
        assert verdicts[i] == (not is_k_rational(x[0], ctx.tower))


def test_semistable_p2_avoids_rational_lines():
    ctx = verifier("a2_min", 2)
    rational_planes = [t.chain[0] for t in rational_filtrations(ctx) if t.chain[0].dim == 2]

    for i, x in enumerate(point_chains(ctx)):
        on_rational_line = any(contains(ctx.tower, p, x[0]) for p in rational_planes)
        assert (not is_semistable(ctx, i)) == (not on_rational_line)


def test_semistable_central_everything():
    ctx = verifier("u3_central", 1)
    assert len(ctx.points) == 1
    assert brute_force_ss_count(ctx) == 1


@pytest.mark.parametrize("name,m", [("a1_reg", 1), ("a2_reg", 2), ("a3_mid", 1), ("u3_reg", 1), ("u3_reg", 2)])
def test_tests_are_lattice_positions_with_their_weights(name, m):
    # a test is its chain of (dimension, position) pairs in the lattice with
    # its weights: decoded, the coweight filtration of each rational subspace
    # in level order, or each rational chamber of U_3 with weights (1, 0, -1)
    ctx = verifier(name, m)
    levels = ctx.lattice.levels
    assert all(type(d) is int and type(k) is int for chain, _ in ctx.tests for d, k in chain)
    if ctx.mode == "split":
        expected = [subspace_coweight_filtration(s) for level in levels.values() for s in level]
    else:
        _, chambers = finflag.enumerate_twisted_fixed_flags(ctx.tower, conj_power=1)
        expected = [FlagPoint(chain=(levels[1][a], levels[2][b]), weights=(Fraction(1), Fraction(0), Fraction(-1)), n=3)
                    for a, b in chambers]
    assert rational_filtrations(ctx) == expected
    assert all(type(w) is Fraction for _, weights in ctx.tests for w in weights)


def test_slope_report_contents():
    ctx = verifier("a1_reg", 1)
    row = is_semistable(ctx, 0)
    assert row  # not semistable
    assert all(value < 0 for _, value in row)
    assert len(row) == 1


def test_brute_force_examples():
    assert brute_force_ss_count(verifier("a1_reg", 1)) == 0
    assert brute_force_ss_count(verifier("a1_reg", 2)) == 2
    assert brute_force_ss_count(verifier("a1_reg", 3)) == 6
    assert brute_force_ss_count(verifier("a2_min", 3)) == 24
    assert brute_force_ss_count(verifier("u3_reg", 1)) == 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_u3_points_are_twisted_fixed(m):
    # the points over the degree-s field are fixed by s steps of the twisted
    # Frobenius (the chambers are checked in test_finflag)
    ctx = verifier("u3_reg", m)
    s = ctx.gd.e_degree * m
    h = HermitianData(tower=ctx.tower, n=ctx.n)
    assert all(h.is_fixed(x, s) for x in point_chains(ctx))


def test_u3_reflex_degree_two_instance():
    # mu not fixed by the twist: points live over extensions of the degree-2
    # reflex field, and the series must still match
    gd = instance("u3_min")
    assert gd.e_degree == 2
    ctx = verifier("u3_min", 1)
    assert len(ctx.points) == 21
    assert brute_force_ss_count(ctx) == lefschetz_series(gd, table("u3_min"), 1) == 12


def cell_row(ctx, I):
    """``bruhat_cells_check``'s verdict, y_count and cell_union_count for I."""
    ok, detail = bruhat_cells_check(ctx, I)
    return ok, detail["y_count"], detail["cell_union_count"]


def test_y_stratum_sl2():
    ctx = verifier("a1_reg", 1)
    cells = bruhat_cells_by_point(ctx)
    y0 = y_I_points_by_row(ctx, ctx.destabilizer_table, frozenset())
    assert len(y0) == 1
    assert cell_row(ctx, frozenset()) == cell_row_by_point(ctx, y0, cells, frozenset())
    point = weighted_point(ctx, ctx.chain(next(iter(y0))))
    std = coordinate_filtration(ctx.tower, orbit_weight(ctx.gd, 0).coords)
    assert slope(ctx.tower, point, std) == -1
    everything = range(len(ctx.points))
    assert cell_row(ctx, frozenset({0})) == cell_row_by_point(ctx, everything, cells, frozenset({0}))


def test_y_stratum_counts_sl3():
    gd = instance("a2_reg")
    for m in (1, 2):
        ctx = verifier("a2_reg", m)
        for k in range(gd.d_prime + 1):
            for I in itertools.combinations(range(gd.d_prime), k):
                expected = sum(2 ** (m * o.rep.length) for o in omega_I(gd, frozenset(I)))
                assert bruhat_cells_check(ctx, frozenset(I))[1]["y_count"] == expected


def test_bruhat_cells_match_strata():
    for name in ("a1_reg", "a2_reg", "a2_min"):
        gd = instance(name)
        for m in (1, 2):
            ctx = verifier(name, m)
            for k in range(gd.d_prime + 1):
                for I in itertools.combinations(range(gd.d_prime), k):
                    ok, detail = bruhat_cells_check(ctx, frozenset(I))
                    assert ok, (name, m, I, detail)


def test_nonsemistable_set_is_union_of_translated_strata():
    # the union of negative-slope loci of the conjugated coweights, grouped
    # by orbit, recovers the complement of the semistable locus
    for name, m in (("a2_min", 2), ("u3_reg", 2)):
        ctx = verifier(name, m)
        union = set()
        for test in rational_filtrations(ctx):
            for i, point in enumerate(point_chains(ctx)):
                if slope(ctx.tower, weighted_point(ctx, point), test) < 0:
                    union.add(i)
        ss = set(semistable_indices(ctx))
        assert union == set(range(len(ctx.points))) - ss


def test_frobenius_equivariance():
    for name, m in (("a1_reg", 2), ("a2_min", 2), ("u3_reg", 2), ("u3_reg", 1)):
        assert frobenius_equivariance_holds(verifier(name, m))


def test_parabolic_invariance_sampled():
    assert parabolic_invariance_sample(verifier("a2_reg", 2), seed=1234, samples=25)


def test_parabolic_invariance_sample_reads_each_verdict_against_the_reference_slope():
    # a table with every row emptied calls every point semistable, which the
    # reference slope of some sampled point against its test contradicts
    ctx = build_verifier(instance("a2_reg"), 2)
    assert parabolic_invariance_sample(ctx, seed=1234, samples=25)
    ctx.destabilizer_table = [()] * len(ctx.points)
    assert not parabolic_invariance_sample(ctx, seed=1234, samples=25)


def test_a_point_is_its_chain_and_no_flag_point_is_built_per_point(monkeypatch):
    # a point is its tuple of positions in its model's levels, and mu's
    # weights live once on the context: building the verifier, its
    # destabilizer table, the cell checks and the spot check make as many
    # weighted flags at m = 2 (105 points) as at m = 1 (21 points)
    built = collections.Counter()
    original = FlagPoint.__new__

    def counted(cls, *args, **kwargs):
        built[m] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(FlagPoint, "__new__", counted)
    sizes = {}
    for m in (1, 2):
        ctx = build_verifier(instance("a2_reg"), m)
        ctx.destabilizer_table
        assert all(ok for _, ok, _ in cell_checks(ctx))
        assert parabolic_invariance_sample(ctx, seed=0)
        assert all(type(x) is tuple and all(type(k) is int for k in x) for x in ctx.points)
        assert all(type(s) is Subspace for x in point_chains(ctx) for s in x)
        assert ctx.weights == (1, 0, -1)
        sizes[m] = len(ctx.points)
    assert sizes == {1: 21, 2: 105}
    assert built[1] == built[2] > 0


# every verifier instance of the catalog at m = 1, 2, 3 but a3_reg at m = 3:
# its 384,345 full flags of SL_4 over F_8 take 7 s and 80 MiB to list, and
# enumerate_flag_points asserts their count itself
@pytest.mark.parametrize("name,m", [
    (name, m) for name in INSTANCES if verifier_mode(instance(name)) is not None
    for m in (1, 2, 3) if (name, m) != ("a3_reg", 3)
])
def test_verifier_points_are_the_ones_the_budget_check_counts(name, m):
    # one decision of the point model serves the check and the enumeration:
    # the tower's degree over F_q and the point count agree with the check's
    gd = instance(name)
    model = check_verifier_budget(gd, m, DEFAULT_BUDGET)
    ctx = build_verifier(gd, m)
    assert ctx.tower.m == model.ext
    assert len(ctx.points) == model.size()
    if gd.mu.coords == (0,) * len(gd.mu.coords):
        assert model.past is None and len(ctx.points) == 1


@pytest.mark.parametrize("ext", [1, 2])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_matrix_action_equals_the_entrywise_product(q, ext):
    t = make_tower(q, ext)
    rng = random.Random(10 * q + ext)
    for n in (2, 3, 4):
        for _ in range(15):
            g = semistable.random_parabolic_element(t, n, rng.randrange(1, n), rng)
            rows = [[rng.randrange(t.size) for _ in range(n)] for _ in range(rng.randrange(1, n + 1))]
            sub = subspace_from_rows(t, rows, n)
            assert semistable.apply_matrix_to_subspace(t, g, sub) == matrix_times_subspace(t, g, sub)


def test_verifier_rejects_unsupported_group():
    gd = instance("b2_reg")
    with pytest.raises(ValueError):
        build_verifier(gd, 1)


def test_verifier_budget():
    from perdom.rootdata import BudgetError

    gd = instance("a2_reg")
    with pytest.raises(BudgetError):
        build_verifier(gd, 3, budget=10)


def test_one_incidence_pass_per_context(monkeypatch):
    calls = collections.Counter()

    def counted(name):
        original = getattr(semistable, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(semistable, name, wrapper)

    original_annihilator = finflag.annihilator
    annihilated = collections.Counter()
    ann_of = {}

    def counted_annihilator(tower, sub):
        annihilated[sub] += 1
        ann_of[sub] = original_annihilator(tower, sub)
        return ann_of[sub]

    # every incidence pass: the vectors of one subspace against a family,
    # ranked by ``finflag.pairing_ranks``, which reads a single vector or
    # row through ``nonzero_pairings``
    passes = []
    in_ranks = []
    original_ranks = finflag.pairing_ranks

    def counted_ranks(tower, vectors, families):
        passes.append((vectors, families))
        in_ranks.append(1)
        try:
            return list(original_ranks(tower, vectors, families))
        finally:
            in_ranks.pop()

    # the context computes no annihilator itself: it reads its two
    # ``FlagLevels``', so ``semistable`` has no ``annihilator`` to patch
    assert not hasattr(semistable, "annihilator")
    monkeypatch.setattr(finflag, "pairing_ranks", counted_ranks)
    counted("slope")
    counted("cell_invariant")
    counted("pairings")
    gd = instance("a2_reg")
    ctx = build_verifier(gd, 2)  # fresh, so no consumer has filled its caches
    # every pass of the rational lattice's ``FlagLevels.above``, and every
    # annihilator of its levels, counted from here on: the point enumeration
    # ran its own levels through the same routines, and computed its planes'
    # annihilators there
    lattice_passes = []
    original_lattice_nonzero = finflag.nonzero_pairings

    def counted_lattice_nonzero(tower, vectors, families):
        if not in_ranks:
            lattice_passes.append((vectors, families))
        return original_lattice_nonzero(tower, vectors, families)

    monkeypatch.setattr(finflag, "nonzero_pairings", counted_lattice_nonzero)
    monkeypatch.setattr(finflag, "annihilator", counted_annihilator)
    brute_force_ss_count(ctx)
    points_csv(ctx)
    assert frobenius_equivariance_holds(ctx)
    for k in range(gd.d_prime + 1):
        for I in itertools.combinations(range(gd.d_prime), k):
            assert bruhat_cells_check(ctx, frozenset(I))[0]
    for i in range(len(ctx.points)):
        if is_semistable(ctx, i):
            build_t_x(ctx, i)
    point_spaces = {s for x in point_chains(ctx) for s in x}
    test_spaces = {t.chain[0] for t in rational_filtrations(ctx)}
    # the points' levels' annihilators, computed while enumerating the flags;
    # a rational plane keeps the lattice's, which its passes carry
    for d, level in ctx.point_levels.levels.items():
        if d >= 2:
            for s, a in zip(level, ctx.point_levels.annihilators(d)):
                ann_of.setdefault(s, a)

    # decode each pass: the subspace W whose rows or annihilator it pairs,
    # and the members of the family, by their rows or by their annihilators
    def key(rows):
        return tuple(tuple(col[0] for col in f) for f in row_families(ctx.tower, [rows]))

    by_rows = {key(s.rows): s for s in point_spaces | test_spaces}
    by_ann = {key(a): s for s, a in ann_of.items()}

    def members_of(lookup, families):
        return [lookup[tuple(tuple(col[k] for col in f) for f in families)]
                for k in range(len(families[0][0]))]

    pairs = collections.Counter()
    for vectors, families in passes:
        w = next((w for w in test_spaces if vectors is ann_of.get(w)), None)
        lookup = by_rows if w is not None else by_ann
        if w is None:
            w = next(w for w in test_spaces if vectors is w.rows)
        members = members_of(lookup, families)
        assert len(set(members)) == len(members)
        assert set(members) == {s for s in point_spaces if s.dim == members[0].dim}
        pairs.update((s, w) for s in members)
    # the sweep's inclusions: each rational subspace's annihilator against
    # each level of smaller rational subspaces, once, and never against its
    # own level
    inclusions = collections.Counter()
    for vectors, families in lattice_passes:
        w = next(w for w in test_spaces if ann_of[w] == vectors)
        members = members_of(by_rows, families)
        assert members == ctx.lattice.levels[members[0].dim]
        inclusions[w, members[0].dim] += 1
    # every distinct (point subspace, test subspace) pair exactly once, and
    # the slopes read from the table rather than from ``slope``
    assert set(pairs.values()) == {1}
    assert len(pairs) == len(point_spaces) * len(test_spaces) == 42 * 14
    assert calls == {"cell_invariant": len(gd.mu_orbit)}
    assert set(inclusions.values()) == {1}
    assert set(inclusions) == {(w, s.dim) for w in test_spaces for s in test_spaces if s.dim < w.dim}
    # from here on, each rational subspace's annihilator once, in the
    # lattice, and none for a point subspace that is not rational
    assert set(annihilated.values()) == {1}
    assert point_spaces & test_spaces and set(annihilated) <= point_spaces | test_spaces
    assert not any(annihilated[s] for s in point_spaces - test_spaces if s.dim == 1)


def test_each_family_of_subspaces_computes_each_annihilator_once(monkeypatch):
    # every call of ``finflag.annihilator`` from before the verifier is
    # built, per (tower, subspace), credited to the ``FlagLevels`` whose
    # ``annihilators`` made it: the points' levels compute each point
    # subspace's at most once, the rational lattice each rational
    # subspace's at most once, and the context none itself
    calls = collections.Counter()
    owners = []
    original_annihilator = finflag.annihilator
    original_level_annihilators = finflag.FlagLevels.annihilators

    def counted(tower, sub):
        calls[owners[-1] if owners else None, tower, sub] += 1
        return original_annihilator(tower, sub)

    def owned(levels, d):
        owners.append(levels)
        try:
            return original_level_annihilators(levels, d)
        finally:
            owners.pop()

    monkeypatch.setattr(finflag, "annihilator", counted)
    monkeypatch.setattr(finflag.FlagLevels, "annihilators", owned)
    gd = cli.instantiate(cli.load_spec(str(Path(__file__).resolve().parent.parent / "bench" / "specs" / "sl4_mid.json")))
    ctx = build_verifier(gd, 2)
    assert brute_force_ss_count(ctx) == lefschetz_series(gd, assemble_cohomology(gd), 2)
    assert all(ok for _, ok, _ in cell_checks(ctx))
    assert parabolic_invariance_sample(ctx, seed=0)
    assert acyclicity_sweep(ctx).all_acyclic
    assert {owner for owner, _, _ in calls} == {ctx.point_levels, ctx.lattice}
    assert set(calls.values()) == {1}
    for owner in (ctx.point_levels, ctx.lattice):
        members = {s for level in owner.levels.values() for s in level}
        assert {sub for o, tower, sub in calls if o is owner} <= members
        assert {tower for o, tower, _ in calls if o is owner} == {ctx.tower}


def test_standard_subspaces_built_once_per_context(monkeypatch):
    # each E_d is built once, by the lattice, as the first member of its
    # level d; its test leads the level's tests, and neither the cell checks
    # nor the spot check builds it again: the cell checks make no
    # elimination at all
    gd = instance("a3_mid")
    ctx = build_verifier(gd, 1)
    unit = standard_subspaces(ctx.tower, ctx.n)
    assert [level[0] for level in ctx.lattice.levels.values()] == list(unit)
    assert ctx.standard_tests == (0, 15, 50)
    assert [ctx.tests[k] for k in ctx.standard_tests] == position_tests(
        ctx.lattice, map(semistable.subspace_coweight_filtration, unit))
    with mock.patch.object(finflag, "rref", wraps=finflag.rref) as eliminated:
        checks = cell_checks(ctx)
    assert eliminated.call_count == 0
    assert all(ok for _, ok, _ in checks)
    read = []
    original = semistable.subspace_coweight_filtration

    def spy(sub):
        read.append(sub)
        return original(sub)

    monkeypatch.setattr(semistable, "subspace_coweight_filtration", spy)
    assert parabolic_invariance_sample(ctx, seed=1)
    assert read and all(sub is ctx.lattice.levels[sub.dim][0] for sub in read)


def test_bruhat_cells_read_the_incidence_table():
    # the strata counted from the cells gathered off the incidence columns
    # equal those of each point's intersection dimensions computed by
    # elimination
    def direct(ctx, chain):
        return tuple(
            tuple(intersection_dim(ctx.tower, e, s) for e in standard_subspaces(ctx.tower, ctx.n)) for s in chain
        )

    for name, m in (("a2_reg", 2), ("a3_mid", 1), ("a3_reg", 1)):
        ctx = build_verifier(instance(name), m)
        cells = bruhat_cells_by_point(ctx, direct)
        assert ctx.cell_strata == strata_by_point(ctx, ctx.destabilizer_table, cells), name


SPLIT_SPECS = {path.name: path for folder in ("specs", "bench/specs", "tests/golden/verifier_specs")
               for path in sorted((Path(__file__).resolve().parent.parent / folder).glob("*.json"))
               if verifier_mode(cli.instantiate(cli.load_spec(str(path)))) == "split"}
SL5_CELLS = "sl5_(2,2,1,0,-1)"


@pytest.mark.parametrize("case,m", [
    *((name, m) for name in INSTANCES if verifier_mode(instance(name)) == "split" for m in (1, 2)),
    *((name, m) for name in SPLIT_SPECS for m in (1, 2)),
    (SL5_CELLS, 1),
])
def test_counted_cell_invariants_equal_the_incidence_reads(case, m):
    # each representative's invariant counted from its coordinates equals
    # the one read through the incidence table at its coordinate flag,
    # built by elimination and found by a position map of the tests' own;
    # E_d leads every lattice level, and its test is the level's first
    if case == SL5_CELLS:
        gd = build_group_data([("A", 4)], [2, 2, 1, 0, -1], 2)
    elif case in SPLIT_SPECS:
        gd = cli.instantiate(cli.load_spec(str(SPLIT_SPECS[case])))
    else:
        gd = instance(case)
    ctx = verifier(case, m) if case in INSTANCES else build_verifier(gd, m)
    counted = {p: semistable.cell_invariant(p.labels) for p in gd.mu_orbit}
    assert counted == representative_invariants(ctx), case
    unit = standard_subspaces(ctx.tower, ctx.n)
    assert [level[0] for level in ctx.lattice.levels.values()] == list(unit)
    assert [ctx.tests[k] for k in ctx.standard_tests] == position_tests(
        ctx.lattice, map(semistable.subspace_coweight_filtration, unit))


def test_minimal_label_sets_are_computed_once_per_orbit(monkeypatch):
    # SL5 (2,2,1,0,-1), m = 1: the table and all 16 label sets' cell checks
    # read each W-orbit's minimal label set from the group data, d' scaled
    # pairings per orbit in all
    gd = build_group_data([("A", 4)], [2, 2, 1, 0, -1], 2)
    ctx = build_verifier(gd, 1)
    paired = collections.Counter()
    original = GroupData.scaled_pairing

    def counted(self, point, k):
        paired[point] += 1
        return original(self, point, k)

    monkeypatch.setattr(GroupData, "scaled_pairing", counted)
    assemble_cohomology(gd)
    checks = cell_checks(ctx)
    assert len(checks) == 16 and all(ok for _, ok, _ in checks)
    assert paired == {o.rep: gd.d_prime for o in gd.worbits}


def assert_bulk_passes_match_the_oracles(ctx):
    """The table, the semistable points, the points counted per (cell,
    missed set), and every label set's cell check, by its stratum, against
    the per-point oracles, the cells from ``bruhat_cells_by_point``."""
    rows = destabilizer_rows_by_point(ctx)
    assert ctx.destabilizer_table == rows
    assert semistable_indices(ctx) == [i for i, row in enumerate(rows) if not row]
    if ctx.mode == "split":
        partition = bruhat_cells_by_point(ctx)
        assert ctx.cell_strata == strata_by_point(ctx, rows, partition)
        for I in label_sets(ctx.gd):
            y = y_I_points_by_row(ctx, rows, I)
            assert cell_row(ctx, I) == cell_row_by_point(ctx, y, partition, I), sorted(I)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", INSTANCES)
def test_bulk_passes_match_the_per_point_oracles(name, m):
    # the whole catalog: the degenerate a2_central and u3_central have one
    # empty chain, no chain level to gather, which must still land in its
    # cell; a1a1_halfcentral, like every instance off split SL_n and U_3,
    # has no verifier at all
    gd = instance(name)
    if verifier_mode(gd) is None:
        with pytest.raises(ValueError, match="brute force supports"):
            build_verifier(gd, m)
        return
    ctx = build_verifier(gd, m)
    assert_bulk_passes_match_the_oracles(ctx)
    if name in ("a2_central", "u3_central"):
        assert ctx.points == [()] and ctx.level_gathers == []


@pytest.mark.parametrize("m", [8, 9, 10])
def test_bulk_passes_match_the_oracles_on_sl2_over_large_fields(m):
    # the lines of F_(2^m)^2, 257 to 1,025 points against the 3 rational ones
    ctx = build_verifier(instance("a1_reg"), m)
    assert len(ctx.points) == 2**m + 1
    assert_bulk_passes_match_the_oracles(ctx)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 3), (3, 1)])
def test_bulk_passes_match_the_oracles_on_u3_chambers(q, m):
    # U_3 at odd s: the points are the chambers over F_(q^(2s)), two chain
    # levels each
    ctx = build_verifier(instance("u3_reg", q), m)
    assert len(ctx.points) == q ** (3 * m) + 1
    assert_bulk_passes_match_the_oracles(ctx)


@pytest.mark.parametrize("name", ["a1_reg", "a2_reg", "a2_min"])
def test_bulk_passes_on_one_point_gather_a_tuple(name):
    # with one point each chain level gathers one index, where itemgetter
    # would return the entry itself rather than a tuple of one; the point
    # lands in its cell alone, so that cell's size check fails on both sides
    full = verifier(name, 1)
    for x in full.points:
        ctx = VerifierContext(gd=full.gd, m=1, tower=full.tower, n=full.n, mode=full.mode,
                              weights=full.weights, point_levels=full.point_levels, points=[x],
                              tests=full.tests, lattice=full.lattice)
        levels = ctx.point_levels.levels.values()
        assert all(len(gather(list(range(len(level))))) == 1 for gather, level in zip(ctx.level_gathers, levels))
        assert_bulk_passes_match_the_oracles(ctx)


@pytest.mark.parametrize("name,m,q", [
    *((name, 1, None) for name in ("a1_reg", "a1_double", "a2_reg", "a2_min", "a2_min2", "a3_mid", "a3_reg", "a3_min")),
    ("a2_reg", 2, None), ("a2_min", 2, None), ("a3_mid", 2, None), ("a3_mid", 1, 3),
])
def test_cell_check_reports_tampered_strata(name, m, q):
    # a fresh context in which each destabilized point's row gains a drawn
    # standard test it lacks, or loses it while another test stays, so no
    # row is left empty and the semistable count stands: the strata leave
    # the union of their cells, and every label set's row still equals the
    # set-based oracle, a mismatch among them
    ctx = build_verifier(instance(name, q), m)
    semistable_count = brute_force_ss_count(ctx)
    rng = random.Random(f"{name}-{m}-{q}")
    rows = []
    for row in ctx.destabilizer_table:
        tests = dict(row)
        k = rng.choice(ctx.standard_tests)
        if row and k not in tests:
            tests[k] = Fraction(-1)
        elif len(tests) > 1:
            del tests[k]
        rows.append(tuple(sorted(tests.items())))
    ctx.destabilizer_table = rows
    assert brute_force_ss_count(ctx) == semistable_count
    cells = bruhat_cells_by_point(ctx)
    verdicts = []
    for I in label_sets(ctx.gd):
        expected = cell_row_by_point(ctx, y_I_points_by_row(ctx, rows, I), cells, I)
        assert cell_row(ctx, I) == expected, sorted(I)
        verdicts.append(expected[0])
    assert not all(verdicts)


@pytest.mark.parametrize("name,m", [("a2_reg", 2), ("u3_reg", 2), ("a3_mid", 1), ("a3_reg", 1)])
def test_incidence_matches_intersection_dim(name, m):
    from perdom.finflag import intersection_dim

    ctx = verifier(name, m)
    incidence = incidence_by_subspace(ctx)
    assert list(ctx.incidence) == [(d, k) for d, level in ctx.lattice.levels.items() for k in range(len(level))]
    assert list(incidence) == [w for level in ctx.lattice.levels.values() for w in level]
    assert set(incidence) == {w for t in rational_filtrations(ctx) for w in t.chain}
    for w, columns in incidence.items():
        assert len(columns) == len(ctx.point_levels.levels)
        for column, level in zip(columns, ctx.point_levels.levels.values()):
            assert len(column) == len(level)
            for k, s in enumerate(level):
                assert column[k] == intersection_dim(ctx.tower, s, w), (name, s, w)


def test_incidence_ranks_the_larger_matrices():
    # the Grassmannian of planes of F_2^5: its 155 point planes meet the 372
    # rational subspaces, and a plane against a rational plane or 3-space is
    # a 2 x 3 or 2 x 2 matrix S . Ann(W)^T, read from its entries and 2 x 2
    # minors with no ``rank``
    gd = build_group_data([("A", 4)], [1, 1, 0, 0, 0], 2)
    ctx = build_verifier(gd, 1)
    assert [len(level) for level in ctx.point_levels.levels.values()] == [155]
    assert sum(map(len, ctx.lattice.levels.values())) == len(set().union(*ctx.lattice.levels.values())) == 372
    with mock.patch.object(finflag, "rank", wraps=finflag.rank) as ranked:
        ctx.incidence
    assert ranked.call_count == 0
    (planes,) = ctx.point_levels.levels.values()
    for w, (column,) in incidence_by_subspace(ctx).items():
        for k, s in enumerate(planes):
            assert column[k] == intersection_dim(ctx.tower, s, w), (s, w)
    # 3-spaces of F_2^6 against 3-spaces: S . Ann(W)^T is 3 x 3, read from
    # its 3 x 3 minor, one ``pairing_ranks`` per test for the whole level,
    # with no ``rank``.  Every 31st of the 1,395 3-spaces, alternately
    # points and tests
    t, n = make_tower(2, 1), 6
    spaces = enumerate_subspaces(t, n, 3)[::31]
    point_levels = levels_of(t, spaces[::2])
    points = [(k,) for k in range(len(spaces[::2]))]
    lattice = levels_of(t, spaces[1::2])
    tests = position_tests(lattice, (subspace_coweight_filtration(w) for w in spaces[1::2]))
    ctx = VerifierContext(gd=None, m=1, tower=t, n=n, mode="split", weights=(1, 0),
                          point_levels=point_levels, points=points, tests=tests, lattice=lattice)
    shapes = []
    original_ranks = finflag.pairing_ranks

    def shaped(tower, vectors, families):
        shapes.append((len(vectors), len(families)))
        return original_ranks(tower, vectors, families)

    with mock.patch.object(finflag, "rank", wraps=finflag.rank) as ranked, \
            mock.patch.object(finflag, "pairing_ranks", shaped):
        ctx.incidence
    assert ranked.call_count == 0
    assert shapes == [(3, 3)] * len(tests) and tests
    assert {x for (column,) in ctx.incidence.values() for x in column} == {0, 1, 2}
    for w, (column,) in incidence_by_subspace(ctx).items():
        for k, s in enumerate(spaces[::2]):
            assert column[k] == intersection_dim(t, s, w), (s, w)


def test_incidence_reads_the_smaller_pairing_matrix():
    # the 3-spaces of F_2^5 against the rational subspaces: each pair of
    # levels is read from the side of the smaller min(rows, cols), so no
    # minor is larger than 2 x 2 and no ``rank`` runs.  Lines and planes W
    # take W . Ann(S)^T (1 x 2 and 2 x 2), 3-spaces and hyperplanes
    # S . Ann(W)^T (3 x 2 and 3 x 1), one call per test subspace
    ctx = build_verifier(build_group_data([("A", 4)], [1, 1, 1, 0, 0], 2), 1)
    shapes = collections.Counter()
    original_ranks = finflag.pairing_ranks

    def shaped(tower, vectors, families):
        shapes[len(vectors), len(families)] += 1
        return original_ranks(tower, vectors, families)

    with mock.patch.object(finflag, "rank", wraps=finflag.rank) as ranked, \
            mock.patch.object(finflag, "pairing_ranks", shaped):
        ctx.incidence
    assert ranked.call_count == 0
    assert all(min(shape) <= 2 for shape in shapes)
    assert shapes == {(1, 2): 31, (2, 2): 155, (2, 3): 155, (1, 3): 31}
    (spaces,) = ctx.point_levels.levels.values()
    for w, (column,) in itertools.islice(incidence_by_subspace(ctx).items(), None, None, 7):
        assert column == [intersection_dim(ctx.tower, s, w) for s in spaces], w


@pytest.mark.parametrize(
    "name,m",
    [
        ("a2_min", 2), ("u3_reg", 2), ("u3_min", 1), ("a3_mid", 1), ("a2_reg", 2), ("a3_reg", 1),
        ("a2_central", 1), ("u3_central", 1),
    ],
)
def test_destabilizer_table_matches_direct_pairing(name, m):
    ctx = verifier(name, m)
    tests = rational_filtrations(ctx)
    for i, point in enumerate(point_chains(ctx)):
        row = dict(ctx.destabilizer_table[i])
        assert list(row) == sorted(row)
        for k, test in enumerate(tests):
            value = slope(ctx.tower, weighted_point(ctx, point), test)
            assert (k in row) == (value < 0)
            if value < 0:
                assert row[k] == value


@pytest.mark.parametrize("name,m", [("a2_reg", 1), ("a2_reg", 2), ("a3_mid", 1), ("a3_reg", 1)])
def test_y_stratum_against_coordinate_filtrations(name, m):
    # the former computation: pair every point with the standard coweights,
    # which in type A have the coordinates of the fundamental weights
    ctx = verifier(name, m)
    gd = ctx.gd
    negative = {
        k: {
            i for i, x in enumerate(point_chains(ctx))
            if slope(ctx.tower, weighted_point(ctx, x),
                     coordinate_filtration(ctx.tower, orbit_weight(gd, k).coords)) < 0
        }
        for k in range(gd.d_prime)
    }
    cells = bruhat_cells_by_point(ctx)
    for r in range(gd.d_prime + 1):
        for I in itertools.combinations(range(gd.d_prime), r):
            expected = set(range(len(ctx.points)))
            for k in range(gd.d_prime):
                if k not in I:
                    expected &= negative[k]
            I = frozenset(I)
            assert cell_row(ctx, I) == cell_row_by_point(ctx, expected, cells, I), (name, m, I)


def test_sl4_full_flags_m2_count_and_cells():
    # 8,925 full flags of F_4^4 against the 65 rational subspaces of F_2^4
    gd = instance("a3_reg")
    ctx = build_verifier(gd, 2)  # not cached by the helpers: the context is large
    assert len(ctx.points) == 8925
    assert brute_force_ss_count(ctx) == lefschetz_series(gd, table("a3_reg"), 2)
    for k in range(gd.d_prime + 1):
        for I in itertools.combinations(range(gd.d_prime), k):
            ok, detail = bruhat_cells_check(ctx, frozenset(I))
            assert ok, (I, detail)


MODELS = {name: verifier_mode(instance(name)) for name in INSTANCES}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", [name for name, mode in MODELS.items() if mode == "split"])
def test_rational_point_counts_equal_pairwise_flags(name, q):
    gd = instance(name, q)
    n = gd.datum.ambient_dim
    counts = rational_point_counts(gd, 10**6)
    assert sorted(counts, key=lambda I: (len(I), sorted(I))) == list(counts)
    assert len(counts) == 2**gd.d_prime
    tower = make_tower(q, 1)
    for I, count in counts.items():
        roots = {i for orb in I for i in gd.orbits_delta.orbits[orb]}
        dims = tuple(d for d in range(1, n) if d - 1 not in roots)
        assert count == len(pairwise_flag_points(tower, n, dims)), (name, q, sorted(I))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", [name for name, mode in MODELS.items() if mode == "u3"])
def test_rational_point_counts_of_u3_are_its_chambers(name, q):
    gd = instance(name, q)
    assert rational_point_counts(gd, 10**6) == {frozenset(): q**3 + 1, frozenset({0}): 1}
