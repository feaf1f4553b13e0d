"""Weighted-flag pairings, slopes, the semistability oracle, stratification."""

import collections
import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    INSTANCES,
    HermitianData,
    contains,
    frobenius_equivariance_holds,
    instance,
    is_k_rational,
    matrix_times_subspace,
    orbit_weight,
    pairwise_flag_points,
    table,
    verifier,
)
from perdom import semistable
from perdom.cohom import lefschetz_series
from perdom.complex import build_t_x
from perdom.finflag import FlagPoint, full_space, make_tower, row_families, subspace_from_rows
from perdom.rootdata import DEFAULT_BUDGET
from perdom.semistable import (
    brute_force_ss_count,
    bruhat_cells_check,
    build_verifier,
    check_verifier_budget,
    coordinate_filtration,
    filtration_pairing,
    is_semistable,
    parabolic_invariance_sample,
    points_csv,
    rational_point_counts,
    semistable_indices,
    slope,
    subspace_coweight_filtration,
    verifier_mode,
    y_I_points,
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
    own = ctx.points.index(
        next(x for x in ctx.points if x.chain[0].rows == ((1, 0),))
    )
    point = ctx.points[own]
    same = next(t for t in ctx.tests if t.chain[0].rows == ((1, 0),))
    other = next(t for t in ctx.tests if t.chain[0].rows == ((0, 1),))
    assert slope(ctx.tower, point, same) == -1
    assert slope(ctx.tower, point, other) == 1


def test_slope_scales_with_positive_multiples():
    ctx = verifier("a1_reg", 2)
    point = ctx.points[0]
    test = ctx.tests[0]
    scaled = FlagPoint(
        chain=test.chain, weights=tuple(Fraction(3, 2) * w for w in test.weights), n=test.n
    )
    assert slope(ctx.tower, point, scaled) == Fraction(3, 2) * slope(ctx.tower, point, test)


def test_semistable_p1_over_f4():
    ctx = verifier("a1_reg", 2)
    verdicts = [is_semistable(ctx, i).verdict for i in range(len(ctx.points))]
    assert sum(verdicts) == 2
    # the three rational points are exactly the unstable ones
    for i, x in enumerate(ctx.points):
        assert verdicts[i] == (not is_k_rational(x.chain[0], ctx.tower))


def test_semistable_p2_avoids_rational_lines():
    ctx = verifier("a2_min", 2)
    rational_planes = [t.chain[0] for t in ctx.tests if t.chain[0].dim == 2]

    for i, x in enumerate(ctx.points):
        on_rational_line = any(contains(ctx.tower, p, x.chain[0]) for p in rational_planes)
        assert is_semistable(ctx, i).verdict == (not on_rational_line)


def test_semistable_central_everything():
    ctx = verifier("u3_central", 1)
    assert len(ctx.points) == 1
    assert brute_force_ss_count(ctx) == 1


def test_slope_report_contents():
    ctx = verifier("a1_reg", 1)
    report = is_semistable(ctx, 0)
    assert not report.verdict
    assert all(value < 0 for _, value in report.destabilizers)
    assert len(report.destabilizers) == 1


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
    assert all(h.is_fixed(x, s) for x in ctx.points)


def test_u3_reflex_degree_two_instance():
    # mu not fixed by the twist: points live over extensions of the degree-2
    # reflex field, and the series must still match
    gd = instance("u3_min")
    assert gd.e_degree == 2
    ctx = verifier("u3_min", 1)
    assert len(ctx.points) == 21
    assert brute_force_ss_count(ctx) == lefschetz_series(gd, table("u3_min"), 1) == 12


def test_y_stratum_sl2():
    ctx = verifier("a1_reg", 1)
    y0 = y_I_points(ctx, frozenset())
    assert len(y0) == 1
    point = ctx.points[next(iter(y0))]
    std = coordinate_filtration(ctx.tower, orbit_weight(ctx.gd, 0).coords)
    assert slope(ctx.tower, point, std) == -1
    assert y_I_points(ctx, frozenset({0})) == frozenset(range(len(ctx.points)))


def test_y_stratum_counts_sl3():
    gd = instance("a2_reg")
    for m in (1, 2):
        ctx = verifier("a2_reg", m)
        from perdom.cohom import omega_I

        for k in range(gd.d_prime + 1):
            for I in itertools.combinations(range(gd.d_prime), k):
                expected = sum(2 ** (m * o.rep.length) for o in omega_I(gd, frozenset(I)))
                assert len(y_I_points(ctx, frozenset(I))) == expected


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
        for test in ctx.tests:
            for i, point in enumerate(ctx.points):
                if slope(ctx.tower, point, test) < 0:
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

    original_annihilator = semistable.annihilator
    annihilated = collections.Counter()
    ann_of = {}

    def counted_annihilator(tower, sub):
        annihilated[sub] += 1
        ann_of[sub] = original_annihilator(tower, sub)
        return ann_of[sub]

    # every kernel pass: the vectors of one subspace against a family
    passes = []
    original_nonzero = semistable.nonzero_pairings

    def counted_nonzero(tower, vectors, families):
        passes.append((vectors, families))
        return original_nonzero(tower, vectors, families)

    monkeypatch.setattr(semistable, "annihilator", counted_annihilator)
    monkeypatch.setattr(semistable, "nonzero_pairings", counted_nonzero)
    counted("slope")
    counted("bruhat_cells")
    counted("pairings")  # the rank reads, which 3-space never needs
    gd = instance("a2_reg")
    ctx = build_verifier(gd, 2)  # fresh, so no consumer has filled its caches
    brute_force_ss_count(ctx)
    points_csv(ctx)
    assert frobenius_equivariance_holds(ctx)
    for k in range(gd.d_prime + 1):
        for I in itertools.combinations(range(gd.d_prime), k):
            y_I_points(ctx, frozenset(I))
            assert bruhat_cells_check(ctx, frozenset(I))[0]
    for i in range(len(ctx.points)):
        if not is_semistable(ctx, i).verdict:
            build_t_x(ctx, i)
    point_spaces = {s for x in ctx.points for s in x.chain}
    test_spaces = {t.chain[0] for t in ctx.tests}

    # decode each pass: the subspace W whose rows or annihilator it pairs,
    # and the members of the family, by their rows or by their annihilators
    def key(rows):
        return tuple(tuple(col[0] for col in f) for f in row_families(ctx.tower, [rows]))

    by_rows = {key(s.rows): s for s in point_spaces | test_spaces}
    by_ann = {key(a): s for s, a in ann_of.items()}
    pairs = collections.Counter()
    containment = collections.Counter()
    for vectors, families in passes:
        w = next((w for w in test_spaces if vectors is ann_of.get(w)), None)
        lookup = by_rows if w is not None else by_ann
        if w is None:
            w = next(w for w in test_spaces if vectors is w.rows)
        members = [
            lookup[tuple(tuple(col[k] for col in f) for f in families)]
            for k in range(len(families[0][0]))
        ]
        group = set(members)
        assert len(group) == len(members) and len({s.dim for s in group}) == 1
        if group == {s for s in point_spaces if s.dim == members[0].dim}:
            pairs.update((s, w) for s in members)
        else:
            # ``test_containment``: the test subspaces of one dimension
            assert group == {s for s in test_spaces if s.dim == members[0].dim}
            containment[w, members[0].dim] += 1
    # every distinct (point subspace, test subspace) pair exactly once, and
    # the slopes read from the table rather than from ``slope``
    assert set(pairs.values()) == {1}
    assert len(pairs) == len(point_spaces) * len(test_spaces) == 42 * 14
    assert calls == {"bruhat_cells": 1}
    assert set(containment.values()) == {1}
    assert set(containment) == {(w, s.dim) for w in test_spaces for s in test_spaces if s.dim <= w.dim}
    # each annihilator at most once, shared where a point subspace is a test
    # subspace too, and none for a point line that is not one
    assert set(annihilated.values()) == {1}
    assert point_spaces & test_spaces and set(annihilated) <= point_spaces | test_spaces
    assert not any(annihilated[s] for s in point_spaces - test_spaces if s.dim == 1)


def test_standard_subspaces_built_once_per_context(monkeypatch):
    built = collections.Counter()
    original = semistable.standard_subspace

    def counted(tower, n, d):
        built[d] += 1
        return original(tower, n, d)

    monkeypatch.setattr(semistable, "standard_subspace", counted)
    gd = instance("a3_mid")
    ctx = build_verifier(gd, 1)
    cells = ctx.bruhat_partition
    for k in range(gd.d_prime + 1):
        for I in itertools.combinations(range(gd.d_prime), k):
            y_I_points(ctx, frozenset(I))
    assert parabolic_invariance_sample(ctx, seed=1)
    assert built == {1: 1, 2: 1, 3: 1}
    # the same partition with E_1 ... E_3 rebuilt on every read
    uncached = property(semistable.VerifierContext.standard_subspaces.func)
    monkeypatch.setattr(semistable.VerifierContext, "standard_subspaces", uncached)
    assert semistable.bruhat_cells(build_verifier(gd, 1)) == cells
    assert built[1] > 1


def test_bruhat_cells_read_the_incidence_table(monkeypatch):
    from perdom.finflag import intersection_dim

    def direct(ctx, chain):
        return tuple(
            tuple(intersection_dim(ctx.tower, e, s) for e in ctx.standard_subspaces) for s in chain
        )

    for name, m in (("a2_reg", 2), ("a3_mid", 1), ("a3_reg", 1)):
        gd = instance(name)
        with monkeypatch.context() as patch:
            patch.setattr(semistable, "_relative_position", direct)
            expected = semistable.bruhat_cells(build_verifier(gd, m))
        assert semistable.bruhat_cells(build_verifier(gd, m)) == expected, name


@pytest.mark.parametrize("name,m", [("a2_reg", 2), ("u3_reg", 2), ("a3_mid", 1), ("a3_reg", 1)])
def test_incidence_matches_intersection_dim(name, m):
    from perdom.finflag import intersection_dim

    ctx = verifier(name, m)
    for w, column in ctx.incidence.items():
        for s, k in ctx.point_spaces.items():
            assert column[k] == intersection_dim(ctx.tower, s, w), (name, s, w)


@pytest.mark.parametrize(
    "name,m",
    [
        ("a2_min", 2), ("u3_reg", 2), ("u3_min", 1), ("a3_mid", 1), ("a2_reg", 2), ("a3_reg", 1),
        ("a2_central", 1), ("u3_central", 1),
    ],
)
def test_destabilizer_table_matches_direct_pairing(name, m):
    ctx = verifier(name, m)
    for i, point in enumerate(ctx.points):
        row = dict(ctx.destabilizer_table[i])
        assert list(row) == sorted(row)
        for k, test in enumerate(ctx.tests):
            value = slope(ctx.tower, point, test)
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
            i for i, x in enumerate(ctx.points)
            if slope(ctx.tower, x, coordinate_filtration(ctx.tower, orbit_weight(gd, k).coords)) < 0
        }
        for k in range(gd.d_prime)
    }
    for r in range(gd.d_prime + 1):
        for I in itertools.combinations(range(gd.d_prime), r):
            expected = set(range(len(ctx.points)))
            for k in range(gd.d_prime):
                if k not in I:
                    expected &= negative[k]
            assert y_I_points(ctx, frozenset(I)) == expected, (name, m, I)


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
        weights = range(len(dims), -1, -1)
        assert count == len(pairwise_flag_points(tower, n, weights, dims)), (name, q, sorted(I))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", [name for name, mode in MODELS.items() if mode == "u3"])
def test_rational_point_counts_of_u3_are_its_chambers(name, q):
    gd = instance(name, q)
    assert rational_point_counts(gd, 10**6) == {frozenset(): q**3 + 1, frozenset({0}): 1}
