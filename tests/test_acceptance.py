"""Acceptance suite: every criterion is exact (tolerance zero) and timed.

Each test prints one PASS/FAIL line so the suite doubles as a human-readable
verification report when run with -s.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from helpers import (
    INSTANCES,
    STRICT_SHAPE,
    form_dual,
    form_value,
    instance,
    invariant_gram,
    orbit_vec,
    orbit_weight,
    split_table,
    steinberg_dimension,
    summand_signature,
    table,
    verifier,
    weyl_order,
)
from perdom.cohom import (
    assemble_cohomology,
    build_group_data,
    dim_v,
    euler_characteristic,
    lefschetz_series,
    minimal_I,
    omega_I,
)
from perdom.complex import acyclicity_sweep
from perdom.semistable import (
    brute_force_ss_count,
    bruhat_cells_check,
    build_verifier,
    coordinate_filtration,
    filtration_pairing,
    y_I_points,
)
from perdom.finflag import make_tower


@contextmanager
def criterion(number, label, limit_seconds):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.time() - start
    status = "PASS" if elapsed < limit_seconds else "FAIL (overtime)"
    print(f"{status} criterion {number}: {label} ({elapsed:.2f}s < {limit_seconds}s)")
    assert elapsed < limit_seconds


def test_criterion_1_bottom_shape():
    with criterion(1, "vanishing below the bottom degree, single Steinberg summand", 1.0):
        assert len(STRICT_SHAPE) >= 12
        for name in INSTANCES:
            gd = instance(name)
            tbl = table(name)
            identity_orbit = next(o for o in gd.worbits if o.length == 0)
            bottom = gd.d_prime - len(minimal_I(gd, identity_orbit))
            assert all(s.degree >= bottom for s in tbl.summands)
            at_bottom = [s for s in tbl.summands if s.degree == bottom]
            assert len(at_bottom) == 1
            assert at_bottom[0].twist == 0 and at_bottom[0].galois_dim == 1
            if name in STRICT_SHAPE:
                # the literal statement: nothing below d', and degree d' is
                # exactly the bottom-parabolic (Borel) summand
                assert bottom == gd.d_prime
                assert at_bottom[0].I == frozenset()


def test_criterion_2_euler_identity():
    with criterion(2, "alternating sum equals the signed orbit formula term-by-term", 1.0):
        for name in INSTANCES:
            gd = instance(name)
            tbl = table(name)
            lhs = sorted(
                (t.sign, tuple(sorted(t.I)), t.twist, t.galois_dim)
                for t in euler_characteristic(tbl)
            )
            rhs = sorted(
                (
                    (-1) ** (gd.d_prime - len(minimal_I(gd, o))),
                    tuple(sorted(minimal_I(gd, o))),
                    o.length,
                    o.size,
                )
                for o in gd.worbits
            )
            assert lhs == rhs


def test_criterion_3_lefschetz_match_sl2():
    with criterion(3, "brute force equals the series for SL_2, q in {2,3,4,5}, m in {1,2,3}", 5.0):
        for q in (2, 3, 4, 5):
            gd = build_group_data([("A", 1)], [1, -1], q)
            tbl = assemble_cohomology(gd)
            for m in (1, 2, 3):
                ctx = build_verifier(gd, m)
                series = lefschetz_series(gd, tbl, m)
                assert series == q**m - q
                assert brute_force_ss_count(ctx) == series


def _projective_points(tower, n):
    """Normalized representatives of projective space, no subspace machinery."""
    points = []
    seen = set()
    for vec in itertools.product(tower.elements, repeat=n):
        if all(v == 0 for v in vec):
            continue
        lead = next(v for v in vec if v != 0)
        inv = tower.inv(lead)
        normal = tuple(tower.mul(inv, v) for v in vec)
        if normal not in seen:
            seen.add(normal)
            points.append(normal)
    return points


def test_criterion_4_lefschetz_match_sl3_minuscule():
    with criterion(4, "SL_3 minuscule: series, brute force, closed form, geometry oracle", 30.0):
        for q in (2, 3):
            gd = build_group_data([("A", 2)], [2, -1, -1], q)
            tbl = assemble_cohomology(gd)
            for m in (1, 2, 3):
                series = lefschetz_series(gd, tbl, m)
                closed = q ** (2 * m) - (q * q + q) * q**m + q**3
                assert series == closed
                assert brute_force_ss_count(build_verifier(gd, m)) == series
                # independent oracle: projective points on no rational line
                tower = make_tower(q, m)
                rational_lines = _projective_points(make_tower(q, 1), 3)
                subfield = sorted(tower.subfield(1))
                embed = dict(zip(sorted(make_tower(q, 1).elements), subfield))
                lines = [tuple(embed[c] for c in line) for line in rational_lines]
                off_lines = 0
                for pt in _projective_points(tower, 3):
                    on = False
                    for line in lines:
                        acc = 0
                        for a, b in zip(line, pt):
                            acc = tower.add(acc, tower.mul(a, b))
                        if acc == 0:
                            on = True
                            break
                    if not on:
                        off_lines += 1
                assert off_lines == series


def test_criterion_5_lefschetz_match_sl3_flags():
    with criterion(5, "SL_3 full flags at q=2: series equals brute force, m in {1,2,3}", 120.0):
        gd = instance("a2_reg")
        tbl = table("a2_reg")
        for m in (1, 2, 3):
            assert brute_force_ss_count(verifier("a2_reg", m)) == lefschetz_series(gd, tbl, m)


def test_criterion_6_twisted_match_u3():
    with criterion(6, "twisted match for U_3 at q=2: orbit-trace gating, m in {1,2,3}", 120.0):
        gd = instance("u3_reg")
        tbl = table("u3_reg")
        for m in (1, 2, 3):
            assert brute_force_ss_count(verifier("u3_reg", m)) == lefschetz_series(gd, tbl, m)


def test_criterion_7_cell_decomposition():
    with criterion(7, "strata equal unions of Bruhat cells with point counts q^(m l)", 60.0):
        cases = [
            ([("A", 1)], [1, -1]),
            ([("A", 2)], [1, 0, -1]),
            ([("A", 2)], [2, -1, -1]),
        ]
        for spec, mu in cases:
            for q in (2, 3):
                gd = build_group_data(spec, mu, q)
                for m in (1, 2):
                    ctx = build_verifier(gd, m)
                    for k in range(gd.d_prime + 1):
                        for I in itertools.combinations(range(gd.d_prime), k):
                            I = frozenset(I)
                            ok, detail = bruhat_cells_check(ctx, I)
                            assert ok, (spec, mu, q, m, sorted(I), detail)
                            expected = sum(
                                q ** (m * o.rep.length) for o in omega_I(gd, I)
                            )
                            assert len(y_I_points(ctx, I)) == expected


def test_criterion_8_acyclicity_sweeps():
    with criterion(8, "every destabilizing subcomplex has vanishing reduced homology", 300.0):
        plans = [
            ("SL2", [("A", 1)], [1, -1], None, (2, 3), (1, 2, 3)),
            ("SL3 flags", [("A", 2)], [1, 0, -1], None, (2,), (1, 2)),
            ("SL3 minuscule", [("A", 2)], [2, -1, -1], None, (2,), (1, 2)),
            ("U3", [("A", 2)], [1, 0, -1], ((2, 1), 2), (2,), (1, 2)),
        ]
        for _, spec, mu, twist, qs, ms in plans:
            for q in qs:
                gd = build_group_data(spec, mu, q, twist=twist)
                for m in ms:
                    report = acyclicity_sweep(build_verifier(gd, m))
                    assert report.all_acyclic, (spec, mu, q, m, report.violations)


def test_criterion_9_structural_suites():
    with criterion(9, "Kostant counts, Steinberg dims, sign-set laws, rescaling, torus pairing", 30.0):
        # coset counting: orbit-stabilizer against the enumerated group
        from perdom.rootdata import pairing
        from perdom.weyl import generate_weyl, stabilizer_w_mu

        for name in INSTANCES:
            gd = instance(name)
            stab = stabilizer_w_mu(generate_weyl(gd.datum), gd.mu)
            assert len(gd.mu_orbit) * len(stab) == weyl_order(gd.datum.cartan_type)
        # Steinberg dimension for every catalog type
        for name in INSTANCES:
            gd = instance(name)
            assert dim_v(gd, frozenset())(gd.q) == steinberg_dimension(gd)
        # lattice laws and the characterization of the minimal label set
        for name in ("a2_reg", "a3_reg", "u3_reg", "u4_mid", "b2_reg"):
            gd = instance(name)
            subsets = [
                frozenset(c)
                for r in range(gd.d_prime + 1)
                for c in itertools.combinations(range(gd.d_prime), r)
            ]
            member = {I: {o.rep for o in omega_I(gd, I)} for I in subsets}
            for I in subsets:
                for J in subsets:
                    if I <= J:
                        assert member[I] <= member[J]
                    assert member[I & J] == member[I] & member[J]
            for orbit in gd.worbits:
                iw = minimal_I(gd, orbit)
                for I in subsets:
                    assert (iw <= I) == (orbit.rep in member[I])
        # representative independence across orbit members
        for name in ("u3_reg", "u4_mid", "u4_min", "res_sl2"):
            gd = instance(name)
            for orbit in gd.worbits:
                for k in range(gd.d_prime):
                    signs = {pairing(orbit_vec(gd, w), orbit_weight(gd, k)) > 0 for w in orbit.members}
                    assert len(signs) == 1
        # rescaling the invariant form changes no sign: the orbit coweights of
        # a form rescaled per factor pair with every orbit point as the
        # engine's sign rows do
        for name, scales in (("a2_min", (Fraction(9, 5),)), ("u4_min", (3,)), ("a1a1_reg", (2, 7))):
            gd = instance(name)
            gram = invariant_gram(gd.datum, scales)
            for k in range(gd.d_prime):
                w = form_dual(gram, orbit_weight(gd, k))
                for p in gd.mu_orbit:
                    assert (form_value(gram, orbit_vec(gd, p), w) > 0) == (gd.scaled_pairing(p, k) > 0)
        # filtration pairing of torus cocharacters equals the dot product
        rng = random.Random(99)
        towers = {2: make_tower(2, 1), 3: make_tower(3, 1), 4: make_tower(2, 2)}
        for _ in range(200):
            n = rng.choice([2, 3, 4])
            t = towers[n]
            lam = [rng.randint(-5, 5) for _ in range(n)]
            mu = [rng.randint(-5, 5) for _ in range(n)]
            assert filtration_pairing(
                t, coordinate_filtration(t, lam), coordinate_filtration(t, mu)
            ) == sum(a * b for a, b in zip(lam, mu))


def test_criterion_10_split_regression():
    with criterion(10, "orbit-free split path reproduces every split table", 1.0):
        for name in INSTANCES:
            gd = instance(name)
            if not gd.is_split:
                continue
            assert summand_signature(gd, split_table(gd)) == summand_signature(
                gd, assemble_cohomology(gd)
            )
