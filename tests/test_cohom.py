"""Sign sets, table assembly, dimension polynomials, point-count series."""

import itertools
from fractions import Fraction

from helpers import (
    INSTANCES,
    SPLIT_NAMES,
    form_dual,
    form_value,
    instance,
    invariant_gram,
    num_positive_roots,
    orbit_vec,
    orbit_weight,
    reference_dim_polys,
    split_table,
    steinberg_dimension,
    summand_signature,
    table,
)
from perdom import cohom, rootdata
from perdom.cohom import (
    all_dim_polys,
    assemble_cohomology,
    build_group_data,
    dim_induced,
    dim_v,
    euler_characteristic,
    lefschetz_series,
    minimal_I,
    omega_I,
)
from perdom.finflag import flag_count
from perdom.rootdata import pairing
from perdom.weyl import generate_weyl


def test_omega_examples_split_a1():
    gd = instance("a1_reg")
    empty = omega_I(gd, frozenset())
    assert [o.length for o in empty] == [0]
    assert len(omega_I(gd, frozenset({0}))) == len(gd.worbits)


def test_omega_full_set_is_everything():
    for name in ("a2_reg", "u3_reg", "u4_mid"):
        gd = instance(name)
        assert len(omega_I(gd, frozenset(range(gd.d_prime)))) == len(gd.worbits)


def test_omega_twisted_a2():
    gd = instance("u3_reg")
    empty = omega_I(gd, frozenset())
    assert sorted(o.length for o in empty) == [0, 1]


def test_minimal_I_examples():
    gd = instance("a2_reg")
    by_len = {o.length: o for o in gd.worbits if o.length in (0, 3)}
    assert minimal_I(gd, by_len[0]) == frozenset()
    assert minimal_I(gd, by_len[3]) == frozenset({0, 1})
    s1 = next(o for o in gd.worbits if o.rep.word == (0,))
    assert minimal_I(gd, s1) == frozenset({0})  # pairing exactly 0 joins the set

    central = instance("a2_central")
    assert minimal_I(central, central.worbits[0]) == frozenset({0, 1})


def test_minimal_is_intersection_of_admitting_sets():
    for name in ("a2_min", "u4_mid", "b2_min"):
        gd = instance(name)
        subsets = [
            frozenset(c)
            for r in range(gd.d_prime + 1)
            for c in itertools.combinations(range(gd.d_prime), r)
        ]
        member = {I: {o.rep for o in omega_I(gd, I)} for I in subsets}
        for orbit in gd.worbits:
            admitting = [I for I in subsets if orbit.rep in member[I]]
            expected = frozenset(range(gd.d_prime))
            for I in admitting:
                expected &= I
            assert minimal_I(gd, orbit) == expected


def test_omega_lattice_laws():
    for name in ("a3_reg", "u4_min", "a2_min2"):
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
        # characterization: I_[w] subset of I iff [w] in Omega_I
        for orbit in gd.worbits:
            iw = minimal_I(gd, orbit)
            for I in subsets:
                assert (iw <= I) == (orbit.rep in member[I])


def test_representative_independence():
    for name in ("u3_reg", "u4_mid", "u4_min", "res_sl2"):
        gd = instance(name)
        for orbit in gd.worbits:
            for k in range(gd.d_prime):
                signs = {pairing(orbit_vec(gd, m), orbit_weight(gd, k)) > 0 for m in orbit.members}
                assert len(signs) == 1


def test_assemble_sl2():
    tbl = table("a1_reg")
    assert summand_signature(instance("a1_reg"), tbl) == [
        (1, 0, (), 1),
        (2, 1, (0,), 1),
    ]


def test_assemble_sl3_minuscule():
    tbl = table("a2_min")
    assert summand_signature(instance("a2_min"), tbl) == [
        (2, 0, (), 1),
        (3, 1, (0,), 1),
        (4, 2, (0, 1), 1),
    ]


def test_assemble_sl3_regular():
    tbl = table("a2_reg")
    assert summand_signature(instance("a2_reg"), tbl) == [
        (2, 0, (), 1),
        (3, 1, (0,), 1),
        (3, 1, (1,), 1),
        (4, 2, (0, 1), 1),
        (4, 2, (0, 1), 1),
        (6, 3, (0, 1), 1),
    ]


def test_assemble_u3_degrees():
    tbl = table("u3_reg")
    assert summand_signature(instance("u3_reg"), tbl) == [
        (1, 0, (), 1),
        (3, 1, (), 2),
        (4, 2, (0,), 2),
        (6, 3, (0,), 1),
    ]


def test_assemble_central():
    tbl = table("a2_central")
    assert summand_signature(instance("a2_central"), tbl) == [(0, 0, (0, 1), 1)]


def test_euler_alternating_sum_matches_direct_formula():
    for name in INSTANCES:
        gd = instance(name)
        tbl = table(name)
        from_table = sorted(
            (t.sign, tuple(sorted(t.I)), t.twist, t.galois_dim)
            for t in euler_characteristic(tbl)
        )
        direct = sorted(
            (
                (-1) ** (gd.d_prime - len(minimal_I(gd, o))),
                tuple(sorted(minimal_I(gd, o))),
                o.length,
                o.size,
            )
            for o in gd.worbits
        )
        assert from_table == direct


def test_euler_example_sl3_regular():
    gd = instance("a2_reg")
    terms = euler_characteristic(table("a2_reg"))
    counted = {}
    for t in terms:
        key = (t.sign, tuple(sorted(t.I)), t.twist)
        counted[key] = counted.get(key, 0) + 1
    assert counted == {
        (1, (), 0): 1,
        (-1, (0,), 1): 1,
        (-1, (1,), 1): 1,
        (1, (0, 1), 2): 2,
        (1, (0, 1), 3): 1,
    }


def test_dim_induced_split():
    gd = instance("a1_reg")
    assert dim_induced(gd, frozenset()).coeffs == (1, 1)
    gd = instance("a2_reg")
    assert dim_induced(gd, frozenset()).coeffs == (1, 2, 2, 1)
    assert dim_induced(gd, frozenset({0})).coeffs == (1, 1, 1)
    assert dim_induced(gd, frozenset({0, 1})).coeffs == (1,)


def test_dim_induced_twisted():
    gd = instance("u3_reg")
    assert dim_induced(gd, frozenset()).coeffs == (1, 0, 0, 1)
    gd4 = instance("u4_mid")
    # fixed flags: all isotropic pairs; the polynomial must count them
    poly = dim_induced(gd4, frozenset())
    assert poly(2) == 135  # (q+1)(q^2+1)(q^3+1) at q=2


def test_dim_v_examples():
    gd = instance("a2_reg")
    assert dim_v(gd, frozenset()).coeffs == (0, 0, 0, 1)
    assert dim_v(gd, frozenset({0})).coeffs == (0, 1, 1)
    assert dim_v(gd, frozenset({0, 1})).coeffs == (1,)


def test_steinberg_dimension_for_every_catalog_type():
    for name in INSTANCES:
        gd = instance(name)
        assert dim_v(gd, frozenset())(gd.q) == steinberg_dimension(gd)


def test_positive_roots_are_closed_once_per_instance(monkeypatch):
    # the datum keeps the closure; the orbit, the table, the dimension
    # polynomials, the Steinberg degree and the Weyl-group oracle read it
    closures = []
    closure = rootdata.positive_root_coefficients
    monkeypatch.setattr(rootdata, "positive_root_coefficients", lambda a: closures.append(a) or closure(a))
    gd = build_group_data([("A", 3)], [-1, 0, 0, 1], 2, twist=((3, 2, 1), 2))
    lefschetz_series(gd, assemble_cohomology(gd), 1)
    assert steinberg_dimension(gd) == 2**6
    assert len(generate_weyl(gd.datum).elements) == 24
    assert len(closures) == 1


def test_engine_reads_no_family_letter_past_the_root_datum(monkeypatch):
    # with the datum's type replaced by an unknown family letter, every
    # engine result on the catalog is unchanged: the engine reads the Cartan
    # matrix and the closure of its simple roots, not a per-family table
    def engine_output(gd):
        return gd.mu, gd.mu_orbit, assemble_cohomology(gd), all_dim_polys(gd), steinberg_dimension(gd)

    expected = {name: engine_output(instance(name)) for name in INSTANCES}
    build = rootdata.build_root_datum
    monkeypatch.setattr(
        cohom, "build_root_datum", lambda spec: build(spec)._replace(cartan_type=(("X", 1),))
    )
    for name, (ctype, mu, q, twist) in INSTANCES.items():
        gd = build_group_data(list(ctype), list(mu), q, twist=twist)
        assert gd.datum.cartan_type == (("X", 1),)
        assert engine_output(gd) == expected[name], name


def test_dim_polys_positive_at_prime_powers():
    for name in ("a2_reg", "u3_reg", "u4_mid", "b2_reg"):
        gd = instance(name)
        for I, (ipoly, vpoly) in all_dim_polys(gd).items():
            for q in (2, 3, 4, 5):
                assert ipoly(q) > 0
                assert vpoly(q) > 0


# (cartan type, twist): the twisted families of rank 5 to 8, both D4
# trialities, a twisted triality between two D4 factors, swaps and cycles
# of equal factors, and split B, C and D beyond the property tests' reach
RECURSION_CASES = (
    ((("A", 7),), ((7, 6, 5, 4, 3, 2, 1), 2)),
    ((("D", 5),), ((1, 2, 3, 5, 4), 2)),
    ((("D", 6),), ((1, 2, 3, 4, 6, 5), 2)),
    ((("D", 4),), ((3, 2, 4, 1), 3)),
    ((("D", 4),), ((4, 2, 1, 3), 3)),
    ((("D", 4), ("D", 4)), ((5, 6, 7, 8, 3, 2, 4, 1), 6)),
    ((("A", 3), ("A", 3)), ((6, 5, 4, 1, 2, 3), 4)),
    ((("A", 1),) * 3, ((2, 3, 1), 3)),
    ((("B", 5),), None),
    ((("C", 4),), None),
    ((("D", 6),), None),
)


def test_dim_polys_match_the_walks_on_larger_types():
    for ctype, twist in RECURSION_CASES:
        ambient = sum(r + 1 if f == "A" else r for f, r in ctype)
        gd = build_group_data(ctype, [1] + [0] * (ambient - 1), 2, twist=twist)
        assert all_dim_polys(gd) == reference_dim_polys(gd), (ctype, twist)


def test_split_type_a_induced_dims_are_gaussian_multinomials():
    """For A_(n-1), the induced dimension of I is the number of flags of the
    guard's type over F_Q, as polynomials in Q: both have degree at most N,
    so agreeing at N + 1 values of Q makes them equal."""
    for n in range(2, 10):
        gd = build_group_data([("A", n - 1)], [1] + [0] * (n - 1), 2)
        top = num_positive_roots(gd.datum.cartan_type)
        for I in all_dim_polys(gd):
            dims = tuple(d for d in range(1, n) if d - 1 not in I)
            poly = dim_induced(gd, I)
            assert len(poly.coeffs) <= top + 1
            assert all(poly(Q) == flag_count(n, dims, Q) for Q in range(2, top + 3)), (n, sorted(I))


def test_lefschetz_closed_forms():
    gd = instance("a1_reg")
    tbl = table("a1_reg")
    for m in (1, 2, 3):
        assert lefschetz_series(gd, tbl, m) == 2**m - 2

    for q in (2, 3):
        gd = build_group_data([("A", 2)], [2, -1, -1], q)
        tbl = assemble_cohomology(gd)
        for m in (1, 2, 3):
            expected = q ** (2 * m) - (q * q + q) * q**m + q**3
            assert lefschetz_series(gd, tbl, m) == expected


def test_lefschetz_orbit_gating_u3():
    gd = instance("u3_reg")
    tbl = table("u3_reg")
    q = 2
    for m in (1, 3, 5):
        assert lefschetz_series(gd, tbl, m) == q ** (3 * m) - q**3
    for m in (2, 4):
        expected = q ** (3 * m) + 2 * q ** (2 * m) - 2 * q ** (m + 3) - q**3
        assert lefschetz_series(gd, tbl, m) == expected


def test_lefschetz_central():
    gd = instance("a2_central")
    tbl = table("a2_central")
    assert all(lefschetz_series(gd, tbl, m) == 1 for m in (1, 2, 3))


def test_split_regression_path():
    for name in SPLIT_NAMES:
        gd = instance(name)
        if not gd.is_split:
            continue
        assert summand_signature(gd, split_table(gd)) == summand_signature(
            gd, assemble_cohomology(gd)
        )


def test_redundant_splitting_degree_changes_nothing():
    plain = instance("a2_reg")
    redundant = instance("a2_redundant_e")
    assert summand_signature(plain, table("a2_reg")) == summand_signature(
        redundant, table("a2_redundant_e")
    )
    for m in (1, 2, 3):
        assert lefschetz_series(plain, table("a2_reg"), m) == lefschetz_series(
            redundant, table("a2_redundant_e"), m
        )


def test_tables_invariant_under_rescaling():
    # label sets read from the orbit coweights of a rescaled invariant form
    # place every summand where the engine's sign rows do
    for name, scales in (
        ("a2_reg", (Fraction(5, 3),)),
        ("u3_reg", (Fraction(7, 2),)),
        ("a1a1_reg", (2, 5)),
        ("b2_min", (Fraction(1, 4),)),
    ):
        gd = instance(name)
        gram = invariant_gram(gd.datum, scales)
        coweights = [form_dual(gram, orbit_weight(gd, k)) for k in range(gd.d_prime)]
        for s in table(name).summands:
            I = frozenset(k for k, w in enumerate(coweights) if form_value(gram, orbit_vec(gd, s.orbit.rep), w) <= 0)
            assert s.I == I and s.degree == 2 * s.orbit.length + gd.d_prime - len(I)


def test_shape_bottom_degree():
    # one orbit-size-1 twist-0 summand at the bottom, nothing below it
    for name in INSTANCES:
        gd = instance(name)
        tbl = table(name)
        identity_orbit = next(o for o in gd.worbits if o.length == 0)
        bottom = gd.d_prime - len(minimal_I(gd, identity_orbit))
        at_bottom = [s for s in tbl.summands if s.degree == bottom]
        below = [s for s in tbl.summands if s.degree < bottom]
        assert not below
        assert len(at_bottom) == 1
        assert at_bottom[0].twist == 0 and at_bottom[0].galois_dim == 1
