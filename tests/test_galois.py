"""Diagram automorphisms, orbit sign rows, reflex data, Weyl-set orbits."""

from fractions import Fraction

import pytest

from helpers import (
    form_dual,
    fundamental_weights,
    instance,
    invariant_gram,
    nullspace,
    orbit_vec,
    orbit_weight,
    twist_matrix,
    weyl_order,
)
from perdom.cohom import build_group_data
from perdom.galois import build_galois_action, delta_orbits, gamma_e, split_action
from perdom.rootdata import (
    build_root_datum,
    character,
    cocharacter,
    identity_matrix,
    mat_mul,
    mat_vec,
    pairing,
    vec_dot,
)

# (cartan type, 1-indexed perm, order): every diagram twist of the catalog
# families up to rank 6, with the D4 triality and non-minimal orders
TWISTS = (
    ((("A", 3),), (3, 2, 1), 2),
    ((("A", 4),), (4, 3, 2, 1), 2),
    ((("A", 5),), (5, 4, 3, 2, 1), 2),
    ((("D", 4),), (3, 2, 1, 4), 2),
    ((("D", 4),), (1, 2, 4, 3), 2),
    ((("D", 4),), (3, 2, 4, 1), 3),
    ((("D", 5),), (1, 2, 3, 5, 4), 2),
    ((("A", 2), ("A", 2)), (3, 4, 1, 2), 2),
    ((("A", 2), ("A", 2)), (4, 3, 2, 1), 4),
    ((("A", 1), ("A", 1), ("G", 2)), (2, 1, 3, 4), 2),
    ((("A", 2),), (2, 1), 6),
)


def test_split_action_is_identity():
    datum = build_root_datum([("A", 2)])
    action = split_action(datum)
    assert action.is_trivial and action.order == 1


def test_twisted_a2_matrix_on_sum_zero():
    # the twist's linear realisation, a test oracle
    matrix = twist_matrix(build_root_datum([("A", 2)]), (1, 0))
    # (a, b, c) -> (-c, -b, -a) on sum-zero vectors
    assert mat_vec(matrix, cocharacter([1, -1, 0]).coords) == cocharacter([0, 1, -1]).coords
    assert mat_vec(matrix, cocharacter([2, -1, -1]).coords) == cocharacter([1, 1, -2]).coords
    assert mat_vec(matrix, cocharacter([1, 0, -1]).coords) == cocharacter([1, 0, -1]).coords


def test_a3_swap_is_valid():
    datum = build_root_datum([("A", 3)])
    build_galois_action(datum, (2, 1, 0), 2)


def test_rejects_cartan_incompatible_perm():
    datum = build_root_datum([("A", 3)])
    with pytest.raises(ValueError, match="Cartan"):
        build_galois_action(datum, (1, 0, 2), 2)


def test_rejects_wrong_order():
    datum = build_root_datum([("A", 2)])
    with pytest.raises(ValueError, match="multiple"):
        build_galois_action(datum, (1, 0), 3)
    # a non-minimal splitting degree is allowed
    assert build_galois_action(datum, (1, 0), 4).order == 4


def test_delta_orbits_split():
    datum = build_root_datum([("A", 2)])
    orbits = delta_orbits(datum, split_action(datum))
    assert orbits.orbits == ((0,), (1,))
    gd = build_group_data([("A", 2)], [0, 0, 0], 2)
    assert orbit_weight(gd, 0).coords == fundamental_weights(datum)[0].coords
    # omega_1 = (2 alpha_1 + alpha_2) / 3
    assert gd.sign_rows == ((2, 1), (1, 2))


def test_delta_orbits_twisted_a2():
    datum = build_root_datum([("A", 2)])
    orbits = delta_orbits(datum, build_galois_action(datum, (1, 0), 2))
    assert orbits.orbits == ((0, 1),)
    gd = build_group_data([("A", 2)], [0, 0, 0], 2, twist=((2, 1), 2))
    # omega_1 + omega_2 = alpha_1 + alpha_2 = (1, 0, -1)
    assert orbit_weight(gd, 0).coords == character([1, 0, -1]).coords
    assert gd.sign_rows == ((1, 1),)


def test_delta_orbits_twisted_a3():
    datum = build_root_datum([("A", 3)])
    orbits = delta_orbits(datum, build_galois_action(datum, (2, 1, 0), 2))
    assert orbits.orbits == ((0, 2), (1,))
    gd = build_group_data([("A", 3)], [0, 0, 0, 0], 2, twist=((3, 2, 1), 2))
    # omega_1 + omega_3 = alpha_1 + alpha_2 + alpha_3, omega_2 = (alpha_1 + 2 alpha_2 + alpha_3) / 2
    assert gd.sign_rows == ((1, 1, 1), (1, 2, 1))
    assert orbit_weight(gd, 1).coords == fundamental_weights(datum)[1].coords


def test_twisted_coweights_are_galois_fixed():
    # omega_J, its form-dual orbit coweight and its sign row are sigma-fixed
    for name in ("u3_reg", "u4_mid", "res_sl2"):
        gd = instance(name)
        sigma = twist_matrix(gd.datum, gd.action.perm)
        gram = invariant_gram(gd.datum)
        for k, row in enumerate(gd.sign_rows):
            cw = form_dual(gram, orbit_weight(gd, k))
            assert mat_vec(sigma, cw.coords) == cw.coords
            assert all(row[p] == b for p, b in zip(gd.action.perm, row))


def _labels(datum, mu):
    return tuple(int(pairing(cocharacter(mu), alpha)) for alpha in datum.simple_roots)


def test_gamma_e_examples():
    datum = build_root_datum([("A", 2)])
    action = build_galois_action(datum, (1, 0), 2)
    fixed = gamma_e(action, _labels(datum, [1, 0, -1]))
    assert fixed == 1 and action.order // fixed == 2
    moved = gamma_e(action, _labels(datum, [2, -1, -1]))
    assert moved == 2 and action.order // moved == 1
    split = split_action(datum)
    e = gamma_e(split, _labels(datum, [1, 0, -1]))
    assert e == 1 and split.order // e == 1


def test_gamma_e_rejects_non_dominant():
    datum = build_root_datum([("A", 2)])
    with pytest.raises(ValueError):
        gamma_e(split_action(datum), _labels(datum, [-1, 0, 1]))


def test_worbits_split_are_singletons():
    gd = instance("a2_reg")
    assert [o.size for o in gd.worbits] == [1] * 6


def test_worbits_twisted_a2():
    gd = instance("u3_reg")
    assert sorted((o.length, o.size) for o in gd.worbits) == [(0, 1), (1, 2), (2, 2), (3, 1)]


def test_worbits_central_mu():
    gd = instance("u3_central")
    assert len(gd.worbits) == 1
    assert gd.worbits[0].length == 0 and gd.worbits[0].size == 1


def test_worbit_sizes_sum_to_kostant_count():
    for name in ("u3_reg", "u4_mid", "u4_min", "res_sl2", "a2_redundant_e"):
        gd = instance(name)
        assert sum(o.size for o in gd.worbits) == len(gd.mu_orbit)
        for orbit in gd.worbits:
            assert (gd.action.order // gd.e_degree) % orbit.size == 0
            assert len({m.length for m in orbit.members}) == 1


def test_conjugation_preserves_length_on_whole_group():
    # mu is regular and sigma-fixed: its orbit points w mu stand for all of W,
    # and sigma (w mu) is the point of the conjugate sigma w sigma^-1
    gd = instance("u3_reg")
    assert len(gd.mu_orbit) == weyl_order(gd.datum.cartan_type)
    sigma = twist_matrix(gd.datum, gd.action.perm)
    by_coords = {orbit_vec(gd, p).coords: p for p in gd.mu_orbit}
    for p in gd.mu_orbit:
        assert by_coords[mat_vec(sigma, orbit_vec(gd, p).coords)].length == p.length


@pytest.mark.parametrize("cartan_type, perm, order", TWISTS)
def test_twist_matrix_is_pinned_by_coroots_and_complement(cartan_type, perm, order):
    # a linear map is fixed by its values on a basis: the permuted coroots
    # and the pointwise-fixed dot-orthogonal complement of their span
    datum = build_root_datum(cartan_type)
    action = build_galois_action(datum, tuple(p - 1 for p in perm), order)
    m = twist_matrix(datum, action.perm)
    for i, root in enumerate(datum.simple_roots):
        assert mat_vec(m, root.coords) == datum.simple_roots[action.perm[i]].coords
    coroots = [c.coords for c in datum.simple_coroots]
    for i, c in enumerate(coroots):
        assert mat_vec(m, c) == coroots[perm[i] - 1]
    complement = nullspace(coroots, datum.ambient_dim)
    assert len(complement) == datum.ambient_dim - datum.rank
    for v in complement:
        assert all(vec_dot(c, v) == 0 for c in coroots)
        assert mat_vec(m, v) == v
    gram = invariant_gram(datum)
    assert mat_mul(mat_mul(tuple(zip(*m)), gram), m) == gram
    power = identity_matrix(datum.ambient_dim)
    for _ in range(order):
        power = mat_mul(m, power)
    assert power == identity_matrix(datum.ambient_dim)
    assert action.power(order) == action.power(0) == tuple(range(datum.rank))


def test_orbit_data_survives_rescaling():
    gd = build_group_data([("A", 3)], [0, 0, 0, 0], 2, twist=((3, 2, 1), 2))
    base = invariant_gram(gd.datum)
    scaled = invariant_gram(gd.datum, [Fraction(7, 3)])
    for k in range(gd.d_prime):
        u = form_dual(base, orbit_weight(gd, k))
        v = form_dual(scaled, orbit_weight(gd, k))
        ratio = {a / b for a, b in zip(u.coords, v.coords) if b != 0}
        assert len(ratio) == 1 and ratio.pop() > 0
