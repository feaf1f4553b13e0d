"""Diagram automorphisms, orbit coweights, reflex data, Weyl-set orbits."""

from fractions import Fraction

import pytest

from helpers import instance
from perdom.galois import build_galois_action, delta_orbits, gamma_e, split_action
from perdom.rootdata import (
    build_root_datum,
    cocharacter,
    fundamental_coweights,
    inner_product_default,
    mat_mul,
    mat_vec,
    nullspace,
    rescaled_inner_product,
    vec_dot,
    weyl_order,
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
    datum = build_root_datum([("A", 2)])
    action = build_galois_action(datum, (1, 0), 2)
    # (a, b, c) -> (-c, -b, -a) on sum-zero vectors
    assert mat_vec(action.matrix, cocharacter([1, -1, 0]).coords) == cocharacter([0, 1, -1]).coords
    assert mat_vec(action.matrix, cocharacter([2, -1, -1]).coords) == cocharacter([1, 1, -2]).coords
    assert mat_vec(action.matrix, cocharacter([1, 0, -1]).coords) == cocharacter([1, 0, -1]).coords


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
    cw = fundamental_coweights(datum)
    assert orbits.twisted_coweights[0].coords == cw[0].coords


def test_delta_orbits_twisted_a2():
    datum = build_root_datum([("A", 2)])
    orbits = delta_orbits(datum, build_galois_action(datum, (1, 0), 2))
    assert orbits.orbits == ((0, 1),)
    assert orbits.twisted_coweights[0].coords == cocharacter([1, 0, -1]).coords


def test_delta_orbits_twisted_a3():
    datum = build_root_datum([("A", 3)])
    orbits = delta_orbits(datum, build_galois_action(datum, (2, 1, 0), 2))
    assert orbits.orbits == ((0, 2), (1,))
    # the fixed middle node coweight is doubled by the sum over the group
    cw = fundamental_coweights(datum)
    doubled = tuple(2 * c for c in cw[1].coords)
    assert orbits.twisted_coweights[1].coords == doubled


def test_twisted_coweights_are_galois_fixed():
    for name in ("u3_reg", "u4_mid", "res_sl2"):
        gd = instance(name)
        for cw in gd.orbits_delta.twisted_coweights:
            assert mat_vec(gd.action.matrix, cw.coords) == cw.coords


def test_gamma_e_examples():
    datum = build_root_datum([("A", 2)])
    action = build_galois_action(datum, (1, 0), 2)
    fixed = gamma_e(datum, action, cocharacter([1, 0, -1]))
    assert fixed.e_degree == 1 and fixed.gamma_e_order == 2
    moved = gamma_e(datum, action, cocharacter([2, -1, -1]))
    assert moved.e_degree == 2 and moved.gamma_e_order == 1
    split = gamma_e(datum, split_action(datum), cocharacter([1, 0, -1]))
    assert split.e_degree == 1 and split.gamma_e_order == 1


def test_gamma_e_rejects_non_dominant():
    datum = build_root_datum([("A", 2)])
    with pytest.raises(ValueError):
        gamma_e(datum, split_action(datum), cocharacter([-1, 0, 1]))


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
            assert gd.muclass.gamma_e_order % orbit.size == 0
            assert len({m.length for m in orbit.members}) == 1


def test_conjugation_preserves_length_on_whole_group():
    # mu is regular and sigma-fixed: its orbit points w mu stand for all of W,
    # and sigma (w mu) is the point of the conjugate sigma w sigma^-1
    gd = instance("u3_reg")
    assert len(gd.mu_orbit) == weyl_order(gd.datum.cartan_type)
    by_coords = {p.vec.coords: p for p in gd.mu_orbit}
    for p in gd.mu_orbit:
        assert by_coords[mat_vec(gd.action.matrix, p.vec.coords)].length == p.length


@pytest.mark.parametrize("cartan_type, perm, order", TWISTS)
def test_twist_matrix_is_pinned_by_coroots_and_complement(cartan_type, perm, order):
    # a linear map is fixed by its values on a basis: the permuted coroots
    # and the pointwise-fixed dot-orthogonal complement of their span
    datum = build_root_datum(cartan_type)
    action = build_galois_action(datum, tuple(p - 1 for p in perm), order)
    m = action.matrix
    coroots = [c.coords for c in datum.simple_coroots]
    for i, c in enumerate(coroots):
        assert mat_vec(m, c) == coroots[perm[i] - 1]
    complement = nullspace(coroots, datum.ambient_dim)
    assert len(complement) == datum.ambient_dim - datum.rank
    for v in complement:
        assert all(vec_dot(c, v) == 0 for c in coroots)
        assert mat_vec(m, v) == v
    gram = inner_product_default(datum).gram
    assert mat_mul(mat_mul(tuple(zip(*m)), gram), m) == gram
    assert action.power(order) == action.power(0)


def test_orbit_data_survives_rescaling():
    datum = build_root_datum([("A", 3)])
    action = build_galois_action(datum, (2, 1, 0), 2)
    base = delta_orbits(datum, action)
    scaled = delta_orbits(datum, action, rescaled_inner_product(datum, [Fraction(7, 3)]))
    assert base.orbits == scaled.orbits
    for u, v in zip(base.twisted_coweights, scaled.twisted_coweights):
        ratio = {a / b for a, b in zip(u.coords, v.coords) if b != 0}
        assert len(ratio) == 1 and ratio.pop() > 0
