"""Root datum construction, pairings, fundamental weights, invariant forms."""

import random
from fractions import Fraction

import pytest

from helpers import (
    INSTANCES,
    ambient_cartan_matrix,
    form_dual,
    form_value,
    fundamental_weights,
    invariant_gram,
    positive_roots,
    time_limit,
)
from perdom import rootdata
from perdom.rootdata import (
    UnsupportedTypeError,
    build_root_datum,
    character,
    cocharacter,
    pairing,
    simple_reflection_matrix,
    act_matrix,
)


def test_cartan_matrix_a1():
    assert build_root_datum([("A", 1)]).cartan_matrix == ((2,),)


def test_cartan_matrix_a2():
    assert build_root_datum([("A", 2)]).cartan_matrix == ((2, -1), (-1, 2))


def test_cartan_matrix_b2_labeling():
    datum = build_root_datum([("B", 2)])
    assert datum.cartan_matrix == ((2, -1), (-2, 2))
    # alpha_1 long, alpha_2 short in the orthogonal model
    gram = invariant_gram(datum)
    long_sq = form_value(gram, datum.simple_roots[0], datum.simple_roots[0])
    short_sq = form_value(gram, datum.simple_roots[1], datum.simple_roots[1])
    assert long_sq == 2 * short_sq


def test_cartan_matrix_g2():
    assert build_root_datum([("G", 2)]).cartan_matrix == ((2, -3), (-1, 2))


def test_cartan_matrix_product_blocks():
    datum = build_root_datum([("A", 1), ("B", 2)])
    assert datum.cartan_matrix == ((2, 0, 0), (0, 2, -1), (0, -2, 2))
    assert datum.ambient_dim == 4


def test_cartan_entries_match_pairing():
    for spec in ([("A", 3)], [("B", 2)], [("C", 3)], [("D", 4)], [("G", 2)]):
        datum = build_root_datum(spec)
        for i in range(datum.rank):
            for j in range(datum.rank):
                assert datum.cartan_matrix[i][j] == pairing(
                    datum.simple_coroots[i], datum.simple_roots[j]
                )
            assert datum.cartan_matrix[i][i] == 2


def test_rejects_unknown_family():
    with pytest.raises(UnsupportedTypeError, match="component 0"):
        build_root_datum([("E", 6)])


def test_rejects_bad_rank():
    with pytest.raises(UnsupportedTypeError, match="component 1"):
        build_root_datum([("A", 2), ("D", 2)])
    with pytest.raises(UnsupportedTypeError, match="G requires rank 2"):
        build_root_datum([("G", 3)])


def test_rejects_weyl_budget():
    with pytest.raises(UnsupportedTypeError, match="budget"):
        build_root_datum([("A", 12)])


def test_weyl_budget_accepts_a1_to_the_19():
    # |W| = 2^19 = 524,288 is under the budget of 10^6; rank 19 is the largest
    # the rank bound lets through to the exact order
    with time_limit(1):
        datum = build_root_datum([("A", 1)] * 19)
    assert datum.weyl_order == 2**19
    assert len(datum.positive_coefficients) == 19


@pytest.mark.parametrize("ctype", [[("A", 1)] * 20, [("A", 9)], [("A", 12)], [("D", 8)]])
def test_weyl_budget_refusals(ctype):
    # A1^20 by the rank bound (|W| >= 2^rank > 10^6), the others by the exact
    # order: 3,628,800, 6,227,020,800 and 5,160,960
    with time_limit(1), pytest.raises(UnsupportedTypeError) as refusal:
        build_root_datum(ctype)
    assert str(refusal.value) == "Weyl order exceeds budget 1000000"


def test_rank_bound_refuses_before_any_coordinate(monkeypatch):
    monkeypatch.setattr(rootdata, "_factor_data", None)
    with pytest.raises(UnsupportedTypeError, match="^Weyl order exceeds budget 1000000$"):
        build_root_datum([("A", 1)] * 20)


def test_cartan_matrix_by_block_equals_the_ambient_pairing(monkeypatch):
    # the Cartan matrix pairs each factor's coroots with its own roots only;
    # the full ambient pairing, off-block zeros included, must agree.  The
    # mixed product has |W| above the budget, which is raised here so that
    # its datum is built at all
    monkeypatch.setattr(rootdata, "WEYL_ORDER_BUDGET", 10**12)
    types = {ctype for ctype, _, _, _ in INSTANCES.values()}
    types |= {(("A", 1),) * 19, (("A", 4), ("B", 4), ("C", 4), ("D", 4), ("G", 2))}
    for ctype in sorted(types):
        datum = build_root_datum(ctype)
        assert datum.cartan_matrix == ambient_cartan_matrix(datum), ctype


def test_pairing_examples_a2():
    datum = build_root_datum([("A", 2)])
    w = fundamental_weights(datum)
    assert pairing(datum.simple_coroots[0], datum.simple_roots[0]) == 2
    assert pairing(datum.simple_coroots[0], w[0]) == 1
    assert pairing(datum.simple_coroots[0], w[1]) == 0
    assert pairing(cocharacter([1, 0, -1]), character([1, 0, -1])) == 2


def test_pairing_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        pairing(cocharacter([1, -1]), character([1, 0, -1]))


def test_default_inner_product_values():
    a2 = build_root_datum([("A", 2)])
    gram = invariant_gram(a2)
    assert form_value(gram, a2.simple_coroots[0], a2.simple_coroots[0]) == 2
    assert form_value(gram, a2.simple_coroots[0], a2.simple_coroots[1]) == -1
    prod = build_root_datum([("A", 1), ("A", 1)])
    gramp = invariant_gram(prod)
    assert form_value(gramp, prod.simple_coroots[0], prod.simple_coroots[1]) == 0


def test_short_coroot_normalization():
    for spec in ([("A", 2)], [("B", 2)], [("C", 2)], [("D", 3)], [("G", 2)]):
        datum = build_root_datum(spec)
        gram = invariant_gram(datum)
        norms = [form_value(gram, c, c) for c in datum.simple_coroots]
        assert min(norms) == 2


def test_fundamental_weights_a2():
    a2 = build_root_datum([("A", 2)])
    w = fundamental_weights(a2)
    assert w[0].coords == (Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3))
    cw = form_dual(invariant_gram(a2), w[0])
    assert cw.coords == w[0].coords  # duality is the identity in type A


def test_fundamental_weight_a1():
    a1 = build_root_datum([("A", 1)])
    w = fundamental_weights(a1)
    assert w[0].coords == tuple(Fraction(1, 2) * c for c in a1.simple_roots[0].coords)


def test_fundamental_weights_defining_property():
    for spec in ([("B", 2)], [("G", 2)], [("A", 1), ("A", 2)]):
        datum = build_root_datum(spec)
        for a, w in enumerate(fundamental_weights(datum)):
            for b in range(datum.rank):
                assert pairing(datum.simple_coroots[b], w) == (1 if a == b else 0)


def test_reflection_preserves_pairing_and_form():
    rng = random.Random(7)
    for spec in ([("A", 2)], [("B", 2)], [("G", 2)]):
        datum = build_root_datum(spec)
        gram = invariant_gram(datum)
        for _ in range(20):
            i = rng.randrange(datum.rank)
            s = simple_reflection_matrix(datum, i)
            lam = cocharacter([rng.randint(-3, 3) for _ in range(datum.ambient_dim)])
            chi = character([rng.randint(-3, 3) for _ in range(datum.ambient_dim)])
            assert pairing(act_matrix(s, lam), act_matrix(s, chi)) == pairing(lam, chi)
            mu = cocharacter([rng.randint(-3, 3) for _ in range(datum.ambient_dim)])
            assert form_value(gram, act_matrix(s, lam), act_matrix(s, mu)) == form_value(gram, lam, mu)


def test_gram_of_coroots_reproduces_cartan():
    for spec in ([("A", 2)], [("B", 2)], [("C", 2)], [("G", 2)]):
        datum = build_root_datum(spec)
        form = invariant_gram(datum)
        for i in range(datum.rank):
            for j in range(datum.rank):
                root_norm = form_value(form, datum.simple_roots[j], datum.simple_roots[j])
                gram = form_value(form, datum.simple_coroots[i], datum.simple_coroots[j])
                assert datum.cartan_matrix[i][j] == root_norm / 2 * gram


def test_positive_root_counts():
    assert len(positive_roots(build_root_datum([("A", 2)]))) == 3
    assert len(positive_roots(build_root_datum([("B", 2)]))) == 4
    assert len(positive_roots(build_root_datum([("G", 2)]))) == 6
    assert len(positive_roots(build_root_datum([("A", 1), ("A", 1)]))) == 2
