"""Weyl group enumeration, lengths, actions, stabilizers, Kostant cosets."""

import random

import pytest

from helpers import form_value, inversion_count, invariant_gram, positive_roots
from perdom.rootdata import (
    build_root_datum,
    character,
    cocharacter,
)
from perdom.weyl import (
    BudgetError,
    act,
    dominant_representative,
    generate_weyl,
    kostant_reps,
    stabilizer_w_mu,
)


def W_of(spec):
    return generate_weyl(build_root_datum(spec))


def test_orders_and_longest():
    w = W_of([("A", 2)])
    assert w.order == 6 and w.longest_length() == 3
    w = W_of([("B", 2)])
    assert w.order == 8 and w.longest_length() == 4
    w = W_of([("A", 1), ("A", 1)])
    assert w.order == 4
    assert sorted(e.length for e in w.elements) == [0, 1, 1, 2]
    assert W_of([("G", 2)]).order == 12


def test_budget_rejected():
    datum = build_root_datum([("A", 7)])  # order 40320
    with pytest.raises(BudgetError):
        generate_weyl(datum, budget=1000)


def test_no_duplicate_matrices():
    w = W_of([("B", 2)])
    assert len({e.matrix for e in w.elements}) == w.order


def test_act_examples_a2():
    w = W_of([("A", 2)])
    datum = w.datum
    s1 = next(e for e in w.elements if e.word == (0,))
    assert act(s1, cocharacter([1, 0, -1])).coords == tuple(map(int, (0, 1, -1)))
    w0 = next(e for e in w.elements if e.length == 3)
    assert act(w0, cocharacter([1, 0, -1])).coords == tuple(map(int, (-1, 0, 1)))
    assert act(w.identity, cocharacter([1, 0, -1])).coords == cocharacter([1, 0, -1]).coords


def test_lengths_equal_inversion_counts():
    for spec in ([("A", 2)], [("B", 2)], [("A", 1), ("A", 1)]):
        w = W_of(spec)
        pos = positive_roots(w.datum)
        for e in w.elements:
            assert inversion_count(w, e, pos) == e.length


def test_act_preserves_inner_product():
    rng = random.Random(11)
    w = W_of([("B", 2)])
    gram = invariant_gram(w.datum)
    for _ in range(25):
        e = w.elements[rng.randrange(w.order)]
        u = cocharacter([rng.randint(-4, 4) for _ in range(2)])
        v = cocharacter([rng.randint(-4, 4) for _ in range(2)])
        assert form_value(gram, act(e, u), act(e, v)) == form_value(gram, u, v)


def test_dominant_representative():
    datum = build_root_datum([("A", 2)])
    mu, labels, moved = dominant_representative(datum, cocharacter([-1, 0, 1]))
    assert mu.coords == cocharacter([1, 0, -1]).coords and labels == (1, 1) and moved
    mu, labels, moved = dominant_representative(datum, cocharacter([2, -1, -1]))
    assert mu.coords == cocharacter([2, -1, -1]).coords and labels == (3, 0) and not moved


def test_stabilizer_examples():
    w = W_of([("A", 2)])
    assert len(stabilizer_w_mu(w, cocharacter([1, 0, -1]))) == 1
    stab = stabilizer_w_mu(w, cocharacter([2, -1, -1]))
    assert sorted(e.length for e in stab) == [0, 1]
    assert len(stabilizer_w_mu(w, cocharacter([0, 0, 0]))) == w.order


def test_stabilizer_rejects_non_dominant():
    w = W_of([("A", 2)])
    with pytest.raises(ValueError):
        stabilizer_w_mu(w, cocharacter([-1, 0, 1]))


def test_kostant_examples():
    w = W_of([("A", 2)])
    regular = kostant_reps(w, stabilizer_w_mu(w, cocharacter([1, 0, -1])))
    assert len(regular) == 6
    singular = kostant_reps(w, stabilizer_w_mu(w, cocharacter([2, -1, -1])))
    assert sorted(e.length for e in singular) == [0, 1, 2]
    central = kostant_reps(w, stabilizer_w_mu(w, cocharacter([0, 0, 0])))
    assert len(central) == 1 and central[0].length == 0


def test_kostant_count_identity():
    for spec, mu in (
        ([("A", 3)], [1, 1, -1, -1]),
        ([("B", 2)], [1, 0]),
        ([("A", 2)], [2, -1, -1]),
    ):
        w = W_of(spec)
        stab = stabilizer_w_mu(w, cocharacter(mu))
        reps = kostant_reps(w, stab)
        assert len(reps) * len(stab) == w.order


def test_kostant_reps_preserve_stabilizer_positives():
    # every representative sends the stabilizer subsystem's simple roots to
    # positive roots
    from helpers import solve_in_span
    from perdom.rootdata import pairing

    datum = build_root_datum([("A", 3)])
    w = generate_weyl(datum)
    mu = cocharacter([1, 1, -1, -1])
    stab = stabilizer_w_mu(w, mu)
    simple = [r.coords for r in datum.simple_roots]
    for rep in kostant_reps(w, stab):
        for i, alpha in enumerate(datum.simple_roots):
            if pairing(mu, alpha) == 0:
                image = act(rep, character(alpha.coords))
                coeffs = solve_in_span(simple, image.coords)
                assert all(c >= 0 for c in coeffs)


def test_kostant_minimal_length_additivity():
    w = W_of([("A", 2)])
    stab = stabilizer_w_mu(w, cocharacter([2, -1, -1]))
    for rep in kostant_reps(w, stab):
        for v in stab:
            assert w.multiply(rep, v).length == rep.length + v.length
