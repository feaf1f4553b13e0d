"""Engine properties on random products, twists and cocharacters.

Instances are products of up to three factors from A1-A3, B2, B3, C2, C3, D4
and G2, under a random diagram twist (a flip of an A or D diagram, the D4
triality, and a swap or cycle of equal factors), with a random integer mu
that is not dominant.  The positive-root counts are also checked on bare
types, any family at ranks up to 9.  The runs are derandomised and small:
135 examples in all.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    num_positive_roots,
    orbit_vec,
    orbit_weight,
    reference_dim_polys,
    weyl_order,
)
from perdom import cli  # noqa: E402
from perdom.cohom import (  # noqa: E402
    DimPoly,
    all_dim_polys,
    assemble_cohomology,
    build_group_data,
    dim_induced,
    dim_v,
)
from perdom.galois import _perm_order  # noqa: E402
from perdom.rootdata import (  # noqa: E402
    WEYL_ORDER_BUDGET,
    UnsupportedTypeError,
    act_matrix,
    build_root_datum,
    cocharacter,
    pairing,
    simple_reflection_matrix,
)
from perdom.weyl import (  # noqa: E402
    act,
    dominant_representative,
    generate_weyl,
    is_dominant,
    kostant_reps,
    stabilizer_w_mu,
)

FACTORS = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4), ("G", 2))
# the orbit of mu has at most |W| points; this keeps each example well under a second
MAX_WEYL_ORDER = 2400
# the matrix oracle enumerates all of W and scans its cosets, which takes seconds
# per example from several hundred elements
ORACLE_WEYL_ORDER = 400

# diagram automorphisms of one factor, as 0-indexed permutations of its simple roots
LOCAL_TWISTS = {
    ("A", 2): ((1, 0),),
    ("A", 3): ((2, 1, 0),),
    ("D", 4): ((0, 1, 3, 2), (2, 1, 3, 0), (3, 1, 0, 2)),
}


@st.composite
def instances(draw, max_weyl_order=MAX_WEYL_ORDER):
    """(cartan type, twist as (1-indexed perm, order) or None, mu)."""
    ctype = tuple(draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3)))
    assume(weyl_order(ctype) <= max_weyl_order)
    starts = [sum(rank for _, rank in ctype[:f]) for f in range(len(ctype))]
    # move each factor onto an equal one, then apply a diagram automorphism there
    target = {}
    for factor in sorted(set(ctype)):
        equal = [f for f, t in enumerate(ctype) if t == factor]
        target.update(zip(equal, draw(st.permutations(equal))))
    perm = []
    for f, factor in enumerate(ctype):
        local = draw(st.sampled_from(((tuple(range(factor[1])),) + LOCAL_TWISTS.get(factor, ()))))
        perm.extend(starts[target[f]] + local[i] for i in range(factor[1]))
    order = _perm_order(tuple(perm)) * draw(st.sampled_from((1, 2)))
    datum = build_root_datum(ctype)
    mu = cocharacter(draw(st.lists(st.integers(-2, 2), min_size=datum.ambient_dim, max_size=datum.ambient_dim)))
    assume(not is_dominant(datum, mu))
    twist = None if perm == list(range(len(perm))) and order == 1 else (tuple(p + 1 for p in perm), order)
    return ctype, twist, [int(c) for c in mu.coords]


def _engine_output(gd):
    table = assemble_cohomology(gd)
    return (
        gd.mu,
        gd.e_degree,
        cli.cohomology_block(gd, table),
        cli.euler_block(gd, table),
        cli.dims_block(gd),
    )


@settings(max_examples=20, deadline=None, derandomize=True)
@given(instances(), st.lists(st.integers(0, 20), max_size=8))
def test_table_and_dims_invariant_under_w_conjugation(instance, steps):
    ctype, twist, mu = instance
    datum = build_root_datum(ctype)
    conjugate = cocharacter(mu)
    for step in steps:
        conjugate = act_matrix(simple_reflection_matrix(datum, step % datum.rank), conjugate)
    # conjugates need not be integral: the G2 model has a coroot with thirds
    assert _engine_output(build_group_data(ctype, mu, 2, twist=twist)) == _engine_output(
        build_group_data(ctype, conjugate.coords, 2, twist=twist)
    )


# any family at ranks up to 9, for the root counts alone
FACTOR_TYPES = st.one_of(
    st.tuples(st.just("A"), st.integers(1, 9)),
    st.tuples(st.sampled_from("BC"), st.integers(2, 9)),
    st.tuples(st.just("D"), st.integers(3, 9)),
    st.just(("G", 2)),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(FACTOR_TYPES, min_size=1, max_size=3))
def test_closure_counts_match_the_degree_table(ctype):
    # N is the closure's length and |W| its height product; the degree table
    # is the oracle for both, and the budget refuses exactly the types over it
    if weyl_order(ctype) > WEYL_ORDER_BUDGET:
        with pytest.raises(UnsupportedTypeError, match="^Weyl order exceeds budget 1000000$"):
            build_root_datum(ctype)
        return
    datum = build_root_datum(ctype)
    assert len(datum.positive_coefficients) == num_positive_roots(ctype)
    assert datum.weyl_order == weyl_order(ctype)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(instances(), st.sampled_from((2, 3, 4)))
def test_steinberg_dimension_is_q_to_the_positive_roots(instance, q):
    ctype, twist, mu = instance
    gd = build_group_data(ctype, mu, q, twist=twist)
    assert dim_v(gd, frozenset()) == DimPoly((0,) * num_positive_roots(ctype) + (1,))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(instances())
def test_sign_rows_match_the_fraction_pairing(instance):
    ctype, twist, mu = instance
    gd = build_group_data(ctype, mu, 2, twist=twist)
    for k in range(gd.d_prime):
        weight = orbit_weight(gd, k)
        for p in gd.mu_orbit:
            value = pairing(orbit_vec(gd, p), weight)
            assert (gd.scaled_pairing(p, k) > 0) == (value > 0)
            assert (gd.scaled_pairing(p, k) < 0) == (value < 0)


def _matrix_walk(datum, mu):
    """Dominance by reflection matrices: reflect at the first simple root
    pairing negatively with mu, until none does."""
    moved = False
    while True:
        labels = [pairing(mu, alpha) for alpha in datum.simple_roots]
        bad = next((i for i, c in enumerate(labels) if c < 0), None)
        if bad is None:
            return mu, tuple(labels), moved
        mu = act_matrix(simple_reflection_matrix(datum, bad), mu)
        moved = True


@settings(max_examples=15, deadline=None, derandomize=True)
@given(instances(), st.lists(st.integers(0, 20), max_size=8))
def test_dominant_representative_matches_the_matrix_walk(instance, steps):
    # on mu and on a conjugate of it, which in the G2 model may have thirds
    ctype, _, mu = instance
    datum = build_root_datum(ctype)
    conjugate = cocharacter(mu)
    for step in steps:
        conjugate = act_matrix(simple_reflection_matrix(datum, step % datum.rank), conjugate)
    for v in (cocharacter(mu), conjugate):
        assert dominant_representative(datum, v) == _matrix_walk(datum, v)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(instances(max_weyl_order=ORACLE_WEYL_ORDER))
def test_orbit_walk_matches_the_kostant_representatives(instance):
    ctype, twist, mu = instance
    gd = build_group_data(ctype, mu, 2, twist=twist)
    W = generate_weyl(gd.datum)
    reps = kostant_reps(W, stabilizer_w_mu(W, gd.mu))
    assert [(p.word, p.labels) for p in gd.mu_orbit] == [
        (w.word, tuple(pairing(act(w, gd.mu), alpha) for alpha in gd.datum.simple_roots))
        for w in reps
    ]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(instances())
def test_dim_polys_match_the_per_label_set_walks(instance):
    ctype, twist, mu = instance
    gd = build_group_data(ctype, mu, 2, twist=twist)
    polys = all_dim_polys(gd)
    assert polys == reference_dim_polys(gd)
    # v_I buckets the sigma-fixed elements of W by their left descents
    assert dim_v(gd, frozenset(range(gd.d_prime))) == DimPoly((1,))
    assert sum((dim_v(gd, I) for I in polys), DimPoly(())) == dim_induced(gd, frozenset())
    if not gd.is_split or weyl_order(ctype) > ORACLE_WEYL_ORDER:
        return
    W = generate_weyl(gd.datum)
    for I in polys:
        letters = {i for k in I for i in gd.orbits_delta.orbits[k]}
        parabolic = tuple(w for w in W.elements if set(w.word) <= letters)
        reps = kostant_reps(W, parabolic)
        assert dim_induced(gd, I) == sum((DimPoly((0,) * w.length + (1,)) for w in reps), DimPoly(()))
