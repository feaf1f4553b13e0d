"""The orbit engine against the enumerated Weyl group, and closed forms.

The engine reads everything from W-orbits of dominant coweights.  The matrix
path (``generate_weyl``, ``stabilizer_w_mu``, ``kostant_reps``, conjugation
by the Galois generator, minimal coset representatives by length) is kept as
the oracle it must agree with exactly, words and lengths included.
"""

import itertools

import pytest

from helpers import INSTANCES, SPLIT_NAMES, instance
from perdom.cohom import DimPoly, build_group_data, dim_induced, dim_v
from perdom.rootdata import (
    build_root_datum,
    mat_inv,
    mat_mul,
    num_positive_roots,
    rescaled_inner_product,
    simple_reflection_matrix,
)
from perdom.weyl import act, generate_weyl, kostant_reps, stabilizer_w_mu

# name -> (cartan type, mu, q, twist), beyond the shared catalog; G2 with
# mu = (1, 0, -1) is already there as g2_sing
EXTRA = {
    "b3_reg": ((("B", 3),), (3, 2, 1), 2, None),
    "d4_min": ((("D", 4),), (1, 0, 0, 0), 2, None),
    "u4_reg": ((("A", 3),), (3, 1, -1, -3), 2, ((3, 2, 1), 2)),
    # the word tie-break decides the summand order here
    "u5_mid": ((("A", 4),), (1, 1, 0, -1, -1), 2, ((4, 3, 2, 1), 2)),
    # folded walks: an orbit of two orthogonal roots, an orbit of three, and
    # factor swaps
    "d4_2twist": ((("D", 4),), (1, 0, 0, 0), 2, ((1, 2, 4, 3), 2)),
    "d4_3twist": ((("D", 4),), (2, 1, 1, 0), 2, ((3, 2, 4, 1), 3)),
    "a2a2_swap": ((("A", 2), ("A", 2)), (1, 0, -1, 1, 0, -1), 2, ((3, 4, 1, 2), 2)),
    "a1cube_cycle": ((("A", 1),) * 3, (1, -1, 1, -1, 0, 0), 2, ((2, 3, 1), 3)),
}

ORACLE_NAMES = tuple(INSTANCES) + tuple(EXTRA)


def _instance(name):
    if name in INSTANCES:
        return instance(name)
    ctype, mu, q, twist = EXTRA[name]
    return build_group_data(list(ctype), list(mu), q, twist=twist)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_sign_rows_give_the_sign_of_the_pairing(name):
    ctype, mu, q, twist = INSTANCES[name] if name in INSTANCES else EXTRA[name]
    datum = build_root_datum(list(ctype))
    scales = range(2, 2 + len(ctype))
    rescaled = build_group_data(
        list(ctype), list(mu), q, twist=twist, ip=rescaled_inner_product(datum, scales)
    )
    for gd in (_instance(name), rescaled):
        for p in gd.mu_orbit:
            for k, w in enumerate(gd.orbits_delta.twisted_coweights):
                assert _sign(gd.scaled_pairing(p, k)) == _sign(gd.ip.value(p.vec, w)), (p, k)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_steinberg_identity_as_a_polynomial(name):
    gd = _instance(name)
    assert dim_v(gd, frozenset()) == DimPoly.monomial(num_positive_roots(gd.datum.cartan_type))


@pytest.fixture(scope="module", params=ORACLE_NAMES)
def oracle(request):
    gd = _instance(request.param)
    W = generate_weyl(gd.datum)
    return gd, W, kostant_reps(W, stabilizer_w_mu(W, gd.mu))


def test_orbit_points_are_kostant_images(oracle):
    gd, _, reps = oracle
    assert [(p.vec, p.length, p.word) for p in gd.mu_orbit] == [
        (act(w, gd.mu), w.length, w.word) for w in reps
    ]


def test_reflex_orbits_match_conjugation(oracle):
    gd, W, reps = oracle
    gen = gd.action.power(gd.muclass.e_degree)
    gen_inv = mat_inv(gen)
    expected = set()
    for w in reps:
        members = [w]
        while (conj := W.by_matrix[mat_mul(mat_mul(gen, members[-1].matrix), gen_inv)]) != w:
            members.append(conj)
        expected.add(frozenset(act(m, gd.mu).coords for m in members))
    got = {frozenset(m.vec.coords for m in o.members) for o in gd.worbits}
    assert got == expected
    for o in gd.worbits:
        assert o.size == len(o.members) == len({m.vec for m in o.members})
        assert o.rep == min(o.members, key=lambda m: (m.length, m.word))


def test_dim_induced_counts_fixed_minimal_coset_reps(oracle):
    gd, W, _ = oracle
    d = gd.datum
    reflections = [W.by_matrix[simple_reflection_matrix(d, i)] for i in range(d.rank)]
    ascents = {w: {i for i, s in enumerate(reflections) if W.multiply(w, s).length > w.length}
               for w in W.elements}
    sigma = gd.action.matrix
    sigma_inv = mat_inv(sigma)
    fixed = [w for w in W.elements if mat_mul(mat_mul(sigma, w.matrix), sigma_inv) == w.matrix]
    for r in range(gd.d_prime + 1):
        for I in itertools.combinations(range(gd.d_prime), r):
            roots = {i for k in I for i in gd.orbits_delta.orbits[k]}
            expected = DimPoly.zero()
            for w in fixed:
                if roots <= ascents[w]:
                    expected = expected + DimPoly.monomial(w.length)
            assert dim_induced(gd, frozenset(I)) == expected


# degrees of the basic invariants (Humphreys, Reflection Groups and Coxeter
# Groups, 3.15)
DEGREES = {
    "A": lambda n: range(2, n + 2),
    "B": lambda n: range(2, 2 * n + 1, 2),
    "C": lambda n: range(2, 2 * n + 1, 2),
    "D": lambda n: (*range(2, 2 * n - 1, 2), n),
    "G": lambda n: (2, 6),
}


def _poincare(cartan_type) -> DimPoly:
    """prod_i (q^{d_i} - 1) / (q - 1), each factor 1 + q + ... + q^{d_i - 1}."""
    coeffs = [1]
    for family, rank in cartan_type:
        for deg in DEGREES[family](rank):
            out = [0] * (len(coeffs) + deg - 1)
            for i, c in enumerate(coeffs):
                for j in range(deg):
                    out[i + j] += c
            coeffs = out
    return DimPoly(tuple(coeffs))


def test_full_flag_dimension_closed_form():
    types = {INSTANCES[name][0] for name in SPLIT_NAMES}
    types |= {(("B", 3),), (("C", 3),), (("D", 4),), (("G", 2),)}
    types |= {(("A", 5),), (("A", 6),), (("B", 4),), (("C", 4),), (("D", 5),)}
    for ctype in sorted(types):
        zero = [0] * build_root_datum(list(ctype)).ambient_dim
        gd = build_group_data(list(ctype), zero, 2)
        assert dim_induced(gd, frozenset()) == _poincare(ctype), ctype
