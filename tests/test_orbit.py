"""The orbit engine against the enumerated Weyl group, and closed forms.

The engine reads everything from W-orbits of dominant coweights.  The matrix
path (``generate_weyl``, ``stabilizer_w_mu``, ``kostant_reps``, the Galois
generator acting on W by relabelling reduced words, minimal coset
representatives by length) is kept as the oracle it must agree with exactly,
words and lengths included.
"""

import itertools

import pytest

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
)
from perdom.cohom import DimPoly, build_group_data, dim_induced, dim_v
from perdom.rootdata import (
    build_root_datum,
    pairing,
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


def _twist_map(W, image):
    """w -> sigma w sigma^-1 on all of W, for sigma = ``image`` as a permutation
    of the simple roots: the reduced word s_i1 ... s_ik of w becomes
    s_sigma(i1) ... s_sigma(ik).  Each word extends a shorter one in front."""
    reflections = [W.by_matrix[simple_reflection_matrix(W.datum, i)] for i in range(W.datum.rank)]
    by_word = {(): W.elements[0]}
    for w in W.elements[1:]:
        by_word[w.word] = W.multiply(reflections[image[w.word[0]]], by_word[w.word[1:]])
    return {w: by_word[w.word] for w in W.elements}


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_sign_rows_give_the_sign_of_the_pairing(name):
    # against <w mu, omega_J>, and against (w mu, orbit coweight) for the
    # invariant form and a rescaling of it on every factor
    gd = _instance(name)
    scales = range(2, 2 + len(gd.datum.cartan_type))
    grams = (invariant_gram(gd.datum), invariant_gram(gd.datum, scales))
    for k in range(gd.d_prime):
        weight = orbit_weight(gd, k)
        coweights = [form_dual(gram, weight) for gram in grams]
        for p in gd.mu_orbit:
            sign = _sign(gd.scaled_pairing(p, k))
            vec = orbit_vec(gd, p)
            assert sign == _sign(pairing(vec, weight)), (p, k)
            for gram, w in zip(grams, coweights):
                assert sign == _sign(form_value(gram, vec, w)), (p, k)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_steinberg_identity_as_a_polynomial(name):
    gd = _instance(name)
    assert dim_v(gd, frozenset()) == DimPoly((0,) * num_positive_roots(gd.datum.cartan_type) + (1,))


@pytest.fixture(scope="module", params=ORACLE_NAMES)
def oracle(request):
    gd = _instance(request.param)
    W = generate_weyl(gd.datum)
    return gd, W, kostant_reps(W, stabilizer_w_mu(W, gd.mu))


def _labels(gd, v):
    return tuple(pairing(v, alpha) for alpha in gd.datum.simple_roots)


def test_orbit_points_are_kostant_images(oracle):
    gd, _, reps = oracle
    assert [(p.word, p.labels, p.length) for p in gd.mu_orbit] == [
        (w.word, _labels(gd, act(w, gd.mu)), w.length) for w in reps
    ]


def test_reflex_orbits_match_conjugation(oracle):
    gd, W, reps = oracle
    conjugate = _twist_map(W, gd.action.power(gd.e_degree))
    expected = set()
    for w in reps:
        members = [w]
        while (conj := conjugate[members[-1]]) != w:
            members.append(conj)
        expected.add(frozenset(act(m, gd.mu).coords for m in members))
    got = {frozenset(orbit_vec(gd, m).coords for m in o.members) for o in gd.worbits}
    assert got == expected
    for o in gd.worbits:
        assert o.size == len(o.members) == len({orbit_vec(gd, m) for m in o.members})
        assert o.rep == min(o.members, key=lambda m: (m.length, m.word))


def test_dim_induced_counts_fixed_minimal_coset_reps(oracle):
    gd, W, _ = oracle
    d = gd.datum
    reflections = [W.by_matrix[simple_reflection_matrix(d, i)] for i in range(d.rank)]
    ascents = {w: {i for i, s in enumerate(reflections) if W.multiply(w, s).length > w.length}
               for w in W.elements}
    conjugate = _twist_map(W, gd.action.perm)
    fixed = [w for w in W.elements if conjugate[w] == w]
    for r in range(gd.d_prime + 1):
        for I in itertools.combinations(range(gd.d_prime), r):
            roots = {i for k in I for i in gd.orbits_delta.orbits[k]}
            expected = DimPoly(())
            for w in fixed:
                if roots <= ascents[w]:
                    expected = expected + DimPoly((0,) * w.length + (1,))
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
