"""Field towers, subspace enumeration, flags, Hermitian structure."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import (
    HermitianData,
    WalkedTower,
    contains,
    field_nullspace,
    flag_chains,
    find_irreducible_by_lists,
    frobenius_point,
    frobenius_subspace,
    hermitian_form,
    instance,
    is_k_rational,
    subspaces_by_cells,
    time_limit,
    zech_sub,
)
from perdom.finflag import (
    Subspace,
    _factor_prime_power,
    _find_irreducible,
    enumerate_flag_points,
    enumerate_subspaces,
    enumerate_twisted_fixed_flags,
    gaussian_binomial,
    intersection_dim,
    make_tower,
    rank,
    rref,
    subspace_from_rows,
    subspace_levels,
)
from perdom.rootdata import BudgetError
from perdom.semistable import FlagPoint, build_verifier, mu_flag_type


EXHAUSTIVE_FIELDS = ((2, 2), (3, 1), (2, 3), (3, 2), (4, 2), (5, 2), (3, 3), (2, 6))


def test_field_axioms_exhaustive_up_to_64():
    # full associativity/distributivity sweep for orders up to 64
    for q, m in EXHAUSTIVE_FIELDS:
        t = make_tower(q, m)
        els = list(t.elements)
        for a, b, c in itertools.product(els, repeat=3):
            assert t.add(a, t.add(b, c)) == t.add(t.add(a, b), c)
            assert t.mul(a, t.mul(b, c)) == t.mul(t.mul(a, b), c)
            assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))
        for a in els:
            assert t.add(a, 0) == a and t.mul(a, 1) == a
            assert t.add(a, t.neg(a)) == 0
            if a:
                assert t.mul(a, t.inv(a)) == 1


def digit_reference(t, x, y, sign):
    """x + sign * y by decoding both into base-p digits, combining them mod p
    and encoding the result again."""
    def digits(z):
        return [z // t.p**i % t.p for i in range(t.degree)]

    return sum((a + sign * b) % t.p * t.p**i for i, (a, b) in enumerate(zip(digits(x), digits(y))))


def check_add_sub_neg(t, pairs):
    for x, y in pairs:
        assert t.add(x, y) == digit_reference(t, x, y, 1)
        assert t.sub(x, y) == digit_reference(t, x, y, -1)
    for x in {x for pair in pairs for x in pair}:
        assert t.neg(x) == digit_reference(t, 0, x, -1)


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81])
def test_sub_equals_the_zech_subtraction(q):
    # sub adds the negative; the reference reads x - y from Zech's table alone
    t = make_tower(q, 1)
    assert all(t.sub(x, y) == zech_sub(t, x, y) for x in t.elements for y in t.elements)


def test_add_sub_neg_match_digit_reference_exhaustive():
    for q, m in EXHAUSTIVE_FIELDS:
        t = make_tower(q, m)
        check_add_sub_neg(t, list(itertools.product(t.elements, repeat=2)))


@pytest.mark.parametrize("q,m", [(2, 10), (3, 5), (5, 3)])
def test_add_sub_neg_match_digit_reference_sampled(q, m):
    t = make_tower(q, m)
    rng = random.Random(q * 100 + m)
    check_add_sub_neg(t, [(rng.randrange(t.size), rng.randrange(t.size)) for _ in range(2000)])


def table_entries(value) -> int:
    """Entries of a container, nested containers counted in full."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return len(value) + sum(table_entries(v) for v in value)
    return 0


def test_field_tables_are_linear_in_size():
    t = make_tower(2, 10)
    for j in (1, 2, 5, 10):
        t.subfield(j)  # fill the lazily built subfield cache too
    tables = [v for v in vars(t).values() if table_entries(v)]
    for v in tables:
        if isinstance(v, (list, tuple)):
            assert not any(isinstance(x, (list, tuple, dict, set, frozenset)) for x in v)
    assert sum(table_entries(v) for v in tables) <= 6 * t.size


# 21 fields over q = 2, 3, 4, 5, 7, 8, 9, 11, 25, 27 and 125, up to 4,096
# elements; the odd ones are walked as digit vectors by the tower
WALKED_FIELDS = ((2, 2), (2, 5), (2, 8), (2, 9), (2, 10), (2, 12), (3, 3), (3, 6), (4, 3),
                 (5, 2), (5, 4), (7, 2), (7, 3), (8, 2), (8, 4), (9, 2), (9, 3), (11, 2), (25, 2),
                 (27, 2), (125, 1))


@pytest.mark.parametrize("q,m", WALKED_FIELDS)
def test_primitive_element_matches_the_walk_over_every_candidate(q, m):
    # every report reads its field through these tables, so the order test
    # must pick the same g as the walk, with the same powers
    t, walked = make_tower(q, m), WalkedTower(q, m)
    assert t._exp == walked._exp
    assert t._log == walked._log
    assert getattr(t, "_zech", None) == getattr(walked, "_zech", None)


@pytest.mark.parametrize("p,degrees", [(2, range(1, 17)), (3, range(1, 8)), (5, range(1, 5)), (7, range(1, 4))])
def test_irreducible_search_matches_the_list_search(p, degrees):
    # the modulus fixes every element's encoding, so the carry-less search
    # for p = 2 must stop at the same tail as the list-based one
    for n in degrees:
        assert _find_irreducible(p, n) == find_irreducible_by_lists(p, n), (p, n)


# m up to 6 while the field has at most 10,000 elements: 9^5 and 9^6 are
# left out, the fixed points being read by one Frobenius per element
SUBFIELD_TOWERS = [(q, m) for q in (2, 3, 4, 9) for m in range(1, 7) if q**m <= 10**4]


@pytest.mark.parametrize("q,m", SUBFIELD_TOWERS)
def test_subfield_is_the_fixed_field_of_the_frobenius_power(q, m):
    # frob^j fixes F_(q^gcd(j, m)), which for j past m or prime to it is not
    # F_(q^j)
    t = make_tower(q, m)
    for j in range(1, 2 * m + 1):
        fixed = frozenset(x for x in range(t.size) if t.frobenius(x, j) == x)
        assert t.subfield(j) == fixed, (q, m, j)
        assert len(fixed) == q ** math.gcd(j, m)


def test_field_axioms_sampled_f125():
    t = make_tower(5, 3)
    rng = random.Random(3)
    for _ in range(600):
        a, b, c = (rng.randrange(t.size) for _ in range(3))
        assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))
        assert t.mul(a, t.mul(b, c)) == t.mul(t.mul(a, b), c)


def test_frobenius_fixed_field_sizes():
    for q, m in ((2, 2), (2, 3), (3, 2), (4, 3), (5, 3)):
        t = make_tower(q, m)
        assert len(t.subfield(1)) == q
        assert len(t.subfield(m)) == t.size


def test_frobenius_is_field_automorphism():
    t = make_tower(4, 2)
    rng = random.Random(5)
    for _ in range(100):
        a, b = rng.randrange(t.size), rng.randrange(t.size)
        assert t.frobenius(t.add(a, b)) == t.add(t.frobenius(a), t.frobenius(b))
        assert t.frobenius(t.mul(a, b)) == t.mul(t.frobenius(a), t.frobenius(b))


def test_subspace_counts():
    assert len(enumerate_subspaces(make_tower(2, 1), 3, 1)) == 7
    assert len(enumerate_subspaces(make_tower(4, 1), 2, 1)) == 5
    assert len(enumerate_subspaces(make_tower(3, 1), 3, 2)) == 13


# (q, m, n, subfield degree): each listing in full and, with a subfield
# degree, the subspaces over the subfield
SUBSPACE_CASES = [(2, 1, n, None) for n in range(1, 6)] + [
    (3, 1, 4, None), (4, 1, 3, None), (2, 2, 4, None), (2, 2, 4, 1), (3, 2, 3, 1),
    (2, 3, 3, 1), (4, 2, 3, 1), (2, 4, 3, 2), (9, 1, 3, None), (2, 6, 3, 3),
]


@pytest.mark.parametrize("q,m,n,sub", SUBSPACE_CASES)
def test_subspaces_match_the_per_cell_listing(q, m, n, sub):
    # same subspaces in the same order, since reports print point indices
    t = make_tower(q, m)
    for d in range(n + 1):
        got = enumerate_subspaces(t, n, d, sub)
        assert got == subspaces_by_cells(t, n, d, sub), (q, m, n, d, sub)
        assert all(type(s) is Subspace for s in got)


def test_subspace_budget():
    # the verifier refuses the first level of rational subspaces past the
    # budget, the 7 lines of F_2^3, before it enumerates any
    with pytest.raises(BudgetError, match="^7 subspaces exceed budget 5$"):
        build_verifier(instance("a2_central"), 1, budget=5)


def test_rational_subspaces_count_matches_base_field():
    t = make_tower(2, 2)
    rational = enumerate_subspaces(t, 3, 1, subfield_deg=1)
    assert len(rational) == gaussian_binomial(3, 1, 2) == 7
    assert all(is_k_rational(s, t) for s in rational)


def test_rationality_examples():
    t = make_tower(2, 2)
    e1 = subspace_from_rows(t, [[1, 0, 0]], 3)
    assert is_k_rational(e1, t)
    gen = next(x for x in t.elements if x not in t.subfield(1))
    crooked = subspace_from_rows(t, [[1, gen]], 2)
    assert not is_k_rational(crooked, t)
    # rationality is the same as Frobenius stability
    assert frobenius_subspace(t, e1) == e1
    assert frobenius_subspace(t, crooked) != crooked


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3)])
def test_frobenius_subspace_keeps_the_echelon_form(q, m):
    # every subspace of F_4^3 and F_8^3, at every power of x -> x^q
    t = make_tower(q, m)
    for d in range(4):
        for sub in enumerate_subspaces(t, 3, d):
            for times in range(m + 1):
                rows = [[t.frobenius(x, times) for x in row] for row in sub.rows]
                assert frobenius_subspace(t, sub, times) == subspace_from_rows(t, rows, 3)


def test_canonicalization_idempotent():
    t = make_tower(3, 1)
    rows = [[1, 2, 0], [2, 1, 1]]
    once, _ = rref(t, rows)
    twice, _ = rref(t, once)
    assert once == twice


def test_rank_and_intersection():
    t = make_tower(2, 1)
    a = subspace_from_rows(t, [[1, 0, 0], [0, 1, 0]], 3)
    b = subspace_from_rows(t, [[0, 1, 0], [0, 0, 1]], 3)
    assert intersection_dim(t, a, b) == 1
    assert rank(t, list(a.rows) + list(b.rows)) == 3
    assert contains(t, a, subspace_from_rows(t, [[1, 1, 0]], 3))


@pytest.mark.parametrize("q,expected", [(2**31 - 1, (2**31 - 1, 1)), (2**40, (2, 40)), (3**19, (3, 19))])
def test_factor_prime_power(q, expected):
    assert _factor_prime_power(q) == expected


@pytest.mark.parametrize("q", [6, 1, 0, -4])
def test_factor_prime_power_rejects_non_prime_powers(q):
    with pytest.raises(ValueError, match="not a prime power"):
        _factor_prime_power(q)


# trial division up to sqrt(q) would not end on 2^61 - 1 or (2^31 - 1)^2
@pytest.mark.parametrize("q,expected", [
    (2**61 - 1, (2**61 - 1, 1)),
    ((2**31 - 1) ** 2, (2**31 - 1, 2)),
    (2**100, (2, 100)),
])
def test_factor_prime_power_of_large_primes_is_fast(q, expected):
    with time_limit(0.5):
        assert _factor_prime_power(q) == expected


def test_factor_prime_power_rejects_a_product_of_large_primes_fast():
    with time_limit(0.5), pytest.raises(ValueError, match="not a prime power"):
        _factor_prime_power((2**31 - 1) * (2**61 - 1))


def test_factor_prime_power_refuses_a_base_it_cannot_prove_prime():
    # the least strong pseudoprime to the first 13 prime bases, and a prime above it
    for q in (3317044064679887385961981, 2**89 - 1):
        with time_limit(0.5), pytest.raises(ValueError, match="cannot prove"):
            _factor_prime_power(q)


def test_nullspace_dimension():
    t = make_tower(2, 2)
    rows = [[1, 0, 1]]
    ker = field_nullspace(t, rows, 3)
    assert len(ker) == 2
    for v in ker:
        assert t.add(v[0], v[2]) == 0


def test_mu_flag_type():
    weights, dims = mu_flag_type([1, 0, -1])
    assert weights == (1, 0, -1) and dims == (1, 2)
    weights, dims = mu_flag_type([2, -1, -1])
    assert dims == (1,)
    weights, dims = mu_flag_type([0, 0, 0])
    assert dims == ()


def test_flag_counts():
    t2 = make_tower(2, 1)
    _, dims = mu_flag_type([1, 0, -1])
    assert len(enumerate_flag_points(subspace_levels(t2, 3, dims), 3, dims)) == 21
    _, dims = mu_flag_type([2, -1, -1])
    assert len(enumerate_flag_points(subspace_levels(t2, 3, dims), 3, dims)) == 7
    t4 = make_tower(4, 1)
    _, dims = mu_flag_type([1, -1])
    assert len(enumerate_flag_points(subspace_levels(t4, 2, dims), 2, dims)) == 5


def test_frobenius_point_cycles_divide_m():
    t = make_tower(2, 3)
    _, dims = mu_flag_type([1, -1])
    levels = subspace_levels(t, 2, dims)
    points = flag_chains(levels, enumerate_flag_points(levels, 2, dims))
    index = {x: i for i, x in enumerate(points)}
    for x in points:
        cur = x
        length = 0
        while True:
            cur = frobenius_point(cur, t)
            length += 1
            assert cur in index
            if cur == x:
                break
        assert 3 % length == 0
    # m-fold application is the identity
    for x in points:
        cur = x
        for _ in range(3):
            cur = frobenius_point(cur, t)
        assert cur == x


def test_flag_point_rejects_malformed_flags():
    t = make_tower(2, 1)
    line = subspace_from_rows(t, [[1, 0, 0]], 3)
    plane = subspace_from_rows(t, [[1, 0, 0], [0, 1, 0]], 3)
    full = subspace_from_rows(t, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    w = tuple(Fraction(a) for a in (1, 0, -1))
    FlagPoint(chain=(line, plane), weights=w, n=3)
    FlagPoint(chain=(), weights=(Fraction(0),), n=3)
    bad = [
        ((line,), w),  # one subspace per weight but the last
        ((line, plane), (w[0], w[2], w[1])),  # weights must decrease
        ((plane, line), w),  # dimensions must increase
        ((line, full), w),  # the whole space is not a chain step
        ((line, subspace_from_rows(t, [[1, 0]], 2)), w),  # one ambient space
    ]
    for chain, weights in bad:
        with pytest.raises(ValueError):
            FlagPoint(chain=chain, weights=weights, n=3)


def test_twisted_fixed_flags_over_a_subfield_are_the_rational_chambers():
    # one step of the twisted Frobenius fixes the flags over the degree-2
    # subfield: q^3 + 1 chambers inside every tower F_{q^2m}.  At m = 1 these
    # are also the verifier's points (conj_power = m over the whole tower), so
    # (3, 1) checks the odd-q point path; test_semistable covers q = 2, m = 1, 2, 3
    for q, m in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        h = HermitianData(tower=make_tower(q, 2 * m), n=3)
        chambers = flag_chains(*enumerate_twisted_fixed_flags(h.tower, conj_power=1))
        assert len(chambers) == q**3 + 1
        assert all(h.is_fixed(x, 1) for x in chambers)
        assert all(contains(h.tower, plane, line) for line, plane in chambers)


def test_hermitian_form_and_perp():
    t = make_tower(2, 2)
    h = HermitianData(tower=t, n=3)
    e1 = subspace_from_rows(t, [[1, 0, 0]], 3)
    assert hermitian_form(h, [1, 0, 0], [1, 0, 0]) == 0  # isotropic
    perp = h.perp(e1)
    assert perp.dim == 2 and contains(t, perp, e1)


def test_twisted_frobenius_squares_to_plain():
    t = make_tower(2, 2)
    h = HermitianData(tower=t, n=3)
    _, dims = mu_flag_type([1, 0, -1])
    levels = subspace_levels(t, 3, dims)
    for x in flag_chains(levels, enumerate_flag_points(levels, 3, dims))[:40]:
        twice = h.twisted_frobenius(h.twisted_frobenius(x))
        plain2 = frobenius_point(frobenius_point(x, t), t)
        assert twice == plain2


def test_hermitian_nondegenerate():
    t = make_tower(3, 2)
    h = HermitianData(tower=t, n=3)
    full = subspace_from_rows(t, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert h.perp(full).dim == 0


def test_intersection_dim_matches_rank_of_union():
    # includes the zero space and the full space, which take the shortcut
    for q in (2, 3):
        t = make_tower(q, 1)
        subs = [s for d in range(4) for s in enumerate_subspaces(t, 3, d)]
        for a, b in itertools.product(subs, repeat=2):
            expected = a.dim + b.dim - rank(t, list(a.rows) + list(b.rows))
            assert intersection_dim(t, a, b) == expected
