"""Properties of the exact elimination kernels: ``row_reduce`` over Q with its
read-offs and the reduced homology ranked by it, ``finflag.rref`` over finite
fields with the annihilator reads of intersections and containment built on
it, and ``finflag``'s pairing kernel against the per-pair oracles of
``helpers``."""

import collections
import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import helpers  # noqa: E402
from helpers import (  # noqa: E402
    _dot,
    HermitianData,
    contains,
    dense_reduced_homology,
    dense_row_reduce,
    field_nullspace,
    hermitian_form,
    lies_in,
    meet_dim,
    nullspace,
    flag_chains,
    levels_of,
    pairwise_flag_points,
    solve_in_span,
)
from perdom import finflag, semistable  # noqa: E402
from perdom.finflag import (  # noqa: E402
    annihilator,
    dots,
    enumerate_flag_points,
    enumerate_subspaces,
    enumerate_twisted_fixed_flags,
    intersection_dim,
    log_columns,
    make_tower,
    pairings,
    rank as field_rank,
    rref,
    subspace_from_rows,
)
from perdom.complex import TitsSubcomplex, reduced_homology  # noqa: E402
from perdom.semistable import FlagPoint, VerifierContext  # noqa: E402
from perdom.rootdata import mat_inv, mat_mul, row_reduce  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
entries = st.integers(min_value=-3, max_value=3)
# mostly zeros and otherwise +-1, as the boundary matrices of a complex are
sparse_entries = st.sampled_from((0, 0, 0, 1, -1))


def matrices(min_rows=1, max_rows=4, min_cols=1, max_cols=5):
    """Small integer matrices, dense or sparse with entries +-1."""
    return st.sampled_from((entries, sparse_entries)).flatmap(
        lambda e: st.integers(min_rows, max_rows).flatmap(
            lambda r: st.integers(min_cols, max_cols).flatmap(
                lambda c: st.lists(st.lists(e, min_size=c, max_size=c), min_size=r, max_size=r)
            )
        )
    )


def square_matrices(max_n=4):
    """Small square integer matrices, dense or sparse with entries +-1."""
    return st.sampled_from((entries, sparse_entries)).flatmap(
        lambda e: st.integers(1, max_n).flatmap(
            lambda n: st.lists(st.lists(e, min_size=n, max_size=n), min_size=n, max_size=n)
        )
    )


def rank(rows) -> int:
    return len(dense_row_reduce(rows)[1])


def det(m) -> int:
    """Leibniz expansion: independent of the elimination kernel."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i, j in itertools.combinations(range(n), 2) if perm[i] > perm[j])
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@SETTINGS
@given(square_matrices())
def test_mat_inv_inverts_or_rejects_singular(m):
    n = len(m)
    if det(m) == 0:
        with pytest.raises(ValueError, match="singular"):
            mat_inv(m)
    else:
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert mat_mul(mat_inv(m), m) == identity


@SETTINGS
@given(matrices())
def test_row_rank_equals_column_rank(a):
    assert rank(a) == rank([list(col) for col in zip(*a)])


@SETTINGS
@given(matrices())
def test_reduced_rows_are_echelon_with_unit_pivots(a):
    # the kernel's own rows, by their nonzero entries, and their dense view
    sparse = row_reduce({j: x for j, x in enumerate(r) if x} for r in a)
    assert all(type(x) is Fraction and x for row in sparse.values() for x in row.values())
    rows, pivots = dense_row_reduce(a)
    assert len(rows) == len(pivots)
    assert all(type(x) is Fraction for row in rows for x in row)
    assert pivots == sorted(set(pivots))
    for r, p in enumerate(pivots):
        assert [row[p] for row in rows] == [int(i == r) for i in range(len(rows))]
        assert all(x == 0 for x in rows[r][:p])


@SETTINGS
@given(matrices())
def test_nullspace_is_orthogonal_complement(a):
    ncols = len(a[0])
    basis = nullspace(a, ncols)
    assert len(basis) == ncols - rank(a)
    assert all(dot(row, v) == 0 for row in a for v in basis)
    assert rank(basis) == len(basis)


def test_nullspace_of_no_rows_is_the_standard_basis():
    assert nullspace([], 2) == ((1, 0), (0, 1))


@SETTINGS
@given(matrices(max_rows=3, min_cols=2), st.lists(entries, min_size=3, max_size=3))
def test_solve_in_span_reproduces_target(vectors, coeffs):
    coeffs = coeffs[: len(vectors)]
    if rank(vectors) < len(vectors):
        with pytest.raises(ValueError, match="dependent"):
            solve_in_span(vectors, vectors[0])
        return
    target = [dot(coeffs, col) for col in zip(*vectors)]
    assert solve_in_span(vectors, target) == tuple(coeffs)
    # off the span: add a nonzero vector orthogonal to every given vector
    for w in nullspace(vectors, len(vectors[0])):
        assert solve_in_span(vectors, [t + x for t, x in zip(target, w)]) is None


@st.composite
def face_closed_complexes(draw):
    """The downward closure of up to 6 random subsets of range(6), its
    vertices renumbered in order and its simplices sorted per dimension."""
    tops = draw(st.lists(st.frozensets(st.integers(0, 5), min_size=1), min_size=1, max_size=6))
    faces = {f for top in tops for k in range(1, len(top) + 1) for f in itertools.combinations(sorted(top), k)}
    vertices = sorted(v for (v,) in (f for f in faces if len(f) == 1))
    index = {v: i for i, v in enumerate(vertices)}
    simplices = tuple(
        tuple(sorted(tuple(index[v] for v in f) for f in faces if len(f) == k))
        for k in range(1, max(map(len, faces)) + 1)
    )
    return TitsSubcomplex(vertex_keys=tuple(vertices), simplices=simplices)


@SETTINGS
@given(face_closed_complexes())
def test_reduced_homology_equals_the_dense_oracle(c):
    assert reduced_homology(c) == dense_reduced_homology(c.simplices)


# ---------------------------------------------------------------------------
# rref over F_2, F_4, F_3 and F_9

FIELDS = [make_tower(q, 1) for q in (2, 4, 3, 9)]


@st.composite
def field_matrices(draw):
    t = draw(st.sampled_from(FIELDS))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    element = st.integers(0, t.size - 1)
    row = st.lists(element, min_size=ncols, max_size=ncols)
    return t, draw(st.lists(row, min_size=nrows, max_size=nrows))


@SETTINGS
@given(field_matrices())
def test_rref_is_echelon_with_unit_pivots(case):
    t, a = case
    rows, pivots = rref(t, a)
    assert len(rows) == len(pivots)
    assert list(pivots) == sorted(set(pivots))
    for r, p in enumerate(pivots):
        assert [row[p] for row in rows] == [int(i == r) for i in range(len(rows))]
        assert all(x == 0 for x in rows[r][:p])


@SETTINGS
@given(field_matrices())
def test_rref_spans_every_input_row(case):
    t, a = case
    rows, pivots = rref(t, a)
    for v in a:
        # in the span exactly when v is the combination read off its pivot entries
        combo = [0] * len(v)
        for row, p in zip(rows, pivots):
            combo = [t.add(c, t.mul(v[p], x)) for c, x in zip(combo, row)]
        assert combo == list(v)


@SETTINGS
@given(field_matrices())
def test_rref_is_idempotent(case):
    t, a = case
    once = rref(t, a)
    assert rref(t, once[0]) == once


@SETTINGS
@given(field_matrices())
def test_rref_rank_equals_rank_of_transpose(case):
    t, a = case
    assert len(rref(t, a)[0]) == len(rref(t, [list(col) for col in zip(*a)])[0])


@st.composite
def subspace_pairs(draw):
    t = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    element = st.integers(0, t.size - 1)

    def subspace():
        rows = draw(st.lists(st.lists(element, min_size=n, max_size=n), max_size=n))
        return subspace_from_rows(t, rows, n)

    return t, subspace(), subspace()


@SETTINGS
@given(subspace_pairs())
def test_meet_dim_from_annihilator_equals_intersection_dim(case):
    t, s, w = case
    s_ann, w_ann = annihilator(t, s), annihilator(t, w)
    assert len(w_ann) == w.ncols - w.dim
    assert meet_dim(t, s, s_ann, w, w_ann) == intersection_dim(t, s, w)
    assert lies_in(t, s, w_ann) == contains(t, w, s)


# (ambient dimension, dim S, dim W): lines and hyperplanes in 3- and 4-space,
# read without elimination, and planes in 4-space, which fall back to ``rank``
MEET_SHAPES = [
    (3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2),
    (4, 1, 1), (4, 1, 3), (4, 3, 1), (4, 3, 3), (4, 2, 2),
]


@pytest.mark.parametrize("q", [2, 4, 3])
@pytest.mark.parametrize("n,ds,dw", MEET_SHAPES)
def test_meet_dim_reads_lines_and_hyperplanes_without_rank(monkeypatch, q, n, ds, dw):
    t = make_tower(q, 1)
    ranked = []
    original_rank = helpers.rank
    monkeypatch.setattr(helpers, "rank", lambda *args: ranked.append(1) or original_rank(*args))
    s_side = [(s, annihilator(t, s)) for s in enumerate_subspaces(t, n, ds)]
    w_side = [(w, annihilator(t, w)) for w in enumerate_subspaces(t, n, dw)]
    w_side = w_side[:: max(1, len(w_side) // 40)]  # every S against up to ~40 W
    for s, s_ann in s_side:
        for w, w_ann in w_side:
            del ranked[:]
            got = meet_dim(t, s, s_ann, w, w_ann)
            assert bool(ranked) == ((n, ds, dw) == (4, 2, 2))
            assert got == intersection_dim(t, s, w), (s, w)
            # a line's annihilator is never read
            if ds == 1:
                assert meet_dim(t, s, None, w, w_ann) == got


# ---------------------------------------------------------------------------
# the pairing kernel against one dot product per pair


@st.composite
def vector_families(draw):
    t = draw(st.sampled_from(FIELDS))
    n, size = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    # zero entries often, so that zero times zero comes up in ``dots``
    element = st.one_of(st.just(0), st.integers(0, t.size - 1))
    vector = st.lists(element, min_size=n, max_size=n)
    return t, draw(vector), draw(st.lists(vector, min_size=size, max_size=size)), draw(
        st.lists(vector, min_size=size, max_size=size)
    )


@SETTINGS
@given(vector_families())
def test_pairings_and_dots_equal_one_dot_per_pair(case):
    t, a, us, vs = case
    if any(a):
        assert list(pairings(t, a, log_columns(t, vs))) == [_dot(t, a, v) for v in vs]
    assert list(dots(t, log_columns(t, us), log_columns(t, vs))) == [_dot(t, u, v) for u, v in zip(us, vs)]


@SETTINGS
@given(subspace_pairs())
def test_annihilator_is_a_basis_of_the_nullspace(case):
    t, w, _ = case
    ann = annihilator(t, w)
    assert len(ann) == w.ncols - w.dim
    assert field_rank(t, ann) == len(ann)
    assert lies_in(t, w, ann)
    assert rref(t, ann)[0] == field_nullspace(t, w.rows, w.ncols)


@st.composite
def pairing_matrices(draw):
    """k nonzero vectors and a family of members of m rows each, k, m <= 4:
    each member pairs to a k x m matrix, and its rows may be zero."""
    t = draw(st.sampled_from(FIELDS))
    n, k, m = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    element = st.one_of(st.just(0), st.integers(0, t.size - 1))
    vector = st.lists(element, min_size=n, max_size=n)
    vectors = draw(st.lists(vector.filter(any), min_size=k, max_size=k))
    members = draw(st.lists(st.lists(vector, min_size=m, max_size=m), min_size=1, max_size=6))
    return t, vectors, members


@SETTINGS
@given(pairing_matrices())
def test_pairing_ranks_equal_the_rank_of_each_pairing_matrix(case):
    # over F_3 and F_9 the signs of the minors' expansion matter
    t, vectors, members = case
    ranks = finflag.pairing_ranks(t, vectors, finflag.row_families(t, members))
    assert list(ranks) == [field_rank(t, [[_dot(t, a, r) for a in vectors] for r in rows]) for rows in members]


@st.composite
def subspace_families(draw):
    """Random subspaces of dimension 1 to 3 of a 2- to 6-space, as the
    one-subspace chains of a points family and of a tests family."""
    t = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 6))
    element = st.integers(0, t.size - 1)

    def family():
        out = []
        for _ in range(draw(st.integers(1, 8))):
            d = draw(st.integers(1, min(3, n - 1)))
            rows = draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=d, max_size=d))
            sub = subspace_from_rows(t, rows, n)
            if sub.dim:
                out.append((sub,))
        return out

    return t, n, family(), [FlagPoint(chain=c, weights=(1, 0), n=n) for c in family()]


@SETTINGS
@given(subspace_families())
def test_incidence_equals_intersection_dim(case):
    t, n, points, tests = case
    # the incidence reads the two families of subspaces, not the points
    lattice = levels_of(t, (f.chain[0] for f in tests))
    ctx = VerifierContext(gd=None, m=1, tower=t, n=n, mode="split", weights=(1, 0),
                          point_levels=levels_of(t, (s for (s,) in points)), points=[],
                          tests=helpers.position_tests(lattice, tests), lattice=lattice)
    point_spaces = [s for level in ctx.point_levels.levels.values() for s in level]
    assert set(point_spaces) == {s for (s,) in points}
    # every entry is read from the minors of S . Ann(W)^T or W . Ann(S)^T,
    # a 3-space against a 3-space of 6-space from 3 x 3 ones, with no rank
    with mock.patch.object(finflag, "rank", wraps=finflag.rank) as ranked, \
            mock.patch.object(semistable, "rank", wraps=semistable.rank) as ranked_here:
        ctx.incidence
    incidence = helpers.incidence_by_subspace(ctx)
    assert ranked.call_count == ranked_here.call_count == 0
    assert set(ctx.incidence) == {chain[0] for chain, _ in ctx.tests}
    assert set(incidence) == {f.chain[0] for f in tests}
    for w, columns in incidence.items():
        assert sum(map(len, columns)) == len(point_spaces)
        for column, level in zip(columns, ctx.point_levels.levels.values(), strict=True):
            for k, s in enumerate(level):
                assert column[k] == intersection_dim(t, s, w), (s, w)


# (q, extension degree, n): F_q inside F_(q^m), with q = 4 not prime
LATTICE_CASES = [(2, 2, 3), (2, 3, 3), (3, 2, 3), (4, 2, 3), (2, 2, 4)]


@pytest.mark.parametrize("q,m,n", LATTICE_CASES)
def test_rational_lattice_inclusions_equal_the_pairwise_rank(q, m, n):
    t = make_tower(q, m)
    lattice = finflag.subspace_levels(t, n, range(1, n), subfield_deg=1)
    for lo, hi in itertools.combinations(range(1, n), 2):
        expected = [
            [j for j, w in enumerate(lattice.levels[hi]) if contains(t, w, s)]
            for s in lattice.levels[lo]
        ]
        assert lattice.above(lo, hi) == expected, (lo, hi)
    for d, level in lattice.levels.items():
        assert len(level) == finflag.gaussian_binomial(n, d, q)
        assert all(lattice.position[s] == k for k, s in enumerate(level))


# (n, proper dimensions, q, extension degree, subfield degree)
FLAG_CASES = [
    (3, (1, 2), 2, 1, None),
    (3, (1, 2), 3, 1, None),
    (3, (1,), 4, 1, None),
    (3, (1, 2), 2, 2, 1),
    (3, (1, 2), 2, 2, None),
    (4, (1, 3), 2, 1, None),
    (4, (2,), 3, 1, None),
    (4, (1, 2, 3), 2, 1, None),
    (4, (2, 3), 3, 1, None),
    (4, (1, 2), 3, 2, 1),
    (5, (2, 4), 2, 1, None),
]


@pytest.mark.parametrize("n,dims,q,ext,sub", FLAG_CASES)
def test_flag_points_equal_the_pairwise_filter(n, dims, q, ext, sub):
    # with a subfield degree, the flags over F_q are enumerated in F_q itself
    # and filtered over F_q inside F_(q^ext): q is prime, so F_q's elements
    # are the same integers in both
    t = make_tower(q, sub or ext)
    levels = finflag.subspace_levels(t, n, dims)
    got = flag_chains(levels, enumerate_flag_points(levels, n, dims))
    assert got == pairwise_flag_points(make_tower(q, ext), n, dims, subfield_deg=sub)
    assert finflag.subspace_levels(t, n, dims).count(dims) == len(got)


CHAMBER_CASES = [(2, 1, 1), (2, 3, 1), (2, 3, 3), (3, 1, 1), (3, 2, 1), (4, 1, 1), (5, 1, 1)]


@pytest.mark.parametrize("q,m,conj_power", CHAMBER_CASES)
def test_twisted_fixed_lines_are_the_isotropic_lines(q, m, conj_power):
    h = HermitianData(tower=make_tower(q, 2 * m), n=3)
    lines = enumerate_subspaces(h.tower, 3, 1, 2 * conj_power)
    isotropic = [s for s in lines if hermitian_form(h, s.rows[0], s.rows[0], conj_power) == 0]
    flags = flag_chains(*enumerate_twisted_fixed_flags(h.tower, conj_power))
    assert [line for line, _ in flags] == isotropic


@pytest.mark.parametrize("q,m,conj_power", CHAMBER_CASES)
def test_chamber_planes_are_the_hermitian_perps(q, m, conj_power, monkeypatch):
    # each chamber is written in closed form, with no elimination and no
    # line of the projective plane built, and its plane equals the
    # orthogonal complement computed through the kernel of the form's row
    h = HermitianData(tower=make_tower(q, 2 * m), n=3)
    calls = []
    monkeypatch.setattr(finflag, "rref", lambda *args: calls.append(args))
    monkeypatch.setattr(finflag, "enumerate_subspaces", lambda *args: calls.append(args))
    levels, chambers = enumerate_twisted_fixed_flags(h.tower, conj_power)
    monkeypatch.undo()
    assert not calls
    assert chambers == [(k, k) for k in range(len(chambers))]
    flags = flag_chains(levels, chambers)
    assert len(flags) == len({line for line, _ in flags}) > 1
    for line, plane in flags:
        assert plane == h.perp(line, conj_power), line
        assert rref(h.tower, plane.rows)[0] == plane.rows
    # the planes' annihilators, written from the isotropy pass's rows, are
    # those ``annihilator`` reads off each plane's echelon rows
    assert levels.annihilators(2) == [annihilator(h.tower, plane) for _, plane in flags]


def test_u3_verifier_computes_each_plane_annihilator_once(monkeypatch):
    # the chamber listing writes each plane's annihilator from its isotropy
    # pass, so no chamber plane, of the points or of the tests, goes
    # through ``annihilator``, and the levels' rows are its
    counts = collections.Counter()

    def counting(tower, sub):
        counts[sub] += 1
        return annihilator(tower, sub)

    monkeypatch.setattr(finflag, "annihilator", counting)
    ctx = semistable.build_verifier(helpers.instance("u3_reg"), 3)
    ctx.incidence  # reads the Ann of every point plane and test subspace
    monkeypatch.undo()
    planes = {x[1] for x in helpers.point_chains(ctx)} | {t.chain[1] for t in helpers.rational_filtrations(ctx)}
    assert len(planes) == 2**9 + 1
    assert {counts[p] for p in planes} == {0}
    for levels in (ctx.point_levels, ctx.lattice):
        assert levels.annihilators(2) == [annihilator(ctx.tower, p) for p in levels.levels[2]]
