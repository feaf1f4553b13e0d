"""Properties of the exact elimination kernels: ``row_reduce`` over Q with its
read-offs, ``finflag.rref`` over finite fields with the annihilator reads of
intersections and containment built on it, and ``finflag``'s pairing kernel
against the per-pair oracles of ``helpers``."""

import collections
import itertools
import math
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
    field_nullspace,
    hermitian_form,
    lies_in,
    meet_dim,
    nullspace,
    pairwise_flag_points,
    solve_in_span,
)
from perdom import finflag, semistable  # noqa: E402
from perdom.finflag import (  # noqa: E402
    FlagPoint,
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
from perdom.semistable import VerifierContext  # noqa: E402
from perdom.rootdata import mat_inv, mat_mul, row_reduce  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
entries = st.integers(min_value=-3, max_value=3)


def matrices(min_rows=1, max_rows=4, min_cols=1, max_cols=5):
    return st.integers(min_rows, max_rows).flatmap(
        lambda r: st.integers(min_cols, max_cols).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
        )
    )


def square_matrices(max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def rank(rows) -> int:
    return len(row_reduce(rows)[1])


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
    rows, pivots = row_reduce(a)
    assert len(rows) == len(pivots)
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
def subspace_families(draw):
    """Random lines, planes and hyperplanes of a 2-, 3- or 4-space, as the
    chains of a points family and of a tests family."""
    t = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 4))
    element = st.integers(0, t.size - 1)

    def family():
        out = []
        for _ in range(draw(st.integers(1, 8))):
            d = draw(st.sampled_from(sorted({1, min(2, n - 1), n - 1})))
            rows = draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=d, max_size=d))
            sub = subspace_from_rows(t, rows, n)
            if sub.dim:
                out.append(FlagPoint(chain=(sub,), weights=(1, 0), n=n))
        return out

    return t, n, family(), family()


@SETTINGS
@given(subspace_families())
def test_incidence_equals_intersection_dim(case):
    t, n, points, tests = case
    ctx = VerifierContext(gd=None, m=1, tower=t, n=n, mode="split", points=points, tests=tests)
    # up to 4-space every entry is a nonzero pairing or a 2 x 2 determinant
    with mock.patch.object(semistable, "rank", wraps=semistable.rank) as ranked:
        ctx.incidence
    if n <= 4:
        assert ranked.call_count == 0
    for w, column in ctx.incidence.items():
        assert len(column) == len(ctx.point_spaces)
        for s, k in ctx.point_spaces.items():
            assert column[k] == intersection_dim(t, s, w), (s, w)
    for w, inside in ctx.test_containment.items():
        assert inside == {s for s in ctx.test_annihilators if contains(t, w, s)}


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
    weights = tuple(range(len(dims), -1, -1))
    got = enumerate_flag_points(t, n, weights, dims)
    assert got == pairwise_flag_points(make_tower(q, ext), n, weights, dims, subfield_deg=sub)
    assert finflag.FlagLevels(t, n, dims).count(dims) == len(got)


CHAMBER_CASES = [(2, 1, 1), (2, 3, 1), (2, 3, 3), (3, 1, 1), (3, 2, 1), (4, 1, 1), (5, 1, 1)]


@pytest.mark.parametrize("q,m,conj_power", CHAMBER_CASES)
def test_twisted_fixed_lines_are_the_isotropic_lines(q, m, conj_power):
    h = HermitianData(tower=make_tower(q, 2 * m), n=3)
    lines = enumerate_subspaces(h.tower, 3, 1, 2 * conj_power)
    isotropic = [s for s in lines if hermitian_form(h, s.rows[0], s.rows[0], conj_power) == 0]
    flags = enumerate_twisted_fixed_flags(h.tower, (1, 0, -1), conj_power)
    assert [x.chain[0] for x in flags] == isotropic


@pytest.mark.parametrize("q,m,conj_power", CHAMBER_CASES)
def test_chamber_planes_are_the_hermitian_perps(q, m, conj_power, monkeypatch):
    # each chamber is written in closed form, with no elimination and no
    # line of the projective plane built, and its plane equals the
    # orthogonal complement computed through the kernel of the form's row
    h = HermitianData(tower=make_tower(q, 2 * m), n=3)
    calls = []
    monkeypatch.setattr(finflag, "rref", lambda *args: calls.append(args))
    monkeypatch.setattr(finflag, "enumerate_subspaces", lambda *args: calls.append(args))
    flags = enumerate_twisted_fixed_flags(h.tower, (1, 0, -1), conj_power)
    monkeypatch.undo()
    assert not calls
    assert len(flags) == len({x.chain[0] for x in flags}) > 1
    for x in flags:
        line, plane = x.chain
        assert plane == h.perp(line, conj_power), line
        assert rref(h.tower, plane.rows)[0] == plane.rows


def test_u3_verifier_computes_each_plane_annihilator_once(monkeypatch):
    # the chamber listing shows each plane contains its line through the
    # isotropy pass, so Ann of a chamber's plane comes only from the verifier
    # context, shared between the tests and the points where both have it
    counts = collections.Counter()

    def counting(tower, sub):
        counts[sub] += 1
        return annihilator(tower, sub)

    monkeypatch.setattr(finflag, "annihilator", counting)
    monkeypatch.setattr(semistable, "annihilator", counting)
    ctx = semistable.build_verifier(helpers.instance("u3_reg"), 3)
    ctx.point_annihilators  # the cached Ann of every point plane
    planes = {x.chain[1] for x in ctx.points + ctx.tests}
    assert len(planes) == 2**9 + 1
    assert {counts[p] for p in planes} == {1}
