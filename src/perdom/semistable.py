"""Semistability oracle and stratification checks by brute-force enumeration.

This is the one module that knows the brute-force model: the towers, the
points and tests, the rational flag counts and the cell checks.  It also
holds every budget check of the model, each made before its enumeration;
``finflag`` enumerates whatever it is asked.  A point is
semistable when its weighted flag pairs non-negatively against every
rational test filtration: the rational subspaces for split SL_n, the
rational chambers for quasi-split U_3.  Points and tests alike are
``FlagPoint``s: a chain of proper subspaces with its decreasing weights.

Every point is paired with every test, but the pairing depends only on the
dimensions dim(S cap W) of a point's chain subspace S and a test's subspace
W.  A verifier context therefore builds one incidence table over the
*distinct* subspaces.  The annihilator of each test subspace, and of each
point subspace that is not a line, is computed once, and an entry is read as
dim(S cap W) = dim S - rank(S . Ann(W)^T) = dim W - rank(W . Ann(S)^T) from
the side where the matrix is one row or one column: S's rows when S is a
line or W a hyperplane, W's rows when W is a line or S a hyperplane.  There
an entry is a test for a nonzero pairing.  The point subspaces are grouped
by dimension, and a test subspace's column is filled a group at a time by
``finflag``'s pairing kernel: one pass pairs one vector with every
subspace of the group.  Where the matrix is 2 x 2 (planes against planes
in 4-space, say), its rank is whether some entry is nonzero plus whether
its determinant is, read from the same passes.  Only larger matrices,
from 5-space on, go through ``rank``, with entries the same kernel
reads.  Summed by parts, a slope is a weighted read of that table
(``VerifierContext.destabilizer_table``).  The weights are scaled to
integers, so the whole slope matrix is integer arithmetic and a
``Fraction`` is built only for the negative slopes it reports.
``filtration_pairing`` and ``slope`` compute the same numbers directly
from two ``FlagPoint``s and stay as the reference.  The unitary
group's points and tests come from ``finflag.enumerate_twisted_fixed_flags``
and carry no Hermitian data: the twisted Frobenius on flags and the check
that it keeps each point's destabilizers are test oracles.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import lcm
from operator import attrgetter, not_
from typing import Callable, NamedTuple

from .cohom import GroupData
from .finflag import (
    FieldTower,
    FlagLevels,
    FlagPoint,
    Subspace,
    annihilator,
    enumerate_flag_points,
    enumerate_subspaces,
    enumerate_twisted_fixed_flags,
    flag_count,
    full_space,
    gaussian_binomial,
    intersection_dim,
    log_columns,
    make_tower,
    mu_flag_type,
    nonzero_pairings,
    pairings,
    rank,
    row_families,
    subspace_from_rows,
)
from .rootdata import DEFAULT_BUDGET, BudgetError

_dim = attrgetter("dim")


def filtration_pairing(tower: FieldTower, f: FlagPoint, g: FlagPoint) -> Fraction:
    """Sum of a*b over the graded intersection dimensions of two weighted flags.

    Each flag's steps are its chain followed by the whole space; the
    bigraded dimension at (a, b) is computed by inclusion-exclusion on the
    four pairwise intersections around the step.
    """
    if f.n != g.n:
        raise ValueError("ambient mismatch")
    whole = (full_space(tower, f.n),)
    f_spaces, g_spaces = f.chain + whole, g.chain + whole
    inter = [[intersection_dim(tower, a, b) for b in g_spaces] for a in f_spaces]

    def v(i, j):
        if i < 0 or j < 0:
            return 0
        return inter[i][j]

    total = Fraction(0)
    for i in range(len(f_spaces)):
        for j in range(len(g_spaces)):
            d = v(i, j) - v(i - 1, j) - v(i, j - 1) + v(i - 1, j - 1)
            if d:
                total += f.weights[i] * g.weights[j] * d
    return total


def subspace_coweight_filtration(sub: Subspace) -> FlagPoint:
    """Two-step weighted flag of a fundamental-coweight conjugate at a subspace."""
    d, n = sub.dim, sub.ncols
    if d <= 0 or d >= n:
        raise ValueError("subspace must be proper and nonzero")
    return FlagPoint(chain=(sub,), weights=(Fraction(n - d, n), Fraction(-d, n)), n=n)


def coordinate_filtration(tower: FieldTower, coords) -> FlagPoint:
    """Weighted flag of a torus cocharacter: coordinate spans by weight level.

    The level of the least weight spans every coordinate, so it is the whole
    space and not part of the chain."""
    coords = [Fraction(c) for c in coords]
    n = len(coords)
    weights = sorted(set(coords), reverse=True)
    chain = tuple(
        subspace_from_rows(
            tower, [[int(j == i) for j in range(n)] for i, c in enumerate(coords) if c >= w], n
        )
        for w in weights[:-1]
    )
    return FlagPoint(chain=chain, weights=tuple(weights), n=n)


def slope(tower: FieldTower, point: FlagPoint, test: FlagPoint) -> Fraction:
    """Hilbert-Mumford weight: minus the filtration pairing."""
    return -filtration_pairing(tower, point, test)


# ---------------------------------------------------------------------------
# verifier context

class SlopeReport(NamedTuple):
    point_index: int
    destabilizers: tuple[tuple[FlagPoint, Fraction], ...]

    @property
    def verdict(self) -> bool:
        return not self.destabilizers


class VerifierContext:
    """The points over the degree-m extension of the reflex field, the
    rational test filtrations (``tests``) and the tables read from them,
    each built once; ``mode`` is "split" or "u3"."""

    def __init__(self, gd: GroupData, m: int, tower: FieldTower, n: int, mode: str,
                 points: list[FlagPoint], tests: list[FlagPoint]):
        self.gd, self.m, self.tower, self.n, self.mode = gd, m, tower, n, mode
        self.points, self.tests = points, tests

    @cached_property
    def point_spaces(self) -> dict[Subspace, int]:
        """The distinct subspaces of the points' chains, numbered by dimension
        and, within one, in order of appearance."""
        spaces = dict.fromkeys(s for x in self.points for s in x.chain)
        return {s: k for k, s in enumerate(sorted(spaces, key=_dim))}

    @cached_property
    def test_annihilators(self) -> dict[Subspace, tuple]:
        """Ann(W) for each distinct subspace W of the tests' chains."""
        spaces = dict.fromkeys(w for t in self.tests for w in t.chain)
        return {w: annihilator(self.tower, w) for w in spaces}

    @cached_property
    def point_annihilators(self) -> dict[Subspace, tuple]:
        """Ann(S) for each point subspace S of dimension at least 2, shared
        with the tests where S is rational too; a line is always read from
        its own row, so it needs none."""
        known = self.test_annihilators
        return {
            s: known[s] if s in known else annihilator(self.tower, s)
            for s in self.point_spaces if s.dim >= 2
        }

    @cached_property
    def incidence(self) -> dict[Subspace, list[int]]:
        """Per test subspace W, dim(S cap W) for every point subspace S, listed
        in ``point_spaces`` order: each distinct pair is read once, a
        dimension group of point subspaces per kernel pass."""
        t, n = self.tower, self.n
        groups = []
        for d, subs in itertools.groupby(self.point_spaces, key=_dim):
            subs = list(subs)
            rows = row_families(t, (s.rows for s in subs))
            anns = row_families(t, (self.point_annihilators[s] for s in subs)) if d >= 2 else None
            groups.append((d, rows, anns))
        table = {}
        for w, w_ann in self.test_annihilators.items():
            column: list[int] = []
            for d, rows, anns in groups:
                if d == 1 or len(w_ann) <= 1:
                    column += map(d.__sub__, map(bool, nonzero_pairings(t, w_ann, rows)))
                elif w.dim == 1 or n - d <= 1:
                    column += map(w.dim.__sub__, map(bool, nonzero_pairings(t, w.rows, anns)))
                elif d == len(w_ann) == 2:
                    # S . Ann(W)^T is 2 x 2: its rank is [some entry is
                    # nonzero] + [its determinant is nonzero], one pass per
                    # entry for the whole group
                    (x00, x01), (x10, x11) = [[list(pairings(t, a, f)) for a in w_ann] for f in rows]
                    nonzero = map(any, zip(x00, x01, x10, x11))
                    det = map(t.sub, map(t.mul, x00, x11), map(t.mul, x01, x10))
                    column += (d - nz - bool(x) for nz, x in zip(nonzero, det))
                else:
                    # S . Ann(W)^T: one pass per row of S and row of Ann(W)
                    # for the whole group, then one rank per S
                    entries = [zip(*(pairings(t, a, f) for a in w_ann)) for f in rows]
                    column += (d - rank(t, matrix) for matrix in zip(*entries))
            table[w] = column
        return table

    @cached_property
    def test_containment(self) -> dict[Subspace, frozenset[Subspace]]:
        """Per test subspace W, the test subspaces S inside it (S . Ann(W)^T = 0),
        a dimension group of candidates per kernel pass."""
        t, anns = self.tower, self.test_annihilators
        groups = []
        for d, subs in itertools.groupby(sorted(anns, key=_dim), key=_dim):
            subs = list(subs)
            groups.append((d, subs, row_families(t, (s.rows for s in subs))))
        return {
            w: frozenset(itertools.chain.from_iterable(
                compress(subs, map(not_, nonzero_pairings(t, ann, rows)))
                for d, subs, rows in groups if d <= w.dim
            ))
            for w, ann in anns.items()
        }

    @cached_property
    def destabilizer_table(self) -> list[tuple[tuple[int, Fraction], ...]]:
        """Per point, the (test index, slope) pairs with negative slope, in
        test order: the negative entries of the point x test slope matrix.

        ``filtration_pairing`` sums a_i b_j over the graded pieces; summed by
        parts it is sum_ij alpha_i beta_j dim(F_i cap G_j) with alpha_i =
        a_i - a_(i+1) and beta_j = b_j - b_(j+1) (zero past the last step).
        The last step of either flag is the whole space, outside its chain, so
        only the chain-by-chain terms read the incidence table; the others
        are dimensions.  Weights are scaled by the lcm of the point weights'
        denominators times that of the test weights', so every pairing is an
        integer P and the slope is -P / scale."""
        points = self.points
        if not points:
            return []
        weights = points[0].weights
        if any(x.weights != weights for x in points):
            raise ValueError("every point must carry mu's weights")
        point_scale = lcm(*(w.denominator for w in weights))
        test_scale = lcm(*(w.denominator for t in self.tests for w in t.weights))
        scale = point_scale * test_scale
        *alpha, alpha_last = _weight_steps(weights, point_scale)
        alpha_dims = sum(a * s.dim for a, s in zip(alpha, points[0].chain))
        positions = [[self.point_spaces[x.chain[i]] for x in points] for i in range(len(alpha))]
        inc = self.incidence
        rows: list[list[tuple[int, Fraction]]] = [[] for _ in points]
        slopes: dict[int, Fraction] = {}
        for k, test in enumerate(self.tests):
            *beta, beta_last = _weight_steps(test.weights, test_scale)
            const = beta_last * alpha_dims + alpha_last * (
                sum(b * w.dim for b, w in zip(beta, test.chain)) + beta_last * self.n
            )
            g = [0] * len(self.point_spaces)
            for b, w in zip(beta, test.chain):
                g = [x + b * c for x, c in zip(g, inc[w])]
            totals = [const] * len(points)
            for a, ids in zip(alpha, positions):
                h = [a * x for x in g]
                totals = [t + h[s] for t, s in zip(totals, ids)]
            for i, total in enumerate(totals):
                if total > 0:
                    if total not in slopes:
                        slopes[total] = Fraction(-total, scale)
                    rows[i].append((k, slopes[total]))
        return [tuple(r) for r in rows]

    @cached_property
    def standard_subspaces(self) -> tuple[Subspace, ...]:
        """The coordinate subspaces E_1 ... E_{n-1}; ``[d - 1]`` is E_d, the
        span of the first d coordinate vectors."""
        return tuple(standard_subspace(self.tower, self.n, d) for d in range(1, self.n))

    @cached_property
    def bruhat_partition(self) -> dict:
        """``bruhat_cells`` of this context, computed once for every label set."""
        return bruhat_cells(self)


def _weight_steps(weights, scale: int) -> list[int]:
    """scale * (a_i - a_(i+1)) for decreasing weights, with a past the last = 0."""
    steps = [(a - b) * scale for a, b in zip(weights, weights[1:])] + [weights[-1] * scale]
    assert all(x.denominator == 1 for x in steps)
    return [int(x) for x in steps]


def verifier_mode(gd: GroupData) -> str | None:
    """Which brute-force model supports this instance, if any."""
    if len(gd.datum.cartan_type) != 1 or gd.datum.cartan_type[0][0] != "A":
        return None
    if gd.is_split:
        return "split"
    # the one nontrivial twist of A_2 swaps its roots, whatever the order it is given
    if gd.datum.cartan_type[0][1] == 2:
        return "u3"
    return None


def build_verifier(gd: GroupData, m: int, budget: int = DEFAULT_BUDGET) -> VerifierContext:
    """Enumerate the full rational test set, then the points over the
    degree-m extension of the reflex field, on the tower and by the
    enumerator of their ``PointModel``.  Every count is checked first: the
    points' and the tables' by ``check_verifier_budget``, the tests' by
    ``_rational_tests``."""
    mode = verifier_mode(gd)
    if mode is None:
        raise ValueError("brute force supports split SL_n and quasi-split U_3 only")
    if m < 1:
        raise ValueError("m must be at least 1")
    model = check_verifier_budget(gd, m, budget)
    tower = make_tower(gd.q, model.ext)
    tests = _rational_tests(gd, tower, budget)
    points = model.points(tower)
    assert len(points) == model.size(), len(points)
    return VerifierContext(gd=gd, m=m, tower=tower, n=gd.datum.ambient_dim, mode=mode, points=points, tests=tests)


def _rational_tests(gd: GroupData, tower: FieldTower, budget: int) -> list[FlagPoint]:
    """The coweight filtrations of the rational subspaces of SL_n, or the rational
    chambers of U_3: its flags fixed by one step of the twisted Frobenius.
    A count past the budget is refused before anything is enumerated, naming
    the q^3 + 1 chambers or the first level of subspaces that exceeds it."""
    q, n = gd.q, gd.datum.ambient_dim
    u3 = verifier_mode(gd) == "u3"
    counts = [q**3 + 1] if u3 else [gaussian_binomial(n, d, q) for d in range(1, n)]
    over = next((c for c in counts if c > budget), None)
    if over is not None:
        raise BudgetError(f"{over} {'chambers' if u3 else 'subspaces'} exceed budget {budget}")
    if u3:
        chambers = enumerate_twisted_fixed_flags(tower, (1, 0, -1), conj_power=1)
        assert len(chambers) == counts[0], len(chambers)
        return chambers
    return [
        subspace_coweight_filtration(sub)
        for d in range(1, n)
        for sub in enumerate_subspaces(tower, n, d, subfield_deg=1)
    ]


# an int past 2^14286 has over 4,300 digits, more than Python prints by
# default: a count known from its exponent to lie past it is not computed
_PRINTABLE_BITS = 14286


def _in_full(number, q: int, e: int, past: str) -> str:
    """``number()``, a number of at least q^e, in decimal where Python can
    print it, else ``past`` followed by q^e."""
    if e * (q.bit_length() - 1) < _PRINTABLE_BITS:
        try:
            return str(number())
        except ValueError:  # more digits than int -> str allows
            pass
    return f"{past}{q}^{e}"


class PointModel(NamedTuple):
    """The points of a verifier run at one m, decided once by
    ``_point_model`` for the budget check and the enumeration alike.

    ``ext`` is the degree over F_q of the tower they live in.  A non-central
    mu has ``size()`` > q^e points, e its ``past``, named by ``noun`` in a
    refusal; a central mu has the one empty flag and ``past`` None.
    ``points(tower)`` lists them on that tower."""

    ext: int
    past: int | None
    noun: str
    size: Callable[[], int]
    points: Callable[[FieldTower], list[FlagPoint]]


def _point_model(gd: GroupData, m: int) -> PointModel:
    """With s = e m, the total Frobenius power defining the point field, U_3
    at odd s has the twist-fixed flags, the q^(3s) + 1 chambers listed over
    F_(q^(2s)); every other model has the flags over the whole tower
    F_(q^s)."""
    weights, dims = mu_flag_type(gd.mu.coords)
    q, s, n = gd.q, gd.e_degree * m, gd.datum.ambient_dim
    flags = lambda tower: enumerate_flag_points(tower, n, weights, dims)
    if verifier_mode(gd) == "u3" and s % 2:
        model = PointModel(2 * s, 3 * s, "chambers", lambda: q ** (3 * s) + 1,
                           lambda tower: enumerate_twisted_fixed_flags(tower, weights, conj_power=s))
    else:
        model = PointModel(s, s, "flags", lambda: flag_count(n, dims, q**s), flags)
    # a central mu has the one empty flag, on its model's tower: a central
    # U_3 at odd s still needs F_(q^2) for the chambers that serve as tests
    return model if dims else model._replace(past=None, size=lambda: 1, points=flags)


def check_verifier_budget(gd: GroupData, m: int, budget: int) -> PointModel:
    """Refuse a verifier run before anything is enumerated: the flag or
    chamber count and the field tower's tables, the largest of which has one
    entry per element, must fit the budget.  Returns the ``PointModel``,
    whose ``ext`` is the degree over F_q of the tower the points live in.
    The rational tests are checked apart, by ``_rational_tests``.  Every
    non-central mu has more than q^s flags or chambers, so the table check
    binds only when that count is 1, and an m of any size is refused without
    computing q^s in full."""
    model = _point_model(gd, m)
    q, e, ext = gd.q, model.past, model.ext
    # q^e >= 2^e, so an e past the budget's bit length needs no count
    if e is not None and (e >= budget.bit_length() or model.size() > budget):
        raise BudgetError(f"{_in_full(model.size, q, e, 'more than ')} {model.noun} exceed budget {budget}")
    if ext >= budget.bit_length() or q**ext > budget:
        size = _in_full(lambda: q**ext, q, ext, "")
        raise BudgetError(f"{size}-entry field tables of F_{size} exceed budget {budget}")
    return model


def smallest_feasible_m(gd: GroupData, budget: int) -> int | None:
    """The least m up to 3 whose verifier run fits the budget, if any."""
    for m in range(1, 4):
        try:
            check_verifier_budget(gd, m, budget)
        except BudgetError:
            continue
        return m
    return None


def label_sets(gd: GroupData) -> list[frozenset[int]]:
    """Every set of Galois orbits of simple roots, by size, then lexicographically."""
    d = gd.d_prime
    return [frozenset(I) for k in range(d + 1) for I in itertools.combinations(range(d), k)]


def rational_point_counts(gd: GroupData, budget: int) -> dict[frozenset[int], int]:
    """Per label set I, the rational points of G/P_I counted over the m = 1
    tower: the flags of SL_n whose dimensions skip I's roots, or, for U_3,
    its chambers and the one flag of the whole group."""
    tower = make_tower(gd.q, check_verifier_budget(gd, 1, budget).ext)
    empty, *rest = sets = label_sets(gd)
    if verifier_mode(gd) == "u3":
        # every proper rational parabolic is a Borel subgroup: the chambers
        # are the rational tests
        return {empty: len(_rational_tests(gd, tower, budget)), **dict.fromkeys(rest, 1)}
    n, orbits = gd.datum.ambient_dim, gd.orbits_delta.orbits
    flag_types = {I: tuple(d for d in range(1, n) if all(d - 1 not in orbits[o] for o in I)) for I in sets}
    # every label set's flags are counted, so their sum is what the budget bounds
    total = sum(flag_count(n, dims, gd.q) for dims in flag_types.values())
    if total > budget:
        raise BudgetError(f"{total} flags exceed budget {budget}")
    # each level is enumerated once and the chains are counted level by
    # level from its containment lists, with no flag built
    flags = FlagLevels(tower, n, range(1, n))
    return {I: flags.count(dims) for I, dims in flag_types.items()}


def is_semistable(ctx: VerifierContext, index: int) -> SlopeReport:
    """Slope verdict for one enumerated point; slope 0 counts as semistable."""
    row = ctx.destabilizer_table[index]
    return SlopeReport(point_index=index, destabilizers=tuple((ctx.tests[k], v) for k, v in row))


def brute_force_ss_count(ctx: VerifierContext) -> int:
    return len(semistable_indices(ctx))


def semistable_indices(ctx: VerifierContext) -> list[int]:
    """The points whose rows of the destabilizer table are empty."""
    return [i for i, row in enumerate(ctx.destabilizer_table) if not row]


def per_point_rows(ctx: VerifierContext) -> list[dict]:
    """Full slope reports, one row per enumerated point."""
    return [
        {
            "point": i,
            "semistable": not row,
            "destabilizer_count": len(row),
            "worst_slope": min((v for _, v in row), default=None),
            "chain": [[list(r) for r in s.rows] for s in x.chain],
        }
        for i, (x, row) in enumerate(zip(ctx.points, ctx.destabilizer_table))
    ]


def points_csv(ctx: VerifierContext) -> str:
    """Per-point verdicts as CSV, slopes in exact rational notation."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["point", "semistable", "destabilizer_count", "worst_slope", "chain"])
    for row in per_point_rows(ctx):
        worst = "" if row["worst_slope"] is None else str(row["worst_slope"])
        writer.writerow(
            [row["point"], int(row["semistable"]), row["destabilizer_count"], worst,
             repr(row["chain"])]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# stratification by untwisted coweights, and its Bruhat cell description

def y_I_points(ctx: VerifierContext, I: frozenset[int]) -> frozenset[int]:
    """Indices of points with negative slope against every standard coweight
    whose orbit lies outside I.  The test filtration of the standard subspace
    E_{k+1} is the filtration of the k-th standard coweight."""
    if ctx.mode != "split":
        raise ValueError("stratification check requires a split instance")
    test_of = {t.chain[0]: j for j, t in enumerate(ctx.tests)}
    wanted = {test_of[ctx.standard_subspaces[k]] for k in range(ctx.gd.d_prime) if k not in I}
    return frozenset(
        i for i, row in enumerate(ctx.destabilizer_table) if wanted <= {j for j, _ in row}
    )


def standard_subspace(tower: FieldTower, n: int, d: int) -> Subspace:
    """The span E_d of the first d coordinate vectors of the n-space."""
    return subspace_from_rows(tower, [[int(j == i) for j in range(n)] for i in range(d)], n)


def _relative_position(ctx: VerifierContext, chain: tuple[Subspace, ...]):
    """B-orbit invariant: intersection dimensions against the coordinate flag.

    Every E_d is a test subspace and every chain subspace here is a point's
    (a representative's coordinate flag is a rational point), so each
    dimension is read from the incidence table."""
    columns = [ctx.incidence[e] for e in ctx.standard_subspaces]
    ids = ctx.point_spaces
    return tuple(tuple(col[ids[s]] for col in columns) for s in chain)


def bruhat_cells(ctx: VerifierContext) -> dict:
    """Partition of the points into cells indexed by Kostant representatives,
    each given by its point ``w mu`` of mu's W-orbit; the cell of ``w mu``
    holds the coordinate flag of its weight levels.  In type A the labels
    are ``c_i = v_i - v_(i+1)``, so their negated prefix sums are the
    coordinates of ``w mu`` up to a constant, which leaves the flag as is."""
    if ctx.mode != "split":
        raise ValueError("cell decomposition requires a split instance")
    gd = ctx.gd
    rep_invariants = {}
    for p in gd.mu_orbit:
        coords = itertools.accumulate((-c for c in p.labels), initial=0)
        inv = _relative_position(ctx, coordinate_filtration(ctx.tower, coords).chain)
        if inv in rep_invariants.values():
            raise AssertionError("distinct representatives share a cell invariant")
        rep_invariants[p] = inv
    cells: dict = {p: [] for p in gd.mu_orbit}
    by_inv = {inv: p for p, inv in rep_invariants.items()}
    for i, x in enumerate(ctx.points):
        inv = _relative_position(ctx, x.chain)
        if inv not in by_inv:
            raise AssertionError("point outside every Bruhat cell")
        cells[by_inv[inv]].append(i)
    return cells


def bruhat_cells_check(ctx: VerifierContext, I: frozenset[int]):
    """Set equality of the stratum against the union of its Bruhat cells,
    plus the per-cell point count q^(m * length)."""
    gd = ctx.gd
    from .cohom import omega_I

    cells = ctx.bruhat_partition
    q, m = gd.q, ctx.m
    sizes_ok = all(len(idx) == q ** (m * p.length) for p, idx in cells.items())
    allowed = {o.rep for o in omega_I(gd, I)}
    union: set[int] = set()
    for p, idx in cells.items():
        if p in allowed:
            union.update(idx)
    y_set = y_I_points(ctx, I)
    return (union == set(y_set)) and sizes_ok, {
        "y_count": len(y_set),
        "cell_union_count": len(union),
        "sizes_ok": sizes_ok,
        "expected_count": sum(q ** (m * o.rep.length) for o in omega_I(gd, I)),
    }


def cell_checks(ctx: VerifierContext) -> list[tuple[frozenset[int], bool, dict]]:
    """``bruhat_cells_check`` for every label set of a split instance; the
    unitary model has no cell check."""
    if ctx.mode != "split":
        return []
    return [(I, *bruhat_cells_check(ctx, I)) for I in label_sets(ctx.gd)]


# ---------------------------------------------------------------------------
# sampled invariants

def _random_invertible_block(tower: FieldTower, size: int, rng: random.Random, subfield):
    while True:
        rows = [[rng.choice(subfield) for _ in range(size)] for _ in range(size)]
        if rank(tower, rows) == size:
            return rows


def random_parabolic_element(tower: FieldTower, n: int, d: int, rng: random.Random):
    """Random rational point of the stabilizer of the standard d-subspace."""
    subfield = sorted(tower.subfield(1))
    a = _random_invertible_block(tower, d, rng, subfield)
    c = _random_invertible_block(tower, n - d, rng, subfield)
    # block upper triangular: the corner's entries are drawn row by row
    return [row + [rng.choice(subfield) for _ in range(n - d)] for row in a] + [[0] * d + row for row in c]


def apply_matrix_to_subspace(tower: FieldTower, g, sub: Subspace) -> Subspace:
    """g . W: each echelon row v (nonzero) maps to its pairings with g's rows."""
    g_rows = log_columns(tower, g)
    return subspace_from_rows(tower, [list(pairings(tower, v, g_rows)) for v in sub.rows], sub.ncols)


def apply_matrix_to_point(tower: FieldTower, g, x: FlagPoint) -> FlagPoint:
    return FlagPoint(
        chain=tuple(apply_matrix_to_subspace(tower, g, s) for s in x.chain),
        weights=x.weights,
        n=x.n,
    )


def parabolic_invariance_sample(ctx: VerifierContext, seed: int, samples: int = 20) -> bool:
    """Spot-check that rational parabolic moves do not change the slope
    against the parabolic's own coweight filtration, and that the sampled
    point's verdict, read from the destabilizer table, lists that filtration
    exactly when the reference ``slope`` is negative, with that slope."""
    if ctx.mode != "split":
        return True
    rng = random.Random(seed)
    n = ctx.n
    for _ in range(samples):
        index = rng.randrange(len(ctx.points))
        x = ctx.points[index]
        d = rng.randrange(1, n)
        test = subspace_coweight_filtration(ctx.standard_subspaces[d - 1])
        g = random_parabolic_element(ctx.tower, n, d, rng)
        gx = apply_matrix_to_point(ctx.tower, g, x)
        before = slope(ctx.tower, x, test)
        after = slope(ctx.tower, gx, test)
        if before != after:
            return False
        if dict(is_semistable(ctx, index).destabilizers).get(test, 0) != min(before, 0):
            return False
    return True
