"""Semistability oracle and stratification checks by brute-force enumeration.

This is the one module that knows the brute-force model: the towers, the
points and tests, the rational flag counts and the cell checks.  It also
holds every budget check of the model, each made before its enumeration;
``finflag`` enumerates whatever it is asked.  A point is semistable when
its weighted flag pairs non-negatively against every rational test
filtration: the rational subspaces for split SL_n, the rational chambers
for quasi-split U_3.  A test is its chain of (dimension, position) pairs
in the tests' subspaces (``lattice``) with its own decreasing weights.

A verifier run reads two families of subspaces, each one
``finflag.FlagLevels`` that computes each member's annihilator once: the
points' levels, from the enumerator of the run's ``PointModel``, and the
tests' (``lattice``): the rational subspaces over F_q inside the tower
(``_rational_subspaces``), level by level in test order, or the rational
chambers' lines and planes (``_rational_chambers``).  A point is its tuple
of positions in its model's levels, with mu's weights held once on the
context; its chain of subspaces is decoded only for a report or the
reference ``slope``.

Every point is paired with every test, but the pairing depends only on the
dimensions dim(S cap W) of a point's chain subspace S and a test's subspace
W.  A verifier context therefore builds one incidence table over the
members of the two families, a point level against a lattice level at a
time (``FlagLevels.intersections``): dim(S cap W) = dim S - rank(S .
Ann(W)^T) = dim W - rank(W . Ann(S)^T), from the matrix with the smaller
min(rows, cols), ranked by its minors for a whole point level at once.
Up to 5-space no minor is larger than 2 x 2.  Summed by parts, a slope is
a weighted read of that table (``VerifierContext.destabilizer_table``).
The weights are scaled to integers, so the whole slope matrix is integer
arithmetic and a ``Fraction`` is built only for the negative slopes it
reports.  The table is filled a test's column at a time in C-level
passes: each chain level's entries are gathered per point, by its
positions, with ``itemgetter`` and added by ``map``, and the positive
totals are picked by ``compress``, so only the points a test destabilizes
are visited.  The semistable points are its empty rows, a stratum is an
intersection of the standard coweights' tests' hits, read from the rows in
one pass, and the Bruhat cells gather each point's invariant from the
coordinate subspaces' incidence columns.
``filtration_pairing`` and ``slope`` compute the same numbers directly
from two ``FlagPoint``s and stay as the reference.  The lattice's
``above`` lists are the inclusions the destabilizing complexes chain by,
and ``rational_point_counts`` counts the rational flags of every type from
the same lists.  The unitary group's points and tests carry no Hermitian
data: the twisted Frobenius on flags and the check that it keeps each
point's destabilizers are test oracles.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import compress, repeat
from math import lcm
from operator import add, gt, itemgetter, lt, mul, not_
from typing import Callable, NamedTuple

from .cohom import GroupData, label_sets
from .finflag import (
    FieldTower,
    FlagLevels,
    Subspace,
    enumerate_flag_points,
    enumerate_twisted_fixed_flags,
    flag_count,
    full_space,
    gaussian_binomial,
    intersection_dim,
    log_columns,
    make_tower,
    pairings,
    rank,
    subspace_from_rows,
    subspace_levels,
)
from .rootdata import DEFAULT_BUDGET, BudgetError

class FlagPoint(NamedTuple("FlagPoint", [("chain", tuple), ("weights", tuple), ("n", int)])):
    """A weighted flag of the n-space: proper subspaces plus the weight ladder.

    ``weights`` lists the distinct weights in decreasing order; the chain has
    one subspace per weight except the last, whose space is the whole n-space,
    so a central cocharacter's chain is empty.  The rational test
    filtrations are weighted flags, each with its own weights.
    """

    __slots__ = ()

    def __new__(cls, chain: tuple[Subspace, ...], weights: tuple[Fraction, ...], n: int):
        if len(chain) != len(weights) - 1:
            raise ValueError("one subspace per weight but the last")
        if not all(map(gt, weights, weights[1:])):
            raise ValueError("weights must strictly decrease")
        prev = 0
        for s in chain:
            dim = len(s.rows)
            if dim <= prev or s.ncols != n:
                raise ValueError("subspaces must be proper and strictly increase")
            prev = dim
        if prev >= n:
            raise ValueError("subspaces must be proper and strictly increase")
        return super().__new__(cls, chain, weights, n)


def mu_flag_type(mu_coords) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """Distinct weights (decreasing) and proper chain dimensions of a cocharacter."""
    vals = [Fraction(v) for v in mu_coords]
    distinct = sorted(set(vals), reverse=True)
    dims = []
    run = 0
    for w in distinct[:-1]:
        run += vals.count(w)
        dims.append(run)
    return tuple(distinct), tuple(dims)


def filtration_pairing(tower: FieldTower, f: FlagPoint, g: FlagPoint) -> Fraction:
    """Sum of a*b over the graded intersection dimensions of two weighted flags.

    Each flag's steps are its chain followed by the whole space; the
    bigraded dimension at (a, b) is computed by inclusion-exclusion on the
    four pairwise intersections around the step.  Each flag's weights are
    scaled to integers by the lcm of their denominators, so the sum is
    integer arithmetic and one ``Fraction`` is built at the end.
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

    f_scale = lcm(*(w.denominator for w in f.weights))
    g_scale = lcm(*(w.denominator for w in g.weights))
    a = [int(w * f_scale) for w in f.weights]
    b = [int(w * g_scale) for w in g.weights]
    total = 0
    for i in range(len(f_spaces)):
        for j in range(len(g_spaces)):
            total += a[i] * b[j] * (v(i, j) - v(i - 1, j) - v(i, j - 1) + v(i - 1, j - 1))
    return Fraction(total, f_scale * g_scale)


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

def _gather(ids) -> Callable:
    """``itemgetter(*ids)``, which returns a tuple even for one index."""
    if len(ids) == 1:
        (i,) = ids
        return lambda seq: (seq[i],)
    return itemgetter(*ids)


class VerifierContext:
    """The points over the degree-m extension of the reflex field, the
    rational test filtrations (``tests``) and the tables read from them,
    each built once; ``mode`` is "split" or "u3".  Each family of subspaces
    is one ``FlagLevels``.  ``point_levels`` has one level per chain
    member, and a point is its tuple of positions, the i-th in the i-th
    level, with mu's weights (``weights``) held once; ``chain(i)`` decodes
    one for a report or the reference ``slope``.  A test is a (chain,
    weights) pair, its chain (dimension, position) pairs in ``lattice``:
    the rational subspaces of split SL_n, whose ``above`` lists the
    complexes chain tests by, or U_3's chambers' lines and planes."""

    def __init__(self, gd: GroupData, m: int, tower: FieldTower, n: int, mode: str,
                 weights: tuple[Fraction, ...], point_levels: FlagLevels,
                 points: list[tuple[int, ...]], tests: list[tuple[tuple, tuple]], lattice: FlagLevels):
        self.gd, self.m, self.tower, self.n, self.mode = gd, m, tower, n, mode
        self.weights, self.point_levels, self.points = weights, point_levels, points
        self.tests, self.lattice = tests, lattice

    def chain(self, index: int) -> tuple[Subspace, ...]:
        """The subspaces of the point at ``index``, read off its positions."""
        return tuple(level[k] for level, k in zip(self.point_levels.levels.values(), self.points[index]))

    @cached_property
    def level_gathers(self) -> list[Callable]:
        """Per chain level, a gather that reads every point's entry, in point
        order, off a list indexed like that level: its incidence column, or
        any list of values per member."""
        levels = range(len(self.point_levels.levels))
        return [_gather(list(map(itemgetter(i), self.points))) for i in levels]

    @cached_property
    def incidence(self) -> dict[tuple[int, int], list[list[int]]]:
        """Per test subspace W, keyed by its (dimension, position) in
        ``lattice``, one column per point level: dim(S cap W) for every
        member S, in level order, by ``FlagLevels.intersections``."""
        points, lattice = self.point_levels, self.lattice
        columns = {w: [points.intersections(d, lattice, w) for d in points.levels] for w in lattice.levels}
        return {(w, k): [column[k] for column in columns[w]]
                for w, level in lattice.levels.items() for k in range(len(level))}

    @cached_property
    def destabilizer_table(self) -> list[tuple[tuple[int, Fraction], ...]]:
        """Per point, the negative entries of its row of the point x test
        slope matrix, (test index, slope) pairs in test order, filled a
        test's column at a time.

        ``filtration_pairing`` sums a_i b_j over the graded pieces; summed by
        parts it is sum_ij alpha_i beta_j dim(F_i cap G_j) with alpha_i =
        a_i - a_(i+1) and beta_j = b_j - b_(j+1) (zero past the last step).
        The last step of either flag is the whole space, outside its chain, so
        only the chain-by-chain terms read the incidence table; the others
        are dimensions.  Weights are scaled by the lcm of mu's weights'
        denominators times that of the test weights', so every pairing is an
        integer P and the slope is -P / scale.

        A test's column takes a few C-level passes per chain level: the
        level's incidence columns of the test's chain, weighted by alpha
        times beta and added by ``map``, gathered per point by
        ``itemgetter``; the levels' shares added by one chain of ``map``s;
        and ``compress`` over the sums past -const, the points whose total
        is positive.  Only those hits are visited, each appended to its
        point's row with its slope."""
        points, weights, tests = self.points, self.weights, self.tests
        point_scale = lcm(*(w.denominator for w in weights))
        test_scale = lcm(*(w.denominator for _, tw in tests for w in tw))
        scale = point_scale * test_scale
        *alpha, alpha_last = _weight_steps(weights, point_scale)
        alpha_dims = sum(map(mul, alpha, self.point_levels.levels))
        levels = list(enumerate(zip(alpha, self.level_gathers)))
        inc = self.incidence
        rows: list[list[tuple[int, Fraction]]] = [[] for _ in points]
        slopes: dict[int, Fraction] = {}
        for k, (chain, test_weights) in enumerate(tests):
            *beta, beta_last = _weight_steps(test_weights, test_scale)
            const = beta_last * alpha_dims + alpha_last * (
                sum(b * d for b, (d, _) in zip(beta, chain)) + beta_last * self.n
            )
            shares = []
            for i, (a, gather) in levels:
                weighted = [map((a * b).__mul__, inc[w][i]) for b, w in zip(beta, chain)]
                shares.append(gather(list(reduce(partial(map, add), weighted))))
            sums = list(reduce(partial(map, add), shares or [(0,) * len(points)]))
            for i in compress(range(len(points)), map(lt, repeat(-const), sums)):
                total = const + sums[i]
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
    def standard_tests(self) -> tuple[int, ...]:
        """Per coordinate subspace, the index in ``tests`` of its coweight
        filtration, in ``standard_subspaces`` order (split model only)."""
        index = {chain: k for k, (chain, _) in enumerate(self.tests)}
        position = self.lattice.position
        return tuple(index[((e.dim, position[e]),)] for e in self.standard_subspaces)

    @cached_property
    def standard_hits(self) -> list[frozenset[int]]:
        """Per coordinate subspace, in ``standard_subspaces`` order, the
        points its coweight filtration destabilizes: one pass over the
        destabilizer table's rows (split model only)."""
        hits: dict[int, list[int]] = {k: [] for k in self.standard_tests}
        for i, row in enumerate(self.destabilizer_table):
            for k, _ in row:
                if k in hits:
                    hits[k].append(i)
        return [frozenset(hits[k]) for k in self.standard_tests]

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
    ``_rational_subspaces`` or ``_rational_chambers``."""
    mode = verifier_mode(gd)
    if mode is None:
        raise ValueError("brute force supports split SL_n and quasi-split U_3 only")
    if m < 1:
        raise ValueError("m must be at least 1")
    model = check_verifier_budget(gd, m, budget)
    tower = make_tower(gd.q, model.ext)
    lattice, tests = (_rational_subspaces if mode == "split" else _rational_chambers)(gd, tower, budget)
    point_levels, points = model.points(tower)
    assert len(points) == model.size(), len(points)
    return VerifierContext(gd=gd, m=m, tower=tower, n=gd.datum.ambient_dim, mode=mode,
                           weights=mu_flag_type(gd.mu.coords)[0], point_levels=point_levels,
                           points=points, tests=tests, lattice=lattice)


def _rational_subspaces(gd: GroupData, tower: FieldTower, budget: int) -> tuple[FlagLevels, list[tuple]]:
    """The rational subspaces of split SL_n, the proper subspaces over F_q
    inside the tower, level by level with their inclusions, and as tests,
    in level order, with the weights of the coweight (n - d, -d) / n.  The
    first level past the budget is refused before anything is enumerated."""
    q, n = gd.q, gd.datum.ambient_dim
    over = next((c for c in (gaussian_binomial(n, d, q) for d in range(1, n)) if c > budget), None)
    if over is not None:
        raise BudgetError(f"{over} subspaces exceed budget {budget}")
    lattice = subspace_levels(tower, n, range(1, n), subfield_deg=1)
    return lattice, [(((d, k),), (Fraction(n - d, n), Fraction(-d, n)))
                     for d, level in lattice.levels.items() for k in range(len(level))]


def _rational_chambers(gd: GroupData, tower: FieldTower, budget: int) -> tuple[FlagLevels, list[tuple]]:
    """The rational chambers of U_3, its flags fixed by one step of the
    twisted Frobenius: the ``FlagLevels`` of their lines and planes, and
    the chambers as tests with weights (1, 0, -1).  Their count q^3 + 1 is
    refused past the budget before any is enumerated."""
    q = gd.q
    if q**3 + 1 > budget:
        raise BudgetError(f"{q**3 + 1} chambers exceed budget {budget}")
    lattice, chambers = enumerate_twisted_fixed_flags(tower, conj_power=1)
    assert len(chambers) == q**3 + 1, len(chambers)
    weights = (Fraction(1), Fraction(0), Fraction(-1))
    return lattice, [(((1, a), (2, b)), weights) for a, b in chambers]


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
    ``points(tower)`` lists them on that tower: the ``FlagLevels`` of their
    subspaces, and each point as its positions in those levels."""

    ext: int
    past: int | None
    noun: str
    size: Callable[[], int]
    points: Callable[[FieldTower], tuple[FlagLevels, list[tuple[int, ...]]]]


def _point_model(gd: GroupData, m: int) -> PointModel:
    """With s = e m, the total Frobenius power defining the point field, U_3
    at odd s has the twist-fixed flags, the q^(3s) + 1 chambers listed over
    F_(q^(2s)); every other model has the flags over the whole tower
    F_(q^s)."""
    _, dims = mu_flag_type(gd.mu.coords)
    q, s, n = gd.q, gd.e_degree * m, gd.datum.ambient_dim

    def flags(tower):
        levels = subspace_levels(tower, n, dims)
        return levels, enumerate_flag_points(levels, n, dims)

    if verifier_mode(gd) == "u3" and s % 2:
        model = PointModel(2 * s, 3 * s, "chambers", lambda: q ** (3 * s) + 1,
                           lambda tower: enumerate_twisted_fixed_flags(tower, conj_power=s))
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
    The rational tests are checked apart, by ``_rational_subspaces`` or
    ``_rational_chambers``.  Every non-central mu has more than q^s flags
    or chambers, so the table check binds only when that count is 1, and an
    m of any size is refused without computing q^s in full."""
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


def rational_point_counts(gd: GroupData, budget: int) -> dict[frozenset[int], int]:
    """Per label set I, the rational points of G/P_I counted over the m = 1
    tower: the flags of SL_n whose dimensions skip I's roots, or, for U_3,
    its chambers and the one flag of the whole group."""
    tower = make_tower(gd.q, check_verifier_budget(gd, 1, budget).ext)
    empty, *rest = sets = label_sets(gd)
    if verifier_mode(gd) == "u3":
        # every proper rational parabolic is a Borel subgroup: the chambers
        # are the rational tests
        return {empty: len(_rational_chambers(gd, tower, budget)[1]), **dict.fromkeys(rest, 1)}
    n, orbits = gd.datum.ambient_dim, gd.orbits_delta.orbits
    flag_types = {I: tuple(d for d in range(1, n) if all(d - 1 not in orbits[o] for o in I)) for I in sets}
    # every label set's flags are counted, so their sum is what the budget bounds
    total = sum(flag_count(n, dims, gd.q) for dims in flag_types.values())
    if total > budget:
        raise BudgetError(f"{total} flags exceed budget {budget}")
    # each level is enumerated once and the chains are counted level by
    # level from its containment lists, with no flag built
    flags, _ = _rational_subspaces(gd, tower, budget)
    return {I: flags.count(dims) for I, dims in flag_types.items()}


def is_semistable(ctx: VerifierContext, index: int) -> tuple[tuple[int, Fraction], ...]:
    """The point's destabilizers, its row of (test index, slope) pairs with
    negative slope: empty exactly when it is semistable (slope 0 counts as
    semistable)."""
    return ctx.destabilizer_table[index]


def brute_force_ss_count(ctx: VerifierContext) -> int:
    return len(semistable_indices(ctx))


def semistable_indices(ctx: VerifierContext) -> list[int]:
    """The points whose rows of the destabilizer table are empty."""
    rows = ctx.destabilizer_table
    return list(compress(range(len(rows)), map(not_, rows)))


def per_point_rows(ctx: VerifierContext) -> list[dict]:
    """Full slope reports, one row per enumerated point."""
    return [
        {
            "point": i,
            "semistable": not row,
            "destabilizer_count": len(row),
            "worst_slope": min((v for _, v in row), default=None),
            "chain": [[list(r) for r in s.rows] for s in ctx.chain(i)],
        }
        for i, row in enumerate(ctx.destabilizer_table)
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
    whose orbit lies outside I: the intersection of those tests' sets of
    hits (``standard_hits``).  The test filtration of the standard subspace
    E_{k+1} is the filtration of the k-th standard coweight."""
    if ctx.mode != "split":
        raise ValueError("stratification check requires a split instance")
    wanted = [ctx.standard_hits[k] for k in range(ctx.gd.d_prime) if k not in I]
    if not wanted:
        return frozenset(range(len(ctx.points)))
    first, *rest = wanted
    return frozenset(first).intersection(*rest)


def standard_subspace(tower: FieldTower, n: int, d: int) -> Subspace:
    """The span E_d of the first d coordinate vectors of the n-space."""
    return subspace_from_rows(tower, [[int(j == i) for j in range(n)] for i in range(d)], n)


def bruhat_cells(ctx: VerifierContext) -> dict:
    """Partition of the points into cells indexed by Kostant representatives,
    each given by its point ``w mu`` of mu's W-orbit; the cell of ``w mu``
    holds the coordinate flag of its weight levels.  In type A the labels
    are ``c_i = v_i - v_(i+1)``, so their negated prefix sums are the
    coordinates of ``w mu`` up to a constant, which leaves the flag as is.

    A chain's cell is read from its B-orbit invariant: per subspace, the
    dimensions of its intersections with the coordinate flag E_1 ...
    E_(n-1).  Every E_d is a test subspace and every chain subspace here
    is in the points' levels (a representative's coordinate flag is a
    rational point, found by ``position``), so each dimension is an
    incidence entry, and each point subspace's dimensions are zipped once,
    level by level, from the E_d's incidence columns.  The points'
    invariants are gathered by their positions, one chain level per pass;
    a central mu's one empty chain has the empty invariant."""
    if ctx.mode != "split":
        raise ValueError("cell decomposition requires a split instance")
    gd = ctx.gd
    columns = [ctx.incidence[w] for k in ctx.standard_tests for w in ctx.tests[k][0]]
    dims = [list(zip(*level)) for level in zip(*columns)]
    position = ctx.point_levels.position
    cells: dict = {p: [] for p in gd.mu_orbit}
    cell_of = {}
    for p in gd.mu_orbit:
        coords = itertools.accumulate((-c for c in p.labels), initial=0)
        chain = coordinate_filtration(ctx.tower, coords).chain
        inv = tuple(level[position[s]] for level, s in zip(dims, chain))
        if inv in cell_of:
            raise AssertionError("distinct representatives share a cell invariant")
        cell_of[inv] = cells[p]
    gathered = [gather(level) for gather, level in zip(ctx.level_gathers, dims)]
    invariants = zip(*gathered) if gathered else repeat((), len(ctx.points))
    for i, inv in enumerate(invariants):
        if inv not in cell_of:
            raise AssertionError("point outside every Bruhat cell")
        cell_of[inv].append(i)
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
        x = FlagPoint(chain=ctx.chain(index), weights=ctx.weights, n=n)
        d = rng.randrange(1, n)
        test = subspace_coweight_filtration(ctx.standard_subspaces[d - 1])
        g = random_parabolic_element(ctx.tower, n, d, rng)
        gx = apply_matrix_to_point(ctx.tower, g, x)
        before = slope(ctx.tower, x, test)
        after = slope(ctx.tower, gx, test)
        if before != after:
            return False
        listed = (v for k, v in is_semistable(ctx, index) if k == ctx.standard_tests[d - 1])
        if next(listed, 0) != min(before, 0):
            return False
    return True
