"""Semistability oracle and stratification checks by brute-force enumeration.

A point is semistable when its weighted flag pairs non-negatively against
every rational test filtration; the test set is the full list of rational
subspaces for the special linear group and the rational twisted flags for the
quasi-split unitary group on 3 variables.

Every point is paired with every test, but the pairing depends only on the
dimensions dim(S cap W) of a point's chain subspace S and a test's subspace
W.  A verifier context therefore builds one incidence table over the
*distinct* subspaces: each test subspace's annihilator is computed once, and
dim(S cap W) = dim S - rank(S . Ann(W)^T), which for a line is a test for a
nonzero pairing.  Summed by parts, a slope is a weighted read of that table
(``VerifierContext.destabilizer_table``).  The weights are scaled to
integers, so the whole slope matrix is integer arithmetic and a ``Fraction``
is built only for the negative slopes it reports.  ``filtration_pairing`` and
``slope`` compute the same numbers directly and stay as the reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .cohom import GroupData
from .finflag import (
    BudgetError,
    FieldTower,
    FlagPoint,
    HermitianData,
    Subspace,
    annihilator,
    contains,
    enumerate_flag_points,
    enumerate_subspaces,
    enumerate_twisted_fixed_flags,
    flag_count,
    frobenius_point,
    full_space,
    gaussian_binomial,
    intersection_dim,
    lies_in,
    make_tower,
    meet_dim,
    mu_flag_type,
    rank,
    subspace_from_rows,
)


@dataclass(frozen=True)
class Filtration:
    """Decreasing weights with their increasing subspaces; last space is full."""

    weights: tuple[Fraction, ...]
    spaces: tuple[Subspace, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.spaces):
            raise ValueError("one subspace per weight")
        for a, b in zip(self.weights, self.weights[1:]):
            if a <= b:
                raise ValueError("weights must strictly decrease")
        dims = [s.dim for s in self.spaces]
        if any(a >= b for a, b in zip(dims, dims[1:])):
            raise ValueError("subspaces must strictly increase")
        if self.spaces[-1].dim != self.spaces[-1].ncols:
            raise ValueError("final step must be the ambient space")

    @property
    def ambient_dim(self) -> int:
        return self.spaces[-1].ncols


def filtration_pairing(tower: FieldTower, f: Filtration, g: Filtration) -> Fraction:
    """Sum of a*b over the graded intersection dimensions of two filtrations.

    The bigraded dimension at (a, b) is computed by inclusion-exclusion on
    the four pairwise intersections around the step.
    """
    if f.ambient_dim != g.ambient_dim:
        raise ValueError("ambient mismatch")
    ka, kb = len(f.spaces), len(g.spaces)
    inter = [[intersection_dim(tower, f.spaces[i], g.spaces[j]) for j in range(kb)] for i in range(ka)]

    def v(i, j):
        if i < 0 or j < 0:
            return 0
        return inter[i][j]

    total = Fraction(0)
    for i in range(ka):
        for j in range(kb):
            d = v(i, j) - v(i - 1, j) - v(i, j - 1) + v(i - 1, j - 1)
            if d:
                total += f.weights[i] * g.weights[j] * d
    return total


def flag_filtration(tower: FieldTower, x: FlagPoint, n: int) -> Filtration:
    return Filtration(weights=x.weights, spaces=x.chain + (full_space(tower, n),))


def subspace_coweight_filtration(tower: FieldTower, sub: Subspace, n: int) -> Filtration:
    """Two-step filtration of a fundamental-coweight conjugate at a subspace."""
    d = sub.dim
    if d <= 0 or d >= n:
        raise ValueError("subspace must be proper and nonzero")
    return Filtration(
        weights=(Fraction(n - d, n), Fraction(-d, n)),
        spaces=(sub, full_space(tower, n)),
    )


def coordinate_filtration(tower: FieldTower, coords) -> Filtration:
    """Filtration of a torus cocharacter: coordinate spans by weight level."""
    coords = [Fraction(c) for c in coords]
    n = len(coords)
    weights = sorted(set(coords), reverse=True)
    spaces = []
    for w in weights:
        rows = [[int(j == i) for j in range(n)] for i, c in enumerate(coords) if c >= w]
        spaces.append(subspace_from_rows(tower, rows, n))
    if spaces[-1].dim != n:
        weights.append(min(coords) - 1)
        spaces.append(full_space(tower, n))
    return Filtration(weights=tuple(weights), spaces=tuple(spaces))


def slope(tower: FieldTower, point_filt: Filtration, test_filt: Filtration) -> Fraction:
    """Hilbert-Mumford weight: minus the filtration pairing."""
    return -filtration_pairing(tower, point_filt, test_filt)


# ---------------------------------------------------------------------------
# verifier context

@dataclass(frozen=True)
class TestDatum:
    """One rational test filtration with its orbit label and witness datum."""

    orbit_index: int
    kind: str  # "subspace" or "flag"
    subspace: Subspace | None
    flag: FlagPoint | None
    filtration: Filtration


@dataclass
class SlopeReport:
    point_index: int
    destabilizers: tuple[tuple[TestDatum, Fraction], ...]

    @property
    def verdict(self) -> bool:
        return not self.destabilizers


@dataclass
class VerifierContext:
    gd: GroupData
    m: int
    tower: FieldTower
    n: int
    mode: str  # "split" or "u3"
    points: list[FlagPoint]
    tests: list[TestDatum]
    hermitian: HermitianData | None
    point_filts: list[Filtration]

    @cached_property
    def point_spaces(self) -> dict[Subspace, int]:
        """The distinct proper subspaces of the points' filtrations, numbered."""
        spaces = dict.fromkeys(s for f in self.point_filts for s in f.spaces[:-1])
        return {s: k for k, s in enumerate(spaces)}

    @cached_property
    def test_annihilators(self) -> dict[Subspace, tuple]:
        """Ann(W) for each distinct proper subspace W of the test filtrations."""
        spaces = dict.fromkeys(w for t in self.tests for w in t.filtration.spaces[:-1])
        return {w: annihilator(self.tower, w) for w in spaces}

    @cached_property
    def incidence(self) -> dict[Subspace, list[int]]:
        """Per test subspace W, dim(S cap W) for every point subspace S, listed
        in ``point_spaces`` order: one ``meet_dim`` per distinct pair."""
        return {
            w: [meet_dim(self.tower, s, ann) for s in self.point_spaces]
            for w, ann in self.test_annihilators.items()
        }

    @cached_property
    def test_containment(self) -> dict[Subspace, frozenset[Subspace]]:
        """Per test subspace W, the test subspaces S inside it (S . Ann(W)^T = 0)."""
        anns = self.test_annihilators
        return {
            w: frozenset(s for s in anns if s.dim <= w.dim and lies_in(self.tower, s, ann))
            for w, ann in anns.items()
        }

    @cached_property
    def destabilizer_table(self) -> list[tuple[tuple[int, Fraction], ...]]:
        """Per point, the (test index, slope) pairs with negative slope, in
        test order: the negative entries of the point x test slope matrix.

        ``filtration_pairing`` sums a_i b_j over the graded pieces; summed by
        parts it is sum_ij alpha_i beta_j dim(F_i cap G_j) with alpha_i =
        a_i - a_(i+1) and beta_j = b_j - b_(j+1) (zero past the last step).
        The last step of either filtration is the ambient space, so only the
        proper-by-proper terms read the incidence table; the others are
        dimensions.  Weights are scaled by the lcm of the point weights'
        denominators times that of the test weights', so every pairing is an
        integer P and the slope is -P / scale."""
        filts = self.point_filts
        if not filts:
            return []
        weights = filts[0].weights
        if any(f.weights != weights for f in filts):
            raise ValueError("every point must carry mu's weights")
        point_scale = lcm(*(w.denominator for w in weights))
        test_scale = lcm(*(w.denominator for t in self.tests for w in t.filtration.weights))
        scale = point_scale * test_scale
        *alpha, alpha_last = _weight_steps(weights, point_scale)
        alpha_dims = sum(a * s.dim for a, s in zip(alpha, filts[0].spaces))
        positions = [[self.point_spaces[f.spaces[i]] for f in filts] for i in range(len(alpha))]
        inc = self.incidence
        rows: list[list[tuple[int, Fraction]]] = [[] for _ in filts]
        slopes: dict[int, Fraction] = {}
        for k, test in enumerate(self.tests):
            *beta, beta_last = _weight_steps(test.filtration.weights, test_scale)
            spaces = test.filtration.spaces[:-1]
            const = beta_last * alpha_dims + alpha_last * (
                sum(b * w.dim for b, w in zip(beta, spaces)) + beta_last * self.n
            )
            g = [0] * len(self.point_spaces)
            for b, w in zip(beta, spaces):
                g = [x + b * c for x, c in zip(g, inc[w])]
            totals = [const] * len(filts)
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
    if gd.datum.cartan_type[0][1] == 2 and gd.action.order == 2:
        return "u3"
    return None


def build_verifier(gd: GroupData, m: int, budget: int = 10**7) -> VerifierContext:
    """Enumerate the points over the degree-m extension of the reflex field
    and the full rational test set."""
    mode = verifier_mode(gd)
    if mode is None:
        raise ValueError("brute force supports split SL_n and quasi-split U_3 only")
    if m < 1:
        raise ValueError("m must be at least 1")
    tower = make_tower(gd.q, check_verifier_budget(gd, m, budget))
    n = gd.datum.ambient_dim
    weights, dims = mu_flag_type(gd.mu.coords)

    if mode == "split":
        points = enumerate_flag_points(tower, n, weights, dims, budget=budget)
        tests = []
        for d in range(1, n):
            for sub in enumerate_subspaces(tower, n, d, subfield_deg=1, budget=budget):
                tests.append(
                    TestDatum(
                        orbit_index=gd.orbits_delta.orbit_of_root(d - 1),
                        kind="subspace",
                        subspace=sub,
                        flag=None,
                        filtration=subspace_coweight_filtration(tower, sub, n),
                    )
                )
        hermitian = None
    else:
        s = gd.muclass.e_degree * m  # total Frobenius power defining the point field
        hermitian = HermitianData(tower=tower, n=n)
        if s % 2 == 1:
            if dims not in ((), (1, 2)):
                raise AssertionError("a twist-fixed conjugacy class must give full flags")
            if not dims:
                points = [FlagPoint(chain=(), weights=weights)]
            else:
                points = enumerate_twisted_fixed_flags(hermitian, weights, conj_power=s, budget=budget)
                expected = gd.q ** (3 * s) + 1
                assert len(points) == expected, (len(points), expected)
                assert all(hermitian.is_fixed(x, s) for x in points)
        else:
            # flags rational over F_{q^s} inside the tower
            points = enumerate_flag_points(tower, n, weights, dims, subfield_deg=s, budget=budget)
        tests = []
        for f in _rational_unitary_flags(hermitian, budget):
            tests.append(
                TestDatum(
                    orbit_index=0,
                    kind="flag",
                    subspace=None,
                    flag=f,
                    filtration=flag_filtration(tower, f, n),
                )
            )
        assert len(tests) == gd.q**3 + 1, (len(tests), gd.q**3 + 1)

    point_filts = [flag_filtration(tower, x, n) for x in points]
    return VerifierContext(
        gd=gd, m=m, tower=tower, n=n, mode=mode,
        points=points, tests=tests, hermitian=hermitian, point_filts=point_filts,
    )


def check_verifier_budget(gd: GroupData, m: int, budget: int) -> int:
    """Refuse a verifier run before anything is enumerated: the flag or line
    count and the field tower's tables, the largest of which has one entry
    per element, must fit the budget.  Returns the degree over F_q of the
    tower the points live in.  Every non-central mu has at least size + 1
    flags or lines, so the table check binds only when that count is tiny."""
    n = gd.datum.ambient_dim
    _, dims = mu_flag_type(gd.mu.coords)
    q, t = gd.q, gd.muclass.e_degree
    s = t * m  # total Frobenius power defining the point field
    if verifier_mode(gd) == "split":
        ext, count, what = m, flag_count(n, dims, q**m), "flags"
    elif s % 2 == 1:
        # twist-fixed flags are found by scanning the lines over F_{q^2m}
        ext, count, what = 2 * m, gaussian_binomial(n, 1, q ** (2 * m)) if dims else 1, "twisted lines"
    else:
        ext, count, what = 2 * m if t == 2 else m, flag_count(n, dims, q**s), "flags"
    if count > budget:
        raise BudgetError(f"{count} {what} exceed budget {budget}")
    if q**ext > budget:
        raise BudgetError(f"{q**ext}-entry field tables of F_{q**ext} exceed budget {budget}")
    return ext


def _rational_unitary_flags(herm: HermitianData, budget: int) -> list[FlagPoint]:
    """Flags fixed by the single-step twisted Frobenius: the rational chambers."""
    t = herm.tower
    out = []
    weights = (Fraction(1), Fraction(0), Fraction(-1))
    for line in enumerate_subspaces(t, herm.n, 1, subfield_deg=2, budget=budget):
        v = line.rows[0]
        if herm.form_value(v, v, 1) != 0:
            continue
        plane = herm.perp(line, 1)
        assert contains(t, plane, line)
        flag = FlagPoint(chain=(line, plane), weights=weights)
        assert herm.is_fixed(flag, 1)
        out.append(flag)
    return out


def is_semistable(ctx: VerifierContext, index: int) -> SlopeReport:
    """Slope verdict for one enumerated point; slope 0 counts as semistable."""
    row = ctx.destabilizer_table[index]
    return SlopeReport(point_index=index, destabilizers=tuple((ctx.tests[k], v) for k, v in row))


def brute_force_ss_count(ctx: VerifierContext) -> int:
    return len(semistable_indices(ctx))


def semistable_indices(ctx: VerifierContext) -> list[int]:
    return [i for i in range(len(ctx.points)) if is_semistable(ctx, i).verdict]


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
    test_of = {t.subspace: j for j, t in enumerate(ctx.tests)}
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
    holds the coordinate flag of its weight levels."""
    if ctx.mode != "split":
        raise ValueError("cell decomposition requires a split instance")
    gd = ctx.gd
    rep_invariants = {}
    for p in gd.mu_orbit:
        inv = _relative_position(ctx, coordinate_filtration(ctx.tower, p.vec.coords).spaces[:-1])
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


# ---------------------------------------------------------------------------
# sampled invariants

def frobenius_equivariance_holds(ctx: VerifierContext) -> bool:
    """Frobenius permutes the enumerated points and, fixing every rational
    test, keeps each point's row of destabilizers."""
    lookup = {x: i for i, x in enumerate(ctx.points)}
    table = ctx.destabilizer_table
    for i, x in enumerate(ctx.points):
        j = lookup.get(frobenius_point(x, ctx.tower, ctx.hermitian))
        if j is None or table[i] != table[j]:
            return False
    return True


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
    g = [[0] * n for _ in range(n)]
    for i in range(d):
        for j in range(d):
            g[i][j] = a[i][j]
        for j in range(d, n):
            g[i][j] = rng.choice(subfield)
    for i in range(d, n):
        for j in range(d, n):
            g[i][j] = c[i - d][j - d]
    return g


def apply_matrix_to_subspace(tower: FieldTower, g, sub: Subspace) -> Subspace:
    rows = []
    for v in sub.rows:
        img = [0] * len(v)
        for i in range(len(v)):
            acc = 0
            for j in range(len(v)):
                acc = tower.add(acc, tower.mul(g[i][j], v[j]))
            img[i] = acc
        rows.append(img)
    return subspace_from_rows(tower, rows, sub.ncols)


def apply_matrix_to_point(tower: FieldTower, g, x: FlagPoint) -> FlagPoint:
    return FlagPoint(
        chain=tuple(apply_matrix_to_subspace(tower, g, s) for s in x.chain),
        weights=x.weights,
    )


def parabolic_invariance_sample(ctx: VerifierContext, seed: int, samples: int = 20) -> bool:
    """Spot-check that rational parabolic moves do not change the slope
    against the parabolic's own coweight filtration."""
    if ctx.mode != "split":
        return True
    rng = random.Random(seed)
    n = ctx.n
    for _ in range(samples):
        x = ctx.points[rng.randrange(len(ctx.points))]
        d = rng.randrange(1, n)
        test = subspace_coweight_filtration(ctx.tower, ctx.standard_subspaces[d - 1], n)
        g = random_parabolic_element(ctx.tower, n, d, rng)
        gx = apply_matrix_to_point(ctx.tower, g, x)
        before = slope(ctx.tower, flag_filtration(ctx.tower, x, n), test)
        after = slope(ctx.tower, flag_filtration(ctx.tower, gx, n), test)
        if before != after:
            return False
    return True
