"""Destabilizing subcomplexes of the rational Tits complex and their homology.

The vertices are a point's destabilizing rational tests, by index in the
order of its row of the destabilizer table, the simplices the chains of
tests, each test's last subspace strictly inside the next one's first, as
the lattice's ``above`` lists them at the tests' positions.  For the
special linear group a test is one subspace, so these are chains under
inclusion; for the quasi-split unitary group on 3 variables a test is a
chamber, and a plane lies in no line, so the subcomplex is its vertex set.
Homology is reduced and rational, by exact rank computation.

A sweep skips the semistable points, whose rows of the destabilizer table
are empty, and builds every other point's complex from its own
destabilizers, but computes homology, and its check that the boundary
squares to zero, once per distinct simplices tuple: both depend on nothing
else, and many points share one.
"""

from __future__ import annotations

from typing import NamedTuple

from .rootdata import row_reduce
from .semistable import VerifierContext, is_semistable


class SemistablePointError(ValueError):
    """Raised when a destabilizing complex is requested at a semistable point."""


class TitsSubcomplex(NamedTuple):
    """Simplices grouped by dimension; a simplex is a tuple of indices into
    ``vertex_keys``, which are the vertices' test indices."""

    vertex_keys: tuple
    simplices: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_keys)


def build_t_x(ctx: VerifierContext, index: int) -> TitsSubcomplex:
    """The subcomplex spanned by everything that destabilizes one point, its
    vertices the destabilizing tests in the order of the point's row: test
    order, level by level, so a subspace comes before every larger one."""
    row = is_semistable(ctx, index)
    if not row:
        raise SemistablePointError(f"point {index} is semistable; the complex is empty")
    keys = tuple(k for k, _ in row)
    return TitsSubcomplex(vertex_keys=keys, simplices=_chain_simplices(ctx, [ctx.tests[k][0] for k in keys]))


def _chain_simplices(ctx: VerifierContext, chains: list) -> tuple:
    """All chains of tests, given by their position chains, each test's last
    subspace strictly inside the next one's first, per simplex dimension,
    the inclusions read from the lattice's ``above`` at their positions.
    Comparing dimensions first keeps a model whose tests never chain, as
    U_3's chambers, a plane after a line, from asking."""
    n = len(chains)
    lasts = [c[-1] for c in chains]
    above = ctx.lattice.above
    below = [
        [j for j, (lo, k) in enumerate(lasts[:i]) if lo < hi and pos in above(lo, hi)[k]]
        for i, (hi, pos) in enumerate(c[0] for c in chains)
    ]
    levels: list[list[tuple[int, ...]]] = [[(i,) for i in range(n)]]
    while True:
        # a chain extends by any later test containing its top member
        nxt = [
            chain + (j,)
            for chain in levels[-1]
            for j in range(chain[-1] + 1, n)
            if chain[-1] in below[j]
        ]
        if not nxt:
            break
        levels.append(nxt)
    return tuple(tuple(level) for level in levels)


def boundary_matrices(complex_: TitsSubcomplex) -> list[list[list[int]]]:
    """Boundary maps including the augmentation in degree 0."""
    mats = []
    aug = [[1 for _ in complex_.simplices[0]]] if complex_.simplices else [[]]
    mats.append(aug)
    for k in range(1, len(complex_.simplices)):
        lower_index = {s: i for i, s in enumerate(complex_.simplices[k - 1])}
        rows = len(complex_.simplices[k - 1])
        mat = [[0] * len(complex_.simplices[k]) for _ in range(rows)]
        for col, simplex in enumerate(complex_.simplices[k]):
            for drop in range(len(simplex)):
                face = simplex[:drop] + simplex[drop + 1 :]
                mat[lower_index[face]][col] = (-1) ** drop
        mats.append(mat)
    return mats


def reduced_homology(complex_: TitsSubcomplex) -> tuple[int, ...]:
    """Reduced rational Betti numbers, one per simplex dimension present."""
    if complex_.num_vertices == 0:
        raise ValueError("empty complex")
    mats = boundary_matrices(complex_)
    ranks = [len(row_reduce(m)[1]) for m in mats]
    # check the complex property while we are at it
    for k in range(len(mats) - 1):
        if not _composes_to_zero(mats[k], mats[k + 1]):
            raise AssertionError("boundary of boundary is nonzero")
    betti = []
    for k, level in enumerate(complex_.simplices):
        dim_ck = len(level)
        rank_in = ranks[k]
        rank_out = ranks[k + 1] if k + 1 < len(mats) else 0
        betti.append(dim_ck - rank_in - rank_out)
    return tuple(betti)


def _composes_to_zero(a, b) -> bool:
    """Whether a b = 0, each column of b read from its nonzero entries."""
    if not a or not a[0] or not b or not b[0]:
        return True
    assert len(b) == len(a[0])
    for column in zip(*b):
        entries = [(k, x) for k, x in enumerate(column) if x]
        if any(sum(row[k] * x for k, x in entries) for row in a):
            return False
    return True


class SweepReport(NamedTuple):
    m: int
    total_points: int
    non_semistable: int
    violations: tuple
    per_point: tuple

    @property
    def all_acyclic(self) -> bool:
        return not self.violations


def acyclicity_sweep(ctx: VerifierContext, fail_fast: bool = False) -> SweepReport:
    """Check that every non-semistable point has an acyclic destabilizing complex."""
    violations = []
    per_point = []
    non_ss = 0
    homology: dict[tuple, tuple[int, ...]] = {}
    for i, row in enumerate(ctx.destabilizer_table):
        if not row:
            continue
        non_ss += 1
        complex_ = build_t_x(ctx, i)
        if complex_.simplices not in homology:
            homology[complex_.simplices] = reduced_homology(complex_)
        betti = homology[complex_.simplices]
        counts = tuple(len(level) for level in complex_.simplices)
        per_point.append({"point": i, "simplices": counts, "betti": betti})
        if any(betti):
            violations.append({"point": i, "simplices": counts, "betti": betti})
            if fail_fast:
                break
    return SweepReport(
        m=ctx.m,
        total_points=len(ctx.points),
        non_semistable=non_ss,
        violations=tuple(violations),
        per_point=tuple(per_point),
    )
