"""Destabilizing subcomplexes of the rational Tits complex and their homology.

The vertices are a point's destabilizing rational tests, the simplices the
chains of tests, each test's last subspace strictly inside the next one's
first.  For the special linear group a test is one subspace, so these are
chains under inclusion; for the quasi-split unitary group on 3 variables a
test is a chamber, and a plane lies in no line, so the subcomplex is its
vertex set.  Homology is reduced and rational, by exact rank computation.

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
    """Simplices grouped by dimension; a simplex is a tuple of vertex indices."""

    vertex_keys: tuple
    simplices: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_keys)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(level) for k, level in enumerate(self.simplices))


def build_t_x(ctx: VerifierContext, index: int) -> TitsSubcomplex:
    """The subcomplex spanned by everything that destabilizes one point, its
    vertices the destabilizing tests, by their chains' dimensions and rows."""
    report = is_semistable(ctx, index)
    if report.verdict:
        raise SemistablePointError(f"point {index} is semistable; the complex is empty")
    # a point's destabilizers are distinct tests already
    tests = sorted((t for t, _ in report.destabilizers),
                   key=lambda t: tuple((s.dim, s.rows) for s in t.chain))
    return TitsSubcomplex(vertex_keys=tuple(tests), simplices=_chain_simplices(ctx, tests))


def _chain_simplices(ctx: VerifierContext, tests: list) -> tuple:
    """All chains of tests, each test's last subspace strictly inside the next
    one's first, per simplex dimension.  Comparing dimensions first keeps a
    model whose tests never chain from building ``test_containment``."""
    n = len(tests)
    lasts = [t.chain[-1] for t in tests]
    below = [
        [j for j in range(i) if lasts[j].dim < first.dim and lasts[j] in ctx.test_containment[first]]
        for i, first in enumerate(t.chain[0] for t in tests)
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
    if not a or not a[0] or not b or not b[0]:
        return True
    rows_a, cols_a = len(a), len(a[0])
    cols_b = len(b[0])
    assert len(b) == cols_a
    for i in range(rows_a):
        for j in range(cols_b):
            if sum(a[i][k] * b[k][j] for k in range(cols_a)) != 0:
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
