"""Destabilizing subcomplexes of the rational Tits complex and their homology.

The vertices are a point's destabilizing rational tests, by index in the
order of its row of the destabilizer table, the simplices the chains of
tests, each test's last subspace strictly inside the next one's first, as
the lattice's ``above`` lists them at the tests' positions.  For the
special linear group a test is one subspace, so these are chains under
inclusion; for the quasi-split unitary group on 3 variables a test is a
chamber, and a plane lies in no line, so the subcomplex is its vertex set.
Homology is reduced and rational, by exact rank computation: a k-simplex
is its k + 1 signed faces, one row of ``row_reduce`` per simplex.

A sweep skips the semistable points, whose rows of the destabilizer table
are empty, and builds every other point's complex from its own
destabilizers, but computes homology, and its check that the signed faces
of each simplex's faces cancel, once per distinct simplices tuple: both
depend on nothing else, and many points share one.
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


def boundary_matrices(complex_: TitsSubcomplex) -> list[list[dict[int, int]]]:
    """Each simplex's signed faces, per simplex dimension: a k-simplex is
    ``{index of its face in dimension k - 1: (-1)^d}``, the face dropping its
    d-th vertex, and a vertex is the augmentation's ``{0: 1}``."""
    maps = [[{0: 1} for _ in level] for level in complex_.simplices[:1]]
    for lower, level in zip(complex_.simplices, complex_.simplices[1:]):
        index = {s: i for i, s in enumerate(lower)}
        maps.append([{index[s[:d] + s[d + 1 :]]: (-1) ** d for d in range(len(s))} for s in level])
    return maps


def reduced_homology(complex_: TitsSubcomplex) -> tuple[int, ...]:
    """Reduced rational Betti numbers, one per simplex dimension present,
    each face map ranked by its simplices' faces (rank of the transpose)."""
    if complex_.num_vertices == 0:
        raise ValueError("empty complex")
    faces = boundary_matrices(complex_)
    # check the complex property while we are at it
    if not all(map(_composes_to_zero, faces, faces[1:])):
        raise AssertionError("boundary of boundary is nonzero")
    ranks = [len(row_reduce(f)) for f in faces] + [0]
    return tuple(len(level) - ranks[k] - ranks[k + 1] for k, level in enumerate(complex_.simplices))


def _composes_to_zero(lower: list[dict[int, int]], upper: list[dict[int, int]]) -> bool:
    """Whether the signed faces of each simplex's signed faces cancel."""
    for simplex in upper:
        total: dict[int, int] = {}
        for f, sign in simplex.items():
            for g, x in lower[f].items():
                total[g] = total.get(g, 0) + sign * x
        if any(total.values()):
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
