"""Destabilizing subcomplexes and their reduced rational homology."""

import collections
import itertools
from pathlib import Path

import pytest

from helpers import INSTANCES, instance, point_chains, rational_filtrations, reference_t_x, verifier
from perdom import cli
from perdom import complex as complex_module
from perdom.cohom import build_group_data
from perdom.finflag import FlagLevels
from perdom.complex import (
    SemistablePointError,
    TitsSubcomplex,
    acyclicity_sweep,
    boundary_matrices,
    build_t_x,
    reduced_homology,
)
from perdom.rootdata import row_reduce
from perdom.semistable import build_verifier, is_semistable, semistable_indices, verifier_mode

ROOT = Path(__file__).resolve().parent.parent


def test_single_vertex_is_acyclic():
    c = TitsSubcomplex(vertex_keys=("v",), simplices=(((0,),),))
    assert reduced_homology(c) == (0,)


def test_two_disjoint_vertices():
    c = TitsSubcomplex(vertex_keys=("a", "b"), simplices=(((0,), (1,)),))
    assert reduced_homology(c) == (1,)


def test_hollow_triangle_has_a_circle():
    c = TitsSubcomplex(
        vertex_keys=(0, 1, 2),
        simplices=(((0,), (1,), (2,)), ((0, 1), (0, 2), (1, 2))),
    )
    assert reduced_homology(c) == (0, 1)


def test_filled_triangle_is_acyclic():
    c = TitsSubcomplex(
        vertex_keys=(0, 1, 2),
        simplices=(((0,), (1,), (2,)), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),)),
    )
    assert reduced_homology(c) == (0, 0, 0)


def test_boundary_of_boundary_vanishes():
    c = TitsSubcomplex(
        vertex_keys=(0, 1, 2),
        simplices=(((0,), (1,), (2,)), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),)),
    )
    faces = boundary_matrices(c)
    d1, d2 = faces[1], faces[2]
    # each triangle's faces' faces, entry by entry over the vertices
    for triangle in d2:
        for i in range(len(c.simplices[0])):
            assert sum(x * d1[k].get(i, 0) for k, x in triangle.items()) == 0


def test_homology_refuses_a_boundary_that_does_not_square_to_zero(monkeypatch):
    # the solid tetrahedron: one sign flipped anywhere in any boundary past
    # the augmentation leaves a face whose boundary's boundary is nonzero
    c = TitsSubcomplex(
        vertex_keys=(0, 1, 2, 3),
        simplices=tuple(tuple(itertools.combinations(range(4), k)) for k in range(1, 5)),
    )
    assert reduced_homology(c) == (0, 0, 0, 0)
    faces = boundary_matrices(c)
    flips = 0
    for k in range(1, len(faces)):
        for i, simplex in enumerate(faces[k]):
            for face, x in simplex.items():
                flipped = [[dict(s) for s in level] for level in faces]
                flipped[k][i][face] = -x
                monkeypatch.setattr(complex_module, "boundary_matrices", lambda _, f=flipped: f)
                with pytest.raises(AssertionError, match="boundary of boundary is nonzero"):
                    reduced_homology(c)
                flips += 1
    assert flips == 6 * 2 + 4 * 3 + 1 * 4


def test_homology_ranks_each_simplex_by_its_faces(monkeypatch):
    # SL_5 with mu = (1,1,1,0,0) at m = 1: the first unstable point's
    # complex reaches the kernel as one row per k-simplex, its k + 1 faces
    ctx = build_verifier(build_group_data([("A", 4)], [1, 1, 1, 0, 0], 2), 1)
    c = build_t_x(ctx, next(i for i, row in enumerate(ctx.destabilizer_table) if row))
    assert tuple(map(len, c.simplices)) == (60, 290, 420, 189)
    received = []

    def recording(rows):
        received.append(list(rows))
        return row_reduce(received[-1])

    monkeypatch.setattr(complex_module, "row_reduce", recording)
    assert reduced_homology(c) == (0, 0, 0, 0)
    assert [len(rows) for rows in received] == [len(level) for level in c.simplices]
    for k, rows in enumerate(received):
        assert all(isinstance(row, dict) and len(row) <= k + 1 for row in rows), k


def test_build_rejects_semistable_points():
    ctx = verifier("a1_reg", 2)
    ss = semistable_indices(ctx)
    with pytest.raises(SemistablePointError):
        build_t_x(ctx, ss[0])


def test_t_x_rational_point_of_p1_is_single_vertex():
    ctx = verifier("a1_reg", 1)
    c = build_t_x(ctx, 0)
    assert c.num_vertices == 1 and len(c.simplices) == 1


def test_t_x_rational_point_of_p2_is_a_cone():
    ctx = verifier("a2_min", 1)
    c = build_t_x(ctx, 0)
    # the point's own line plus every rational plane through it
    assert c.num_vertices == 1 + 3
    assert len(c.simplices[1]) == 3  # line-plane incidences
    assert reduced_homology(c) == (0, 0)


def test_t_x_standard_flag_contains_both_subspaces():
    ctx = verifier("a2_reg", 1)
    std = next(
        i
        for i, x in enumerate(point_chains(ctx))
        if x[0].rows == ((1, 0, 0),) and x[1].rows == ((1, 0, 0), (0, 1, 0))
    )
    c = build_t_x(ctx, std)
    tests = rational_filtrations(ctx)
    dims = sorted(tests[k].chain[0].dim for k in c.vertex_keys)
    assert 1 in dims and 2 in dims
    assert all(b == 0 for b in reduced_homology(c))


def test_u3_complexes_are_single_chambers():
    ctx = verifier("u3_reg", 2)
    for i in range(len(ctx.points)):
        if not is_semistable(ctx, i):
            continue
        c = build_t_x(ctx, i)
        assert c.num_vertices == 1
        assert reduced_homology(c) == (0,)


def test_euler_characteristic_consistency():
    ctx = verifier("a2_reg", 2)
    for i in range(0, len(ctx.points), 7):
        if not is_semistable(ctx, i):
            continue
        c = build_t_x(ctx, i)
        betti = reduced_homology(c)
        assert sum((-1) ** k * len(level) for k, level in enumerate(c.simplices)) == 1 + sum(
            (-1) ** k * b for k, b in enumerate(betti)
        )


def test_sweep_reports():
    rep = acyclicity_sweep(verifier("a1_reg", 2))
    assert rep.all_acyclic
    assert rep.non_semistable == 3
    assert len(rep.per_point) == 3
    rep = acyclicity_sweep(verifier("a2_min", 2))
    assert rep.all_acyclic and rep.non_semistable == 21


@pytest.mark.parametrize("name,m", [("a2_reg", 2), ("a2_min", 2), ("u3_reg", 2), ("a3_mid", 1)])
def test_sweep_betti_numbers_match_each_points_complex(name, m):
    ctx = verifier(name, m)
    rep = acyclicity_sweep(ctx)
    assert rep.per_point
    for row in rep.per_point:
        c = build_t_x(ctx, row["point"])
        assert row["simplices"] == tuple(len(level) for level in c.simplices)
        assert row["betti"] == reduced_homology(c)


def _counted_homology(monkeypatch, betti=None):
    seen = []

    def counted(complex_):
        seen.append(complex_.simplices)
        return betti(complex_) if betti else reduced_homology(complex_)

    monkeypatch.setattr(complex_module, "reduced_homology", counted)
    return seen


@pytest.mark.parametrize("name,m", [("a2_reg", 2), ("u3_reg", 2), ("a3_mid", 1)])
def test_sweep_computes_homology_once_per_distinct_complex(monkeypatch, name, m):
    ctx = verifier(name, m)
    seen = _counted_homology(monkeypatch)
    rep = acyclicity_sweep(ctx)
    distinct = {build_t_x(ctx, row["point"]).simplices for row in rep.per_point}
    assert len(seen) == len(set(seen)) == len(distinct) < len(rep.per_point)


def test_sweep_reports_every_point_of_a_cyclic_complex(monkeypatch):
    ctx = verifier("a2_reg", 2)
    shared = collections.Counter(
        build_t_x(ctx, i).simplices for i in range(len(ctx.points))
        if is_semistable(ctx, i)
    )
    bad, count = shared.most_common(1)[0]
    assert count > 1
    _counted_homology(monkeypatch, lambda c: (1,) + (0,) * (len(c.simplices) - 1)
                      if c.simplices == bad else reduced_homology(c))
    rep = acyclicity_sweep(ctx)
    assert len(rep.violations) == count
    assert all(build_t_x(ctx, v["point"]).simplices == bad for v in rep.violations)
    assert all(row["betti"][0] == 1 for row in rep.violations)
    first = acyclicity_sweep(ctx, fail_fast=True)
    assert first.violations == rep.violations[:1]
    assert first.per_point[-1] == rep.violations[0]


@pytest.mark.parametrize("name,m", [("a2_reg", 2), ("a3_mid", 1), ("a3_reg", 1), ("u3_reg", 2)])
def test_a_sweep_reads_no_position_in_the_lattice(monkeypatch, name, m):
    # a test is its chain of positions in the lattice, so once the
    # destabilizer table is built the complexes read inclusions from the
    # lattice's ``above`` at those positions, looking up no subspace
    ctx = build_verifier(instance(name), m)
    ctx.destabilizer_table
    lattice, original = ctx.lattice, FlagLevels.position

    def guarded(levels):
        if levels is lattice:
            raise AssertionError("the lattice's position was read")
        return original.func(levels)

    monkeypatch.setattr(FlagLevels, "position", property(guarded))
    rep = acyclicity_sweep(ctx)
    assert rep.all_acyclic and rep.non_semistable > 0
    assert any(len(row["simplices"]) > 1 for row in rep.per_point) == (ctx.mode == "split")


def test_sweep_builds_a_complex_only_for_each_non_semistable_point(monkeypatch):
    # the semistable points are skipped by their empty rows of the
    # destabilizer table, with no complex built for them
    ctx = verifier("a2_reg", 2)
    built = []

    def counted(ctx, index):
        built.append(index)
        return build_t_x(ctx, index)

    monkeypatch.setattr(complex_module, "build_t_x", counted)
    rep = acyclicity_sweep(ctx)
    assert 0 < rep.non_semistable < rep.total_points
    assert len(built) == rep.non_semistable
    assert sorted(built) == [i for i, row in enumerate(ctx.destabilizer_table) if row]


def _old_key(test):
    """A test's vertex key in the per-model construction of ``reference_t_x``."""
    if len(test.chain) == 1:
        return ("subspace", test.chain[0].dim, test.chain[0].rows)
    return ("chamber",) + tuple(s.rows for s in test.chain)


VERIFIER_CATALOG = [name for name in INSTANCES if verifier_mode(instance(name)) is not None]


@pytest.mark.parametrize("source,m", [
    *((f"specs/{name}.json", m) for name in ("sl3_flags", "sl3_minuscule", "u3") for m in (1, 2, 3)),
    ("bench/specs/sl4_mid.json", 1), ("bench/specs/sl4_grass.json", 1),
    *((name, m) for name in VERIFIER_CATALOG for m in (1, 2)),
])
def test_t_x_equals_the_per_model_construction(source, m):
    gd = cli.instantiate(cli.load_spec(str(ROOT / source))) if source.endswith(".json") else instance(source)
    ctx = build_verifier(gd, m)
    tests = rational_filtrations(ctx)
    for i in range(len(ctx.points)):
        if not is_semistable(ctx, i):
            continue
        c = build_t_x(ctx, i)
        keys, simplices = reference_t_x(ctx, i)
        # the vertices come in the order of the point's row, the reference's
        # sorted by its own key: the same complex up to that relabelling
        assert c.vertex_keys == tuple(k for k, _ in is_semistable(ctx, i))
        assert sorted(_old_key(tests[k]) for k in c.vertex_keys) == list(keys), (source, m, i)
        index = [keys.index(_old_key(tests[k])) for k in c.vertex_keys]
        relabelled = tuple(tuple(sorted(tuple(index[v] for v in s) for s in level)) for level in c.simplices)
        assert relabelled == simplices, (source, m, i)
