"""Shared instance catalog and cached builders for the test suite."""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
import signal
from dataclasses import dataclass
from fractions import Fraction

from perdom.cohom import (
    CohomologySummand,
    CohomologyTable,
    DimPoly,
    assemble_cohomology,
    build_group_data,
    omega_I,
)
from perdom.finflag import (
    FieldTower,
    FlagLevels,
    Subspace,
    _is_irreducible,
    _poly_mod,
    _poly_mul,
    annihilator,
    gaussian_binomial,
    enumerate_subspaces,
    rank,
    rref,
    subspace_from_rows,
)
from perdom.rootdata import (
    CHARACTER,
    COCHARACTER,
    LatticeVec,
    act_matrix,
    build_root_datum,
    character,
    mat_inv,
    mat_mul,
    mat_vec,
    pairing,
    row_reduce,
    simple_reflection_matrix,
    vec_add,
    vec_dot,
)
from perdom.semistable import (
    FlagPoint,
    VerifierContext,
    _weight_steps,
    build_verifier,
    is_semistable,
)
from perdom.weyl import act, nonzero_entries, reflect_labels


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError inside the block once ``seconds`` of wall time have
    passed, so a search that does not end fails its test instead of hanging
    the suite.  Uses SIGALRM: POSIX only, main thread only."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# name -> (cartan type, mu, q, twist)
INSTANCES = {
    "a1_reg": ((("A", 1),), (1, -1), 2, None),
    "a1_double": ((("A", 1),), (2, -2), 2, None),
    "a2_reg": ((("A", 2),), (1, 0, -1), 2, None),
    "a2_min": ((("A", 2),), (2, -1, -1), 2, None),
    "a2_min2": ((("A", 2),), (1, 1, -2), 2, None),
    "a3_mid": ((("A", 3),), (1, 0, 0, -1), 2, None),
    "a3_reg": ((("A", 3),), (3, 1, -1, -3), 2, None),
    "a3_min": ((("A", 3),), (1, 1, -1, -1), 2, None),
    "b2_min": ((("B", 2),), (1, 0), 2, None),
    "b2_reg": ((("B", 2),), (2, 1), 2, None),
    "g2_sing": ((("G", 2),), (1, 0, -1), 2, None),
    "a1a1_reg": ((("A", 1), ("A", 1)), (1, -1, 1, -1), 2, None),
    "u3_reg": ((("A", 2),), (1, 0, -1), 2, ((2, 1), 2)),
    "u3_min": ((("A", 2),), (2, -1, -1), 2, ((2, 1), 2)),
    "u4_mid": ((("A", 3),), (1, 0, 0, -1), 2, ((3, 2, 1), 2)),
    "u4_min": ((("A", 3),), (1, 1, -1, -1), 2, ((3, 2, 1), 2)),
    "res_sl2": ((("A", 1), ("A", 1)), (1, -1, 1, -1), 2, ((2, 1), 2)),
    "a2_central": ((("A", 2),), (0, 0, 0), 2, None),
    "u3_central": ((("A", 2),), (0, 0, 0), 2, ((2, 1), 2)),
    "a1a1_halfcentral": ((("A", 1), ("A", 1)), (1, -1, 0, 0), 2, None),
    "a2_redundant_e": ((("A", 2),), (1, 0, -1), 2, ((1, 2), 2)),
}

# instances where mu is noncentral on every k-simple factor: the strict
# bottom-degree shape (one Steinberg-type summand in degree d') must hold
STRICT_SHAPE = (
    "a1_reg", "a1_double", "a2_reg", "a2_min", "a2_min2",
    "a3_mid", "a3_reg", "a3_min", "b2_min", "b2_reg", "g2_sing", "a1a1_reg",
    "u3_reg", "u3_min", "u4_mid", "u4_min", "res_sl2",
)

DEGENERATE = ("a2_central", "u3_central", "a1a1_halfcentral")

SPLIT_NAMES = tuple(
    name for name, (_, _, _, twist) in INSTANCES.items()
    if twist is None or twist[0] == tuple(range(1, len(twist[0]) + 1))
)


def instance(name: str, q: int | None = None):
    return _instance(name, q or INSTANCES[name][2])


def table(name: str, q: int | None = None):
    return _table(name, q or INSTANCES[name][2])


# keyed on the resolved q, so instance(name) and instance(name, None) share one build
@functools.lru_cache(maxsize=None)
def _instance(name: str, q: int):
    ctype, mu, _, twist = INSTANCES[name]
    return build_group_data(list(ctype), list(mu), q, twist=twist)


@functools.lru_cache(maxsize=None)
def _table(name: str, q: int):
    return assemble_cohomology(_instance(name, q))


@functools.lru_cache(maxsize=None)
def verifier(name: str, m: int, q: int | None = None):
    return build_verifier(instance(name, q), m)


def summand_signature(gd, tbl):
    """Canonical comparable shape of a table."""
    return sorted(
        (s.degree, s.twist, tuple(sorted(s.I)), s.galois_dim) for s in tbl.summands
    )


# ---------------------------------------------------------------------------
# oracle for |W| and the number of positive roots, by type: the engine reads
# both off the closure of the simple roots under the Cartan matrix

# the degrees of the basic invariants of each family's Weyl group: their
# product is its order, and their sum less the rank is its number of
# positive roots (Humphreys, *Reflection Groups and Coxeter Groups*, 3.9)
_DEGREES = {
    "A": lambda rank: range(2, rank + 2),
    "B": lambda rank: range(2, 2 * rank + 1, 2),
    "C": lambda rank: range(2, 2 * rank + 1, 2),
    "D": lambda rank: itertools.chain(range(2, 2 * rank - 1, 2), (rank,)),
    "G": lambda rank: (2, 6),
}


def weyl_order(cartan_type) -> int:
    return math.prod(d for family, rank in cartan_type for d in _DEGREES[family](rank))


def num_positive_roots(cartan_type) -> int:
    return sum(d - 1 for family, rank in cartan_type for d in _DEGREES[family](rank))


def positive_roots(datum) -> tuple[LatticeVec, ...]:
    """All positive roots, as characters: each of the datum's coefficient
    vectors summed over the simple roots."""
    return tuple(
        character(sum(c * r.coords[k] for c, r in zip(coeffs, datum.simple_roots)) for k in range(datum.ambient_dim))
        for coeffs in datum.positive_coefficients
    )


def steinberg_dimension(gd) -> int:
    """Expected bottom-parabolic quotient dimension, q^(number of positive roots)."""
    return gd.q ** len(gd.datum.positive_coefficients)


def inversion_count(W, w, positives) -> int:
    """Number of positive roots the Weyl element w sends negative; must equal
    its word length.  An image that is not a root fails the lookup."""
    negative = {beta.coords: 0 for beta in positives}
    negative.update({tuple(-c for c in root): 1 for root in negative})
    return sum(negative[act(w, beta).coords] for beta in positives)


def ambient_cartan_matrix(datum) -> tuple[tuple[int, ...], ...]:
    """Every simple coroot paired with every simple root over the whole
    ambient space, the entries between two factors' blocks included."""
    return tuple(
        tuple(int(vec_dot(c.coords, r.coords)) for r in datum.simple_roots)
        for c in datum.simple_coroots
    )


# ---------------------------------------------------------------------------
# oracles for the engine's points, signs and twist: orbit points as vectors,
# orbit weights, invariant forms, and the twist as a linear map

def orbit_vec(gd, p) -> LatticeVec:
    """The coordinates of the orbit point ``w mu``, replaying the reduced word
    of w on the dominant mu with reflection matrices."""
    return _replay(gd.datum.cartan_type, gd.mu, p.word)


# keyed on the type, which fixes the datum and hashes far faster than it;
# every nonempty word extends its parent's by one letter in front, so the
# cached replays cost one matrix product per orbit point
@functools.lru_cache(maxsize=None)
def _replay(cartan_type, mu: LatticeVec, word: tuple[int, ...]) -> LatticeVec:
    if not word:
        return mu
    return act_matrix(_reflection(cartan_type, word[0]), _replay(cartan_type, mu, word[1:]))


@functools.lru_cache(maxsize=None)
def _reflection(cartan_type, i: int):
    return simple_reflection_matrix(build_root_datum(cartan_type), i)


def fundamental_weights(datum) -> tuple[LatticeVec, ...]:
    """Characters in the root span dual to the simple coroots."""
    a_inv = mat_inv(datum.cartan_matrix)
    weights = []
    for alpha in range(datum.rank):
        coeffs = [a_inv[j][alpha] for j in range(datum.rank)]
        vec = tuple(
            sum((c * r.coords[i] for c, r in zip(coeffs, datum.simple_roots)), Fraction(0))
            for i in range(datum.ambient_dim)
        )
        weights.append(LatticeVec(CHARACTER, vec))
    return tuple(weights)


def orbit_weight(gd, k: int) -> LatticeVec:
    """omega_J, the sum of the fundamental weights over the k-th Galois orbit J.

    ``<w mu, omega_J>`` in exact rationals is the oracle for the sign of
    ``gd.scaled_pairing(point, k)``; in type A under the trace form omega_J
    also has the coordinates of J's orbit coweight.
    """
    weights = fundamental_weights(gd.datum)
    coords = weights[gd.orbits_delta.orbits[k][0]].coords
    for j in gd.orbits_delta.orbits[k][1:]:
        coords = vec_add(coords, weights[j].coords)
    return LatticeVec(CHARACTER, coords)


def split_table(gd) -> CohomologyTable:
    """The table of a split instance with neither the labels of the orbit walk
    nor the engine's sign rows: each orbit point is replayed by ``orbit_vec``
    and paired with each ``orbit_weight`` in exact rationals.  I is the set of
    orbits whose weight pairs <= 0 with the point, and the degree is
    2 l + d - |I|."""
    if not gd.is_split:
        raise ValueError("split path requires a split instance")
    d = gd.d_prime
    weights = [orbit_weight(gd, k) for k in range(d)]
    summands = []
    for orbit in gd.worbits:
        p = orbit.rep
        vec = orbit_vec(gd, p)
        I = frozenset(k for k in range(d) if pairing(vec, weights[k]) <= 0)
        summands.append(CohomologySummand(orbit=orbit, I=I, degree=2 * p.length + d - len(I),
                                          twist=p.length, galois_dim=1))
    return CohomologyTable(d_prime=d, summands=tuple(summands))


_BLOCK_SIZE = {"A": lambda r: r + 1, "B": lambda r: r, "C": lambda r: r, "D": lambda r: r, "G": lambda r: 3}


def invariant_gram(datum, factors=None):
    """Gram matrix of a W-invariant form on the cocharacter space.

    On each factor's coordinate block it is the dot product, scaled so that
    the short coroots have squared length 2, then multiplied by
    ``factors[k]`` (default 1) on the k-th factor.
    """
    factors = [Fraction(f) for f in (factors or [1] * len(datum.cartan_type))]
    diagonal = []
    root = 0
    for (family, rank), factor in zip(datum.cartan_type, factors):
        coroots = datum.simple_coroots[root:root + rank]
        scale = 2 / min(vec_dot(c.coords, c.coords) for c in coroots)
        diagonal += [scale * factor] * _BLOCK_SIZE[family](rank)
        root += rank
    n = len(diagonal)
    return tuple(tuple(diagonal[i] if i == j else Fraction(0) for j in range(n)) for i in range(n))


def form_value(gram, u: LatticeVec, v: LatticeVec) -> Fraction:
    """(u, v) for the form with Gram matrix ``gram`` on cocharacters; its
    inverse is the Gram matrix of the induced form on characters."""
    if u.side != v.side:
        raise ValueError("mixed sides in inner product")
    g = gram if u.side == COCHARACTER else mat_inv(gram)
    return vec_dot(u.coords, mat_vec(g, v.coords))


def form_dual(gram, chi: LatticeVec) -> LatticeVec:
    """The cocharacter w with (v, w) = <v, chi> for every cocharacter v."""
    return LatticeVec(COCHARACTER, mat_vec(mat_inv(gram), chi.coords))


def dense_row_reduce(rows) -> tuple[list[list[Fraction]], list[int]]:
    """``row_reduce`` on dense rows: the reduced rows, dense, and their
    pivot columns."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    reduced = row_reduce({j: x for j, x in enumerate(r) if x} for r in rows)
    return [[row.get(j, Fraction(0)) for j in range(ncols)] for row in reduced.values()], list(reduced)


def nullspace(rows, ncols: int) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of the vectors dot-orthogonal to every row, one per free column."""
    reduced, pivots = dense_row_reduce(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        basis.append(tuple(v))
    return tuple(basis)


def solve_in_span(vectors, target):
    """Coefficients writing ``target`` in the span of ``vectors``, or None.

    The vectors must be linearly independent (they are simple roots).
    """
    k = len(vectors)
    rows, pivots = dense_row_reduce([list(v) + [t] for v, t in zip(zip(*vectors), target)])
    if pivots[:k] != list(range(k)):
        raise ValueError("dependent vectors")
    if len(pivots) > k:
        return None
    return tuple(row[k] for row in rows)


def twist_matrix(datum, perm):
    """The twist as a linear map on the cocharacter space: it permutes the
    simple coroots by ``perm`` (0-indexed) and fixes the dot-orthogonal
    complement of their span."""
    coroots = [c.coords for c in datum.simple_coroots]
    complement = nullspace(coroots, datum.ambient_dim)
    basis = tuple(zip(*coroots, *complement))
    image = tuple(zip(*(coroots[p] for p in perm), *complement))
    return mat_mul(image, mat_inv(basis))


# ---------------------------------------------------------------------------
# oracle for the dimension polynomials: one walk per label set, then the
# alternating sum over the larger label sets

def reference_dim_polys(gd) -> dict:
    """(induced, quotient) dimension polynomials for every label subset.

    The induced one sums q^l(w) over the sigma-fixed minimal representatives
    of W / W_I: the sigma-fixed points of the W-orbit of the Dynkin labels
    1 off I's orbits and 0 on them, walked one label set at a time.  The
    quotient one is the inclusion-exclusion over the larger label sets.
    """
    orbits = gd.orbits_delta.orbits
    rows = nonzero_entries(gd.datum.cartan_matrix)
    induced = {}
    for r in range(gd.d_prime + 1):
        for I in itertools.combinations(range(gd.d_prime), r):
            start = [1] * gd.datum.rank
            for k in I:
                for i in orbits[k]:
                    start[i] = 0
            induced[frozenset(I)] = _fixed_orbit_cells(rows, orbits, tuple(start))
    out = {}
    for I, ipoly in induced.items():
        rest = [k for k in range(gd.d_prime) if k not in I]
        v = DimPoly(())
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                term = induced[I | frozenset(extra)]
                v = v + DimPoly(tuple((-1) ** r * c for c in term.coeffs))
        out[I] = (ipoly, v)
    return out


def _fixed_orbit_cells(rows, orbits, start: tuple[int, ...]) -> DimPoly:
    """Sum of q^l(w) over the sigma-fixed points of the orbit of the dominant,
    sigma-invariant labels ``start``, crossing each sigma-orbit J of simple
    reflections on which a point's labels are positive, and keeping the
    points already seen."""
    counts: list[int] = []
    seen = {start}
    stack = [(start, 0)]
    while stack:
        labels, length = stack.pop()
        if length >= len(counts):
            counts.extend([0] * (length + 1 - len(counts)))
        counts[length] += 1
        for J in orbits:
            if labels[J[0]] <= 0:
                continue
            image, steps, ascents = labels, 0, J
            while ascents:
                image = reflect_labels(rows, image, ascents[0])
                steps += 1
                ascents = [j for j in J if image[j] > 0]
            if image not in seen:
                seen.add(image)
                stack.append((image, length + steps))
    return DimPoly(tuple(counts))


# ---------------------------------------------------------------------------
# the field tower's primitive element, found by walking every candidate

def walk_primitive(tower: FieldTower):
    """The powers of the least primitive g >= 2 and their logs, found by
    walking the powers of each candidate g = 2, 3, ... through a generic
    polynomial product until one returns to 1 only after size - 1 steps."""
    p, f, size = tower.p, tower.modulus, tower.size
    for g in range(2, size):
        exp, cur = [1], 1
        for _ in range(size - 1):
            product = _poly_mod(_poly_mul(tower._to_poly(cur), tower._to_poly(g), p), f, p)
            cur = tower._from_poly(product)
            if cur == 1:
                break
            exp.append(cur)
        if len(exp) == size - 1:
            log = [0] * size
            for i, v in enumerate(exp):
                log[v] = i
            return exp, log
    raise AssertionError("no primitive element found")


class WalkedTower(FieldTower):
    """A tower whose tables come from ``walk_primitive``."""
    _find_primitive = walk_primitive


def find_irreducible_by_lists(p: int, n: int) -> list[int]:
    """The first monic irreducible of degree n over F_p in
    ``itertools.product`` order of its tails, each candidate a coefficient
    list tested by the list-based Rabin test, for every p."""
    if n == 1:
        return [0, 1]
    for tail in itertools.product(range(p), repeat=n):
        f = list(tail) + [1]
        if f[0] and _is_irreducible(f, p):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {n} over F_{p}")


def zech_sub(tower: FieldTower, x: int, y: int) -> int:
    """x - y for odd p by Zech's logarithm alone, with no negation:
    x - g^l = x (1 + g^(l + half - log x)), since g^half = -1."""
    exp, log, zech = tower._exp, tower._log, tower._zech
    order = len(zech)
    if not y:
        return x
    ly = log[y] + order // 2
    if not x:
        return exp[ly % order]
    lx = log[x]
    z = zech[(ly - lx) % order]
    return 0 if z is None else exp[(lx + z) % order]


def matrix_times_subspace(tower: FieldTower, g, sub: Subspace) -> Subspace:
    """g . W, each entry of each product g v summed by one ``add`` and one
    ``mul`` per term."""
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


def subspaces_by_cells(tower: FieldTower, n: int, d: int, subfield_deg: int | None = None) -> list[Subspace]:
    """The d-dimensional subspaces of the n-space in canonical echelon form,
    one list of rows filled per subspace: per pivot pattern, the values of
    its free cells in row-major ``itertools.product`` order."""
    if d == 0:
        return [Subspace(rows=(), ncols=n)]
    elements = sorted(tower.subfield(subfield_deg)) if subfield_deg else list(tower.elements)
    out = []
    for pivots in itertools.combinations(range(n), d):
        free_cells = [(i, j) for i in range(d) for j in range(pivots[i] + 1, n) if j not in pivots]
        for values in itertools.product(elements, repeat=len(free_cells)):
            rows = [[0] * n for _ in range(d)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free_cells, values):
                rows[i][j] = v
            out.append(Subspace(rows=tuple(tuple(r) for r in rows), ncols=n))
    assert len(out) == gaussian_binomial(n, d, len(elements))
    return out


# ---------------------------------------------------------------------------
# per-pair oracles for the pairing kernel: one dot product or rank per call

def contains(tower: FieldTower, big: Subspace, small: Subspace) -> bool:
    if small.dim > big.dim:
        return False
    return rank(tower, list(big.rows) + list(small.rows)) == big.dim


def _dot(tower: FieldTower, u, v) -> int:
    add, mul = tower.add, tower.mul
    acc = 0
    for x, y in zip(u, v):
        if x and y:
            acc = add(acc, mul(x, y))
    return acc


def lies_in(tower: FieldTower, sub: Subspace, ann) -> bool:
    """S inside W, read from W's annihilator as S . Ann(W)^T = 0."""
    return not any(_dot(tower, row, a) for row in sub.rows for a in ann)


def meet_dim(tower: FieldTower, s: Subspace, s_ann, w: Subspace, w_ann) -> int:
    """dim(S cap W) from the two annihilators, read from whichever side needs
    no elimination: dim S - rank(S . Ann(W)^T) = dim W - rank(W . Ann(S)^T).
    When S is a line or W a hyperplane the first matrix has one row or one
    column, so its rank is whether some pairing is nonzero; when W is a line
    or S a hyperplane the second one has.  Otherwise the first is ranked.
    ``s_ann`` is never read when S is a line, so it may be None there."""
    if s.dim == 1 or len(w_ann) <= 1:
        return s.dim - (not lies_in(tower, s, w_ann))
    if w.dim == 1 or len(s_ann) <= 1:
        return w.dim - (not lies_in(tower, w, s_ann))
    return s.dim - rank(tower, [[_dot(tower, row, a) for a in w_ann] for row in s.rows])


def pairwise_flag_points(tower: FieldTower, n: int, dims, subfield_deg=None) -> list[tuple[Subspace, ...]]:
    """The chains of the flags with the given proper dimensions, every chain
    extended by testing each candidate of the next level with ``lies_in``,
    chain-major and in level order."""
    if not dims:
        return [()]
    levels = {d: enumerate_subspaces(tower, n, d, subfield_deg) for d in sorted(set(dims))}
    chains = [(s,) for s in levels[dims[0]]]
    for d in dims[1:]:
        level = [(cand, annihilator(tower, cand)) for cand in levels[d]]
        chains = [
            chain + (cand,) for chain in chains for cand, ann in level
            if lies_in(tower, chain[-1], ann)
        ]
    return chains


# ---------------------------------------------------------------------------
# oracles for rationality and the unitary group: subfield membership, the
# Frobenius on subspaces, kernels over the tower by elimination, the
# Hermitian form and its orthogonal complements, and the (twisted)
# Frobenius on flags

def is_k_rational(sub: Subspace, tower: FieldTower, subfield_deg: int = 1) -> bool:
    """Entries of the canonical basis lie in the subfield; equivalent to
    stability under the subfield Frobenius."""
    field = tower.subfield(subfield_deg)
    return all(x in field for row in sub.rows for x in row)


def frobenius_subspace(tower: FieldTower, sub: Subspace, times: int = 1) -> Subspace:
    """The image under x -> x^q applied ``times`` times.  The map fixes 0 and
    1 and is additive and multiplicative, so it takes the reduced echelon
    basis to the reduced echelon basis of the image, with the same pivots."""
    rows = tuple(tuple(tower.frobenius(x, times) for x in row) for row in sub.rows)
    return Subspace(rows=rows, ncols=sub.ncols)


def field_nullspace(tower: FieldTower, rows, ncols: int):
    """Canonical basis of the right kernel over the tower: ``rref`` of the
    annihilator of the rows' ``rref``."""
    reduced = rref(tower, rows)[0] if rows else ()
    basis = annihilator(tower, Subspace(rows=reduced, ncols=ncols))
    return rref(tower, basis)[0] if basis else ()


@dataclass(frozen=True)
class HermitianData:
    """Antidiagonal Hermitian form together with its twisted Frobenius.

    The form is h(x, y) = sum_i x_i conj(y)_{n+1-i} with conj the q-power map;
    the induced twist on flags sends a chain to the reversed chain of
    conjugate-perpendicular spaces.
    """

    tower: FieldTower
    n: int

    def perp(self, sub: Subspace, conj_power: int = 1) -> Subspace:
        """Conjugate-orthogonal complement {x : h(x, w) = 0 for w in sub}."""
        t = self.tower
        rows = [
            [t.frobenius(row[self.n - 1 - j], conj_power) for j in range(self.n)]
            for row in sub.rows
        ]
        return Subspace(rows=field_nullspace(t, rows, self.n), ncols=self.n)

    def twisted_frobenius(self, x: tuple[Subspace, ...]) -> tuple[Subspace, ...]:
        return tuple(self.perp(frobenius_subspace(self.tower, s, 1), 0) for s in reversed(x))

    def is_fixed(self, x: tuple[Subspace, ...], steps: int) -> bool:
        cur = x
        for _ in range(steps):
            cur = self.twisted_frobenius(cur)
        return cur == x


def hermitian_form(herm: HermitianData, u, v, conj_power: int = 1) -> int:
    """h(u, v) = sum_i u_i conj(v_(n-1-i)), conj the q^conj_power-power map."""
    t = herm.tower
    total = 0
    for i in range(herm.n):
        total = t.add(total, t.mul(u[i], t.frobenius(v[herm.n - 1 - i], conj_power)))
    return total


def frobenius_point(x: tuple[Subspace, ...], tower: FieldTower,
                    hermitian: HermitianData | None = None) -> tuple[Subspace, ...]:
    """Arithmetic Frobenius on a flag's chain, twisted when Hermitian data is attached."""
    if hermitian is not None:
        return hermitian.twisted_frobenius(x)
    return tuple(frobenius_subspace(tower, s, 1) for s in x)


def flag_chains(levels: FlagLevels, flags) -> list[tuple[Subspace, ...]]:
    """Flags given as positions, the i-th in the i-th level of ``levels``,
    decoded into their chains of subspaces."""
    return [tuple(level[k] for level, k in zip(levels.levels.values(), x)) for x in flags]


def point_chains(ctx: VerifierContext) -> list[tuple[Subspace, ...]]:
    """Every point of a verifier context as its chain of subspaces."""
    return flag_chains(ctx.point_levels, ctx.points)


def rational_filtrations(ctx: VerifierContext) -> list[FlagPoint]:
    """Every rational test of a verifier context as the weighted flag of its
    subspaces, its position chain decoded through ``ctx.lattice``."""
    levels = ctx.lattice.levels
    return [FlagPoint(chain=tuple(levels[d][k] for d, k in chain), weights=weights, n=ctx.n)
            for chain, weights in ctx.tests]


def subspace_positions(levels: FlagLevels) -> dict[Subspace, int]:
    """Each member of a family of subspaces by its index in its level."""
    return {s: k for level in levels.levels.values() for k, s in enumerate(level)}


def position_tests(lattice: FlagLevels, filtrations) -> list[tuple[tuple, tuple]]:
    """Weighted flags of ``lattice``'s members as a context's tests: each
    chain as its (dimension, position) pairs, with its weights."""
    position = subspace_positions(lattice)
    return [(tuple((s.dim, position[s]) for s in f.chain), f.weights) for f in filtrations]


def incidence_by_subspace(ctx: VerifierContext) -> dict[Subspace, list[list[int]]]:
    """The incidence table keyed by each test subspace itself, decoded
    through ``ctx.lattice``, in the table's order."""
    return {ctx.lattice.levels[d][k]: columns for (d, k), columns in ctx.incidence.items()}


def levels_of(tower: FieldTower, subspaces) -> FlagLevels:
    """The distinct subspaces of a family, grouped by dimension in order of
    first appearance, as one ``FlagLevels``."""
    levels: dict[int, list[Subspace]] = {}
    for s in dict.fromkeys(subspaces):
        levels.setdefault(s.dim, []).append(s)
    return FlagLevels(tower, levels)


def weighted_point(ctx: VerifierContext, x: tuple[Subspace, ...]) -> FlagPoint:
    """A point's chain with mu's weights, as the reference ``slope`` takes it."""
    return FlagPoint(chain=x, weights=ctx.weights, n=ctx.n)


def frobenius_equivariance_holds(ctx: VerifierContext) -> bool:
    """Frobenius (twisted for the unitary group) permutes the enumerated
    points and, fixing every rational test, keeps each point's row of
    destabilizers."""
    hermitian = HermitianData(tower=ctx.tower, n=ctx.n) if ctx.mode == "u3" else None
    chains = point_chains(ctx)
    lookup = {x: i for i, x in enumerate(chains)}
    table = ctx.destabilizer_table
    for i, x in enumerate(chains):
        j = lookup.get(frobenius_point(x, ctx.tower, hermitian))
        if j is None or table[i] != table[j]:
            return False
    return True


# ---------------------------------------------------------------------------
# per-point oracles for the destabilizer table, the strata and the Bruhat
# cells: one list of totals per test, one row, set or invariant per point

def destabilizer_rows_by_point(ctx: VerifierContext) -> list[tuple]:
    """Per point, its (test index, slope) pairs with negative slope in test
    order, every point's total built in a list per test and read point by
    point."""
    points, weights = ctx.points, ctx.weights
    point_scale = math.lcm(*(w.denominator for w in weights))
    tests = rational_filtrations(ctx)
    inc = incidence_by_subspace(ctx)
    test_scale = math.lcm(*(w.denominator for t in tests for w in t.weights))
    scale = point_scale * test_scale
    *alpha, alpha_last = _weight_steps(weights, point_scale)
    alpha_dims = sum(a * s.dim for a, s in zip(alpha, ctx.chain(0)))
    rows: list[list] = [[] for _ in points]
    for k, test in enumerate(tests):
        *beta, beta_last = _weight_steps(test.weights, test_scale)
        const = beta_last * alpha_dims + alpha_last * (
            sum(b * w.dim for b, w in zip(beta, test.chain)) + beta_last * ctx.n
        )
        totals = [const] * len(points)
        for i, (a, level) in enumerate(zip(alpha, ctx.point_levels.levels.values())):
            g = [0] * len(level)
            for b, w in zip(beta, test.chain):
                g = [x + b * c for x, c in zip(g, inc[w][i])]
            h = [a * x for x in g]
            totals = [t + h[x[i]] for t, x in zip(totals, points)]
        for i, total in enumerate(totals):
            if total > 0:
                rows[i].append((k, Fraction(-total, scale)))
    return [tuple(r) for r in rows]


def y_I_points_by_row(ctx: VerifierContext, rows, I: frozenset[int]) -> frozenset[int]:
    """The points whose row of ``rows`` lists the test of every standard
    subspace E_(k+1) with k outside I, one set of test indices per point."""
    test_of = {t.chain[0]: j for j, t in enumerate(rational_filtrations(ctx))}
    wanted = {test_of[standard_subspaces(ctx.tower, ctx.n)[k]] for k in range(ctx.gd.d_prime) if k not in I}
    return frozenset(i for i, row in enumerate(rows) if wanted <= {j for j, _ in row})


def cell_row_by_point(ctx: VerifierContext, y, cells: dict, I: frozenset[int]) -> tuple[bool, int, int]:
    """The cell check's verdict, y_count and cell_union_count for I, from
    sets of points: the stratum ``y`` against the union of the cells of
    ``omega_I`` in ``cells``, a list of points per representative, with
    every cell's size checked against q^(m * length)."""
    q, m = ctx.gd.q, ctx.m
    union = {i for o in omega_I(ctx.gd, I) for i in cells[o.rep]}
    sizes_ok = all(len(idx) == q ** (m * p.length) for p, idx in cells.items())
    return set(y) == union and sizes_ok, len(y), len(union)


def coordinate_filtration(tower: FieldTower, coords) -> FlagPoint:
    """Weighted flag of a torus cocharacter: coordinate spans by weight level,
    each by elimination.  The level of the least weight spans every
    coordinate, so it is the whole space and not part of the chain."""
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


@functools.lru_cache(maxsize=None)
def standard_subspaces(tower: FieldTower, n: int) -> tuple[Subspace, ...]:
    """The coordinate subspaces E_1 ... E_(n-1) by elimination, apart from
    the lattice; ``[d - 1]`` is E_d, the span of the first d coordinate
    vectors."""
    return tuple(coordinate_filtration(tower, [1] * d + [0] * (n - d)).chain[0] for d in range(1, n))


@functools.lru_cache(maxsize=2)
def _coordinate_columns(ctx: VerifierContext):
    """The E_d's incidence columns, in d order, and each point subspace's
    index in its level, by a map built here; cached, as
    ``relative_position`` reads them once per point."""
    inc = incidence_by_subspace(ctx)
    return [inc[e] for e in standard_subspaces(ctx.tower, ctx.n)], subspace_positions(ctx.point_levels)


def relative_position(ctx: VerifierContext, chain: tuple[Subspace, ...]):
    """B-orbit invariant of a chain: per subspace, its intersection
    dimensions with E_1 ... E_(n-1), read from the incidence table at the
    subspace's index in its level."""
    columns, index = _coordinate_columns(ctx)
    return tuple(tuple(col[i][index[s]] for col in columns) for i, s in enumerate(chain))


def representative_invariants(ctx: VerifierContext, position=relative_position) -> dict:
    """Per cell representative ``w mu``, the invariant computed by
    ``position`` for the coordinate flag of its coordinates, the negated
    prefix sums of its labels."""
    flags = {p: coordinate_filtration(ctx.tower, itertools.accumulate((-c for c in p.labels), initial=0))
             for p in ctx.gd.mu_orbit}
    return {p: position(ctx, flag.chain) for p, flag in flags.items()}


def bruhat_cells_by_point(ctx: VerifierContext, position=relative_position) -> dict:
    """The Bruhat partition, each point's invariant computed by ``position``
    on its own and looked up among the representatives'."""
    rep_invariants = representative_invariants(ctx, position)
    by_inv = {inv: p for p, inv in rep_invariants.items()}
    assert len(by_inv) == len(rep_invariants)
    cells: dict = {p: [] for p in ctx.gd.mu_orbit}
    for i, x in enumerate(point_chains(ctx)):
        cells[by_inv[position(ctx, x)]].append(i)
    return cells


def strata_by_point(ctx: VerifierContext, rows, cells: dict) -> collections.Counter:
    """The points counted per (cell, missed set), from a partition into cells
    and each point's row of (test index, slope) pairs: its missed set holds
    the k whose standard subspace E_(k+1)'s test is absent from the row."""
    test_of = {t.chain[0]: j for j, t in enumerate(rational_filtrations(ctx))}
    standard = [test_of[e] for e in standard_subspaces(ctx.tower, ctx.n)]
    missed = [frozenset(k for k, j in enumerate(standard) if j not in dict(row)) for row in rows]
    return collections.Counter((p, missed[i]) for p, idx in cells.items() for i in idx)


# ---------------------------------------------------------------------------
# the destabilizing complex, built per model: subspaces chained by inclusion
# for SL_n, a bare vertex set of chambers for U_3; and its homology from the
# dense boundary matrices

def reference_t_x(ctx: VerifierContext, index: int) -> tuple[tuple, tuple]:
    """Vertex keys and simplices of a non-semistable point's complex: a
    split key is ("subspace", dim, rows), a unitary one ("chamber", line
    rows, plane rows), each model's vertices sorted by its own key."""
    tests = rational_filtrations(ctx)
    destabilizers = [tests[k] for k, _ in is_semistable(ctx, index)]
    assert destabilizers, index
    if ctx.mode == "split":
        subs = sorted({t.chain[0] for t in destabilizers}, key=lambda s: (s.dim, s.rows))
        keys = tuple(("subspace", s.dim, s.rows) for s in subs)
        # by elimination per pair, apart from ``FlagLevels.above``
        below = [[j for j in range(i) if contains(ctx.tower, subs[i], subs[j])] for i in range(len(subs))]
        levels = [[(i,) for i in range(len(subs))]]
        while True:
            nxt = [c + (j,) for c in levels[-1] for j in range(c[-1] + 1, len(subs)) if c[-1] in below[j]]
            if not nxt:
                break
            levels.append(nxt)
        return keys, tuple(tuple(level) for level in levels)
    flags = sorted(set(destabilizers), key=lambda f: tuple(s.rows for s in f.chain))
    keys = tuple(("chamber",) + tuple(s.rows for s in f.chain) for f in flags)
    return keys, (tuple((i,) for i in range(len(flags))),)


def dense_boundary_matrices(simplices) -> list[list[list[int]]]:
    """The boundary maps as dense matrices, a row per face and a column per
    simplex, with the augmentation in degree 0."""
    mats = [[[1] * len(simplices[0])]]
    for lower, level in zip(simplices, simplices[1:]):
        index = {s: i for i, s in enumerate(lower)}
        mat = [[0] * len(level) for _ in lower]
        for col, s in enumerate(level):
            for d in range(len(s)):
                mat[index[s[:d] + s[d + 1 :]]][col] = (-1) ** d
        mats.append(mat)
    return mats


def gauss_rank(mat) -> int:
    """Rank over Q by Gauss elimination in Fractions, apart from ``rootdata``."""
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense_reduced_homology(simplices) -> tuple[int, ...]:
    """Reduced rational Betti numbers from the dense boundary matrices."""
    ranks = [gauss_rank(m) for m in dense_boundary_matrices(simplices)] + [0]
    return tuple(len(level) - ranks[k] - ranks[k + 1] for k, level in enumerate(simplices))
