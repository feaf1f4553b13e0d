"""Shared instance catalog and cached builders for the test suite."""

from __future__ import annotations

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
)
from perdom.finflag import (
    FieldTower,
    FlagPoint,
    Subspace,
    _poly_mod,
    _poly_mul,
    annihilator,
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
from perdom.semistable import VerifierContext, build_verifier, is_semistable
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
    return CohomologyTable(d_prime=d, labels=gd.orbits_delta.labels, summands=tuple(summands))


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


def nullspace(rows, ncols: int) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of the vectors dot-orthogonal to every row, one per free column."""
    reduced, pivots = row_reduce(rows)
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
    rows, pivots = row_reduce([list(v) + [t] for v, t in zip(zip(*vectors), target)])
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
        v = DimPoly.zero()
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


def pairwise_flag_points(tower: FieldTower, n: int, weights, dims, subfield_deg=None) -> list[FlagPoint]:
    """The flags with the given proper dimensions, every chain extended by
    testing each candidate of the next level with ``lies_in``, chain-major
    and in level order."""
    weights = tuple(Fraction(w) for w in weights)
    if not dims:
        return [FlagPoint(chain=(), weights=weights, n=n)]
    levels = {d: enumerate_subspaces(tower, n, d, subfield_deg) for d in sorted(set(dims))}
    chains = [(s,) for s in levels[dims[0]]]
    for d in dims[1:]:
        level = [(cand, annihilator(tower, cand)) for cand in levels[d]]
        chains = [
            chain + (cand,) for chain in chains for cand, ann in level
            if lies_in(tower, chain[-1], ann)
        ]
    return [FlagPoint(chain=c, weights=weights, n=n) for c in chains]


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

    def twisted_frobenius(self, x: FlagPoint) -> FlagPoint:
        chain = tuple(
            self.perp(frobenius_subspace(self.tower, s, 1), 0)
            for s in reversed(x.chain)
        )
        return FlagPoint(chain=chain, weights=x.weights, n=x.n)

    def is_fixed(self, x: FlagPoint, steps: int) -> bool:
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


def frobenius_point(x: FlagPoint, tower: FieldTower, hermitian: HermitianData | None = None) -> FlagPoint:
    """Arithmetic Frobenius on a flag, twisted when Hermitian data is attached."""
    if hermitian is not None:
        return hermitian.twisted_frobenius(x)
    return FlagPoint(
        chain=tuple(frobenius_subspace(tower, s, 1) for s in x.chain),
        weights=x.weights,
        n=x.n,
    )


def frobenius_equivariance_holds(ctx: VerifierContext) -> bool:
    """Frobenius (twisted for the unitary group) permutes the enumerated
    points and, fixing every rational test, keeps each point's row of
    destabilizers."""
    hermitian = HermitianData(tower=ctx.tower, n=ctx.n) if ctx.mode == "u3" else None
    lookup = {x: i for i, x in enumerate(ctx.points)}
    table = ctx.destabilizer_table
    for i, x in enumerate(ctx.points):
        j = lookup.get(frobenius_point(x, ctx.tower, hermitian))
        if j is None or table[i] != table[j]:
            return False
    return True


# ---------------------------------------------------------------------------
# the destabilizing complex, built per model: subspaces chained by inclusion
# for SL_n, a bare vertex set of chambers for U_3

def reference_t_x(ctx: VerifierContext, index: int) -> tuple[tuple, tuple]:
    """Vertex keys and simplices of a non-semistable point's complex: a
    split key is ("subspace", dim, rows), a unitary one ("chamber", line
    rows, plane rows), each model's vertices sorted by its own key."""
    report = is_semistable(ctx, index)
    assert not report.verdict, index
    if ctx.mode == "split":
        subs = sorted({t.chain[0] for t, _ in report.destabilizers}, key=lambda s: (s.dim, s.rows))
        keys = tuple(("subspace", s.dim, s.rows) for s in subs)
        within = ctx.test_containment
        below = [[j for j in range(i) if subs[j] in within[subs[i]]] for i in range(len(subs))]
        levels = [[(i,) for i in range(len(subs))]]
        while True:
            nxt = [c + (j,) for c in levels[-1] for j in range(c[-1] + 1, len(subs)) if c[-1] in below[j]]
            if not nxt:
                break
            levels.append(nxt)
        return keys, tuple(tuple(level) for level in levels)
    flags = sorted({t for t, _ in report.destabilizers}, key=lambda f: tuple(s.rows for s in f.chain))
    keys = tuple(("chamber",) + tuple(s.rows for s in f.chain) for f in flags)
    return keys, (tuple((i,) for i in range(len(flags))),)
