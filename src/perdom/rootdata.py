"""Exact lattice-theoretic foundation: root data, pairings, simple reflections.

Coordinate models are fixed once per family so every downstream value is
reproducible bit for bit:

* A_{n-1}: sum-zero vectors in Q^n, alpha_i = e_i - e_{i+1};
* B_n, C_n, D_n: standard orthogonal coordinates on Q^n;
* G_2: the standard 3-dimensional model, alpha_1 = e_1 - e_2 short.

Direct products concatenate coordinate blocks.  All arithmetic is exact
rational; the sign tests downstream tolerate no rounding.  No invariant form
is kept: everything downstream is read from pairings and the Cartan matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, NamedTuple, Sequence

Vec = tuple[Fraction, ...]
Matrix = tuple[Vec, ...]

CHARACTER = "character"
COCHARACTER = "cocharacter"

WEYL_ORDER_BUDGET = 10**6


class UnsupportedTypeError(ValueError):
    """A Cartan family or rank outside the supported catalog."""


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget."""


# the enumeration budget when neither the spec nor the command line sets one
DEFAULT_BUDGET = 10**7


# ---------------------------------------------------------------------------
# small exact linear algebra over Q, with one elimination kernel

def frac_vec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in u)


def vec_dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mat_vec(m: Matrix, v: Vec) -> Vec:
    return tuple(vec_dot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product; each entry sums only its nonzero products."""
    bt = tuple(zip(*b))
    rows = [[(k, x) for k, x in enumerate(row) if x] for row in a]
    return tuple(
        tuple(sum([x * col[k] for k, x in nz if col[k]]) or Fraction(0) for col in bt)
        for nz in rows
    )


def row_reduce(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q: the nonzero rows and their pivot columns.

    The one exact elimination loop.  Entries may be ints or Fractions; only
    the pivots are inverted, and each normalized row comes back as Fractions.
    """
    work = [list(r) for r in rows if any(r)]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = Fraction(1, work[r][col])
        row = work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            f = work[i][col]
            if i != r and f:
                work[i] = [x - f * y for x, y in zip(work[i], row)]
        pivots.append(col)
    return work[: len(pivots)], pivots


def mat_inv(m: Matrix) -> Matrix:
    """Exact inverse, read off the reduced form of ``[m | 1]``."""
    n = len(m)
    rows, pivots = row_reduce([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows)


# ---------------------------------------------------------------------------
# domain types

class LatticeVec(NamedTuple("LatticeVec", [("side", str), ("coords", Vec)])):
    """A rational vector tagged with the space it lives in."""

    __slots__ = ()

    def __new__(cls, side: str, coords: Vec):
        if side not in (CHARACTER, COCHARACTER):
            raise ValueError(f"unknown side {side!r}")
        return super().__new__(cls, side, coords)

    @property
    def dim(self) -> int:
        return len(self.coords)


def character(values: Iterable) -> LatticeVec:
    return LatticeVec(CHARACTER, frac_vec(values))


def cocharacter(values: Iterable) -> LatticeVec:
    return LatticeVec(COCHARACTER, frac_vec(values))


class RootDatum(NamedTuple):
    """Simple roots and coroots of a product of classical factors.

    ``cartan_matrix[i][j]`` is the pairing of the i-th simple coroot with the
    j-th simple root, the convention under which B_2 with alpha_1 long reads
    [[2, -1], [-2, 2]].  ``positive_coefficients`` holds the positive roots
    as integer coefficient vectors over the simple roots, closed once from
    the Cartan matrix; the number of positive roots is its length.
    """

    cartan_type: tuple[tuple[str, int], ...]
    ambient_dim: int
    simple_roots: tuple[LatticeVec, ...]
    simple_coroots: tuple[LatticeVec, ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_coefficients: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    @property
    def weyl_order(self) -> int:
        """|W| = prod over the positive roots of (ht + 1) / ht, ht the sum of
        a root's coefficients (Macdonald, *Math. Ann.* 199, 1972)."""
        heights = [sum(c) for c in self.positive_coefficients]
        return prod(h + 1 for h in heights) // prod(heights)


_FAMILY_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2}


def _factor_data(family: str, rank: int):
    """Block size, simple roots and simple coroots of one factor in its own block."""
    e = lambda i, n: tuple(Fraction(int(j == i)) for j in range(n))
    if family == "A":
        n = rank + 1
        roots = [vec_sub(e(i, n), e(i + 1, n)) for i in range(rank)]
        coroots = [vec_sub(e(i, n), e(i + 1, n)) for i in range(rank)]
    elif family == "B":
        n = rank
        roots = [vec_sub(e(i, n), e(i + 1, n)) for i in range(rank - 1)]
        roots.append(e(rank - 1, n))
        coroots = [vec_sub(e(i, n), e(i + 1, n)) for i in range(rank - 1)]
        coroots.append(vec_scale(2, e(rank - 1, n)))
    elif family == "C":
        n = rank
        roots = [vec_sub(e(i, n), e(i + 1, n)) for i in range(rank - 1)]
        roots.append(vec_scale(2, e(rank - 1, n)))
        coroots = [vec_sub(e(i, n), e(i + 1, n)) for i in range(rank - 1)]
        coroots.append(e(rank - 1, n))
    elif family == "D":
        n = rank
        roots = [vec_sub(e(i, n), e(i + 1, n)) for i in range(rank - 1)]
        roots.append(vec_add(e(rank - 2, n), e(rank - 1, n)))
        coroots = [tuple(r) for r in roots]
    elif family == "G":
        n = 3
        roots = [frac_vec((1, -1, 0)), frac_vec((-2, 1, 1))]
        coroots = [frac_vec((1, -1, 0)), frac_vec((Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3)))]
    else:
        raise UnsupportedTypeError(f"family {family!r}")
    return n, roots, coroots


def build_root_datum(spec: Sequence[tuple[str, int]]) -> RootDatum:
    """Assemble the root datum of a product of classical factors.

    Rejects unsupported families or ranks, naming the offending component,
    and refuses types whose Weyl group would exceed the enumeration budget.
    A rank of at least the budget's bit length is refused before any
    coordinate is built: |W| >= 2^rank, since the products of distinct
    simple reflections in increasing order are distinct.  A smaller rank is
    refused by its exact order.
    """
    if not spec:
        raise UnsupportedTypeError("empty type")
    spec = tuple((str(f).upper(), int(r)) for f, r in spec)
    for idx, (family, rank) in enumerate(spec):
        if family not in _FAMILY_MIN_RANK:
            raise UnsupportedTypeError(f"component {idx}: family {family!r} not supported")
        if family == "G" and rank != 2:
            raise UnsupportedTypeError(f"component {idx}: G requires rank 2, got {rank}")
        if rank < _FAMILY_MIN_RANK[family]:
            raise UnsupportedTypeError(
                f"component {idx}: {family}_{rank} below minimal rank {_FAMILY_MIN_RANK[family]}"
            )
    refusal = UnsupportedTypeError(f"Weyl order exceeds budget {WEYL_ORDER_BUDGET}")
    total_rank = sum(rank for _, rank in spec)
    if total_rank >= WEYL_ORDER_BUDGET.bit_length():
        raise refusal

    blocks = [_factor_data(f, r) for f, r in spec]
    ambient = sum(b[0] for b in blocks)
    roots: list[LatticeVec] = []
    coroots: list[LatticeVec] = []
    cartan: list[tuple[int, ...]] = []
    offset = first = 0
    for n, broots, bcoroots in blocks:
        pad = lambda v: tuple([Fraction(0)] * offset + list(v) + [Fraction(0)] * (ambient - offset - n))
        roots.extend(character(pad(v)) for v in broots)
        coroots.extend(cocharacter(pad(v)) for v in bcoroots)
        # a factor's coroots pair to 0 with every other factor's roots, so
        # only its own block is paired, in block coordinates
        last = first + len(broots)
        for c in bcoroots:
            row = [0] * total_rank
            row[first:last] = [int(vec_dot(c, r)) for r in broots]
            cartan.append(tuple(row))
        offset, first = offset + n, last

    datum = RootDatum(
        cartan_type=spec,
        ambient_dim=ambient,
        simple_roots=tuple(roots),
        simple_coroots=tuple(coroots),
        cartan_matrix=tuple(cartan),
        positive_coefficients=positive_root_coefficients(cartan),
    )
    if datum.weyl_order > WEYL_ORDER_BUDGET:
        raise refusal
    return datum


# ---------------------------------------------------------------------------
# operations

def pairing(lam: LatticeVec, chi: LatticeVec) -> Fraction:
    """Natural pairing of a cocharacter with a character (exact, bilinear)."""
    if lam.side != COCHARACTER or chi.side != CHARACTER:
        raise ValueError("pairing expects (cocharacter, character)")
    if lam.dim != chi.dim:
        raise ValueError("ambient dimension mismatch")
    return vec_dot(lam.coords, chi.coords)


def simple_reflection_matrix(datum: RootDatum, i: int) -> Matrix:
    """Reflection in the i-th simple root, acting on the cocharacter space.

    In these coordinate models the same matrix gives the character action,
    because every reflection is orthogonal for the plain dot product.
    """
    alpha = datum.simple_roots[i].coords
    alpha_v = datum.simple_coroots[i].coords
    n = datum.ambient_dim
    return tuple(
        tuple(Fraction(int(r == c)) - alpha[r] * alpha_v[c] for c in range(n))
        for r in range(n)
    )


def act_matrix(m: Matrix, v: LatticeVec) -> LatticeVec:
    return LatticeVec(v.side, mat_vec(m, v.coords))


def positive_root_coefficients(cartan_matrix) -> tuple[tuple[int, ...], ...]:
    """The positive roots as sorted integer coefficient vectors over the
    simple roots: the simple roots closed under the positive images of
    ``s_i c = c - <alpha_i^v, c> e_i``, which reach every positive root."""
    rank = len(cartan_matrix)
    seen = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for c in frontier:
            for i, row in enumerate(cartan_matrix):
                k = sum(a * x for a, x in zip(row, c))
                image = c[:i] + (c[i] - k,) + c[i + 1:]
                if k and image[i] >= 0 and image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return tuple(sorted(seen))

