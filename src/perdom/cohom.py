"""Graded cohomology tables: sign sets, minimal parabolic labels, dimensions.

Everything here is exact: set membership is decided by the signs of
``<w mu, omega_J>``, omega_J the sum of the fundamental weights over a Galois
orbit J, read as integer dot products with the points' Dynkin labels (no
invariant form enters: ``(v, G^-1 omega)_G = <v, omega>`` for any Gram
matrix G, so every form's orbit coweight gives the same signs); dimensions are
integer polynomials in q, from Solomon's identity over the label sets with
the number of positive roots on each read off the datum's positive roots;
and the point-count series is an integer for every extension degree.
``assemble_cohomology`` is the one path to the table; replaying each orbit
point's word with reflection matrices and pairing it with the fundamental
weights in exact rationals is the tests' oracle for its signs.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import lcm
from operator import add, sub
from typing import NamedTuple

from .galois import (
    DeltaOrbits,
    GaloisAction,
    WOrbit,
    build_galois_action,
    delta_orbits,
    gamma_e,
    split_action,
    weyl_orbits,
)
from .rootdata import LatticeVec, RootDatum, build_root_datum, cocharacter, mat_inv
from .weyl import OrbitPoint, coweight_orbit, dominant_representative


class DimPoly(NamedTuple):
    """Integer polynomial in q, coefficients in ascending degree order."""

    coeffs: tuple[int, ...]

    def trim(self) -> "DimPoly":
        c = list(self.coeffs)
        while c and c[-1] == 0:
            c.pop()
        return DimPoly(tuple(c))

    def __add__(self, other: "DimPoly") -> "DimPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return DimPoly(tuple(x + y for x, y in zip(a, b))).trim()

    def __call__(self, q: int) -> int:
        return sum(c * q**k for k, c in enumerate(self.coeffs))


class GroupData:
    """A full problem instance: root datum, twist, dominant cocharacter, q."""

    def __init__(self, datum: RootDatum, action: GaloisAction, orbits_delta: DeltaOrbits,
                 mu: LatticeVec, dominance_normalized: bool, mu_orbit: tuple[OrbitPoint, ...],
                 e_degree: int, worbits: tuple[WOrbit, ...], q: int):
        self.datum, self.action, self.orbits_delta = datum, action, orbits_delta
        self.mu, self.dominance_normalized, self.mu_orbit = mu, dominance_normalized, mu_orbit
        self.e_degree, self.worbits, self.q = e_degree, worbits, q

    @property
    def d_prime(self) -> int:
        return self.orbits_delta.d_prime

    @property
    def is_split(self) -> bool:
        return self.action.is_trivial

    @property
    def q_e(self) -> int:
        return self.q ** self.e_degree

    @cached_property
    def sign_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per Galois orbit J, integer coefficients b with
        ``sum_i b_i <v, alpha_i>`` a positive multiple of ``<v, omega_J>``,
        omega_J the sum of the fundamental weights omega_j, j in J.

        ``omega_j = sum_i (A^-1)_ij alpha_i`` for the Cartan matrix A, so the
        pairing is a dot product of the summed columns of A^-1 with v's Dynkin
        labels; clearing denominators keeps its sign.  Under any invariant
        form it is the sign of v against J's orbit coweight, the form-dual of
        omega_J."""
        a_inv = mat_inv(self.datum.cartan_matrix)
        rows = []
        for orbit in self.orbits_delta.orbits:
            coeffs = [sum(row[j] for j in orbit) for row in a_inv]
            scale = lcm(*(c.denominator for c in coeffs))
            rows.append(tuple(int(c * scale) for c in coeffs))
        return tuple(rows)

    def scaled_pairing(self, point: OrbitPoint, orbit_index: int) -> int:
        """``<w mu, omega_J>`` for the orbit J, up to a positive factor fixed per orbit."""
        return sum(b * c for b, c in zip(self.sign_rows[orbit_index], point.labels))

    @cached_property
    def dim_polys(self) -> dict[frozenset[int], tuple[DimPoly, DimPoly]]:
        """``all_dim_polys`` of this instance, computed once."""
        return all_dim_polys(self)


def build_group_data(
    cartan_spec,
    mu_coords,
    q: int,
    twist: tuple | None = None,
) -> GroupData:
    """Assemble a problem instance; mu is conjugated dominant up front."""
    datum = build_root_datum(cartan_spec)
    if twist is None:
        action = split_action(datum)
    else:
        perm, order = twist
        action = build_galois_action(datum, tuple(int(p) - 1 for p in perm), int(order))
    orbits = delta_orbits(datum, action)
    mu_in = cocharacter(mu_coords)
    if mu_in.dim != datum.ambient_dim:
        raise ValueError(f"mu must have length {datum.ambient_dim}")
    mu, labels, moved = dominant_representative(datum, mu_in)
    points = coweight_orbit(datum, labels)
    e_degree = gamma_e(action, labels)
    worb = weyl_orbits(points, action, e_degree)
    return GroupData(
        datum=datum,
        action=action,
        orbits_delta=orbits,
        mu=mu,
        dominance_normalized=moved,
        mu_orbit=points,
        e_degree=e_degree,
        worbits=worb,
        q=q,
    )


# ---------------------------------------------------------------------------
# sign sets and the assembled table

def label_sets(gd: GroupData) -> list[frozenset[int]]:
    """Every set of Galois orbits of simple roots, by size, then lexicographically."""
    d = gd.d_prime
    return [frozenset(I) for k in range(d + 1) for I in itertools.combinations(range(d), k)]


def omega_I(gd: GroupData, I: frozenset[int]) -> tuple[WOrbit, ...]:
    """Orbits whose pairing against every coweight outside I is strictly
    positive: those whose minimal label set lies in I."""
    return tuple(o for o in gd.worbits if minimal_I(gd, o) <= I)


def minimal_I(gd: GroupData, orbit: WOrbit) -> frozenset[int]:
    """Smallest label set admitting the orbit: the non-positive pairing columns."""
    return frozenset(
        k for k in range(gd.d_prime) if gd.scaled_pairing(orbit.rep, k) <= 0
    )


class CohomologySummand(NamedTuple):
    orbit: WOrbit
    I: frozenset[int]
    degree: int
    twist: int
    galois_dim: int


class CohomologyTable(NamedTuple):
    d_prime: int
    summands: tuple[CohomologySummand, ...]


def _summand_sort_key(s: CohomologySummand):
    return (s.degree, s.twist, sorted(s.I), s.orbit.rep.word)


def assemble_cohomology(gd: GroupData) -> CohomologyTable:
    """One summand per orbit, placed by length and by the size of its label set."""
    summands = []
    for orbit in gd.worbits:
        I = minimal_I(gd, orbit)
        degree = 2 * orbit.length + (gd.d_prime - len(I))
        summands.append(
            CohomologySummand(
                orbit=orbit,
                I=I,
                degree=degree,
                twist=orbit.length,
                galois_dim=orbit.size,
            )
        )
    summands.sort(key=_summand_sort_key)
    return CohomologyTable(d_prime=gd.d_prime, summands=tuple(summands))


# ---------------------------------------------------------------------------
# dimension polynomials

def all_dim_polys(gd: GroupData) -> dict[frozenset[int], tuple[DimPoly, DimPoly]]:
    """(induced, quotient) dimension polynomials for every label subset.

    P_J sums q^l(w) over the sigma-fixed w in W_J.  Solomon's identity, the
    sum over K in J of (-1)^|K| P_J / P_K = q^N_J with N_J the positive roots
    supported on J's orbits (Solomon, *J. Algebra* 3, 1966; for twisted
    groups the Steinberg degree, Carter, *Finite Groups of Lie Type*, 6.4),
    gives 1 / P_J as an integer power series from the 1 / P_K below it.
    The induced module of I has dimension [G^F : P_I^F] = P_all / P_I; the
    quotient v_I is the alternating sum of the induced ones above I.  Label
    sets are bitmasks over the orbits; ``GroupData.dim_polys`` caches the result.
    """
    d = gd.d_prime
    orbit_of = {i: k for k, J in enumerate(gd.orbits_delta.orbits) for i in J}
    roots = gd.datum.positive_coefficients
    supports = [sum({1 << orbit_of[i] for i, c in enumerate(beta) if c}) for beta in roots]
    top = len(supports)
    n = [sum(1 for s in supports if not s & ~J) for J in range(1 << d)]
    # f[J] = 1 / P_J up to q^top; each proper subset K of J is a smaller
    # bitmask, and P_J (rest + (-1)^|J| f_J) = q^N_J gives f_J from rest
    f = [[1] + [0] * top]
    for J in range(1, 1 << d):
        rest, K = [0] * (top + 1), J
        while K:
            K = (K - 1) & J
            rest = list(map(sub if K.bit_count() % 2 else add, rest, f[K]))
        sign, f_J = (-1) ** J.bit_count(), []
        for k in range(top + 1):
            f_J.append(sign * ((f_J[k - n[J]] if k >= n[J] else 0) - rest[k]))
        f.append(f_J)
    induced = []
    for I in range(1 << d):
        ratio = []  # f_I / f_all = P_all / P_I, which has degree top - N_I
        for k in range(top + 1 - n[I]):
            ratio.append(f[I][k] - sum(f[-1][j] * ratio[k - j] for j in range(1, k + 1)))
        induced.append(ratio)
    quotient = list(induced)
    for k in range(d):
        for I in range(1 << d):
            if not I >> k & 1:
                above = quotient[I | 1 << k]
                quotient[I] = [a - b for a, b in itertools.zip_longest(quotient[I], above, fillvalue=0)]
    return {
        frozenset(k for k in range(d) if I >> k & 1): (DimPoly(tuple(ind)), DimPoly(tuple(quo)).trim())
        for I, (ind, quo) in enumerate(zip(induced, quotient))
    }


def dim_induced(gd: GroupData, I: frozenset[int]) -> DimPoly:
    """Point count of the I-parabolic quotient as a polynomial in q.

    For split instances this is the classical parabolic Poincare polynomial.
    """
    return gd.dim_polys[I][0]


def dim_v(gd: GroupData, I: frozenset[int]) -> DimPoly:
    """q^l(w) summed over the sigma-fixed w whose left descents are the orbits off I."""
    return gd.dim_polys[I][1]


# ---------------------------------------------------------------------------
# point-count series

def lefschetz_series(gd: GroupData, table: CohomologyTable, m: int) -> int:
    """Predicted number of semistable points over the degree-m extension of E.

    Sums (-1)^degree * dim * trace over the summands, where the trace of the
    m-th Frobenius power on an f-element orbit module is f when f divides m
    and 0 otherwise, and each Tate twist contributes q_E^(m * twist).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    total = 0
    for s in table.summands:
        f = s.galois_dim
        trace = f if m % f == 0 else 0
        if trace == 0:
            continue
        total += (-1) ** s.degree * dim_v(gd, s.I)(gd.q) * trace * gd.q_e ** (m * s.twist)
    return total
