"""Quasi-split Galois twist: diagram automorphisms, orbit coweights, W-orbits.

The Galois group is cyclic, generated by one Cartan-preserving permutation of
the simple roots.  Its action on Kostant representatives is conjugation; since
the reflex subgroup fixes mu, that is the linear action on the points ``w mu``
of mu's W-orbit, checked to stay inside the orbit.  A diagram automorphism
permutes the simple roots and keeps pairings, so on points it permutes their
integer Dynkin labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rootdata import (
    InnerProduct,
    LatticeVec,
    Matrix,
    RootDatum,
    fundamental_coweights,
    identity_matrix,
    inner_product_default,
    mat_inv,
    mat_mul,
    mat_vec,
    nullspace,
    vec_add,
)
from .weyl import OrbitPoint, is_dominant


@dataclass(frozen=True)
class GaloisAction:
    """A cyclic group of diagram automorphisms with its linear realization."""

    perm: tuple[int, ...]
    order: int
    matrix: Matrix

    @property
    def is_trivial(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def power(self, k: int) -> Matrix:
        m = identity_matrix(len(self.matrix))
        for _ in range(k % self.order):
            m = mat_mul(self.matrix, m)
        return m


@dataclass(frozen=True)
class DeltaOrbits:
    """Partition of the simple roots into Galois orbits, with coweights."""

    orbits: tuple[tuple[int, ...], ...]
    twisted_coweights: tuple[LatticeVec, ...]
    labels: tuple[str, ...]

    @property
    def d_prime(self) -> int:
        return len(self.orbits)


@dataclass(frozen=True)
class MuClass:
    """A dominant cocharacter with its reflex data inside the cyclic Galois group."""

    mu: LatticeVec
    e_degree: int
    gamma_e_order: int


@dataclass(frozen=True)
class WOrbit:
    """An orbit of Kostant representatives, as W-orbit points, under the reflex subgroup."""

    rep: OrbitPoint
    members: tuple[OrbitPoint, ...]
    size: int
    length: int


def _perm_order(perm: tuple[int, ...]) -> int:
    order = 1
    n = len(perm)
    current = list(range(n))
    while True:
        current = [perm[i] for i in current]
        if current == list(range(n)):
            return order
        order += 1


def split_action(datum: RootDatum) -> GaloisAction:
    return build_galois_action(datum, tuple(range(datum.rank)), 1)


def build_galois_action(datum: RootDatum, perm, order: int) -> GaloisAction:
    """Isometric linear extension of a Cartan-preserving simple-root permutation.

    The matrix permutes simple coroots according to ``perm`` and is the
    identity on the orthogonal complement of their span.
    """
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(datum.rank)):
        raise ValueError("perm must be a permutation of the simple roots")
    a = datum.cartan_matrix
    for i in range(datum.rank):
        for j in range(datum.rank):
            if a[perm[i]][perm[j]] != a[i][j]:
                raise ValueError("perm does not preserve the Cartan matrix")
    base = _perm_order(perm)
    if order < 1 or order % base != 0:
        raise ValueError(f"order {order} is not a positive multiple of ord(perm) = {base}")

    # complete the coroots to a basis by the dot-orthogonal complement of
    # their span; it is also orthogonal for the invariant (block-scalar) form,
    # so the matrix is the identity on the invariant complement
    coroots = [c.coords for c in datum.simple_coroots]
    complement = nullspace(coroots, datum.ambient_dim)
    b = tuple(zip(*coroots, *complement))
    t = tuple(zip(*(coroots[p] for p in perm), *complement))
    matrix = mat_mul(t, mat_inv(b))

    action = GaloisAction(perm=perm, order=order, matrix=matrix)
    _validate_action(datum, action)
    return action


def _validate_action(datum: RootDatum, action: GaloisAction) -> None:
    for i in range(datum.rank):
        if mat_vec(action.matrix, datum.simple_coroots[i].coords) != datum.simple_coroots[action.perm[i]].coords:
            raise AssertionError("matrix does not permute simple coroots as declared")
        if mat_vec(action.matrix, datum.simple_roots[i].coords) != datum.simple_roots[action.perm[i]].coords:
            raise AssertionError("matrix does not permute simple roots as declared")
    if action.power(action.order) != identity_matrix(datum.ambient_dim):
        raise AssertionError("matrix order does not divide the declared order")


def delta_orbits(datum: RootDatum, action: GaloisAction, ip: InnerProduct | None = None) -> DeltaOrbits:
    """Galois orbits on Delta and the literal orbit-summed coweights.

    Each coweight is the sum over all ``order`` group elements, so an orbit
    member appears with multiplicity order/|orbit|; only positivity matters
    downstream, and that is unaffected.
    """
    ip = ip or inner_product_default(datum)
    seen: set[int] = set()
    orbits: list[tuple[int, ...]] = []
    for i in range(datum.rank):
        if i in seen:
            continue
        orbit = []
        j = i
        while j not in orbit:
            orbit.append(j)
            j = action.perm[j]
        seen.update(orbit)
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: o[0])

    coweights = fundamental_coweights(datum, ip)
    twisted = []
    for orbit in orbits:
        base = coweights[orbit[0]].coords
        total = tuple(Fraction(0) for _ in range(datum.ambient_dim))
        for k in range(action.order):
            total = vec_add(total, mat_vec(action.power(k), base))
        twisted.append(LatticeVec(coweights[0].side, total))
    labels = tuple(f"a{k + 1}" for k in range(len(orbits)))
    return DeltaOrbits(orbits=tuple(orbits), twisted_coweights=tuple(twisted), labels=labels)


def gamma_e(datum: RootDatum, action: GaloisAction, mu: LatticeVec) -> MuClass:
    """Reflex data of a dominant cocharacter: [E:k] and the stabilizer order."""
    if not is_dominant(datum, mu):
        raise ValueError("mu must be dominant")
    t = next(
        k for k in range(1, action.order + 1)
        if mat_vec(action.power(k), mu.coords) == mu.coords
    )
    if action.order % t != 0:
        raise AssertionError("stabilizer index does not divide the group order")
    return MuClass(mu=mu, e_degree=t, gamma_e_order=action.order // t)


def weyl_orbits(
    points: tuple[OrbitPoint, ...],
    action: GaloisAction,
    muclass: MuClass,
) -> tuple[WOrbit, ...]:
    """Orbits of the points ``w mu`` under the linear action of the reflex subgroup.

    The generator sigma^e carries alpha_i to alpha_(perm^e i) and keeps
    pairings, so it acts on Dynkin labels by moving label i to place perm^e i.
    """
    image_of = list(range(len(action.perm)))
    for _ in range(muclass.e_degree):
        image_of = [action.perm[j] for j in image_of]
    source = sorted(range(len(image_of)), key=image_of.__getitem__)
    by_labels = {p.labels: p for p in points}
    seen: set[tuple[int, ...]] = set()
    orbits: list[WOrbit] = []
    for p in points:
        if p.labels in seen:
            continue
        members = []
        current = p
        while current.labels not in seen:
            seen.add(current.labels)
            members.append(current)
            image = tuple(current.labels[j] for j in source)
            if image not in by_labels:
                raise AssertionError("orbit escaped the W-orbit of mu; inconsistent action")
            current = by_labels[image]
        if len({m.length for m in members}) != 1:
            raise AssertionError("orbit members have unequal lengths")
        if muclass.gamma_e_order % len(members) != 0:
            raise AssertionError("orbit size does not divide the reflex group order")
        members.sort(key=lambda m: (m.length, m.word))
        orbits.append(
            WOrbit(rep=members[0], members=tuple(members), size=len(members), length=members[0].length)
        )
    orbits.sort(key=lambda o: (o.length, o.rep.word))
    if sum(o.size for o in orbits) != len(points):
        raise AssertionError("orbits do not partition the W-orbit of mu")
    return tuple(orbits)
