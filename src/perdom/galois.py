"""Quasi-split Galois twist: diagram automorphisms, their orbits on Delta, W-orbits.

The Galois group is cyclic, generated by one Cartan-preserving permutation of
the simple roots.  Its action on Kostant representatives is conjugation; since
the reflex subgroup fixes mu, that is the action on the points ``w mu`` of
mu's W-orbit, checked to stay inside the orbit.  A diagram automorphism
permutes the simple roots and keeps pairings, so on points it permutes their
integer Dynkin labels, and the reflex degree is the least power of it fixing
mu's labels; no linear realisation of the twist is needed.
"""

from __future__ import annotations

from typing import NamedTuple

from .rootdata import RootDatum
from .weyl import OrbitPoint


class GaloisAction(NamedTuple):
    """A cyclic group of diagram automorphisms: the permutation ``perm`` of
    the simple roots, acting with period ``order``."""

    perm: tuple[int, ...]
    order: int

    @property
    def is_trivial(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def power(self, k: int) -> tuple[int, ...]:
        """sigma^k as a permutation: entry i is the image of alpha_i."""
        image = tuple(range(len(self.perm)))
        for _ in range(k % self.order):
            image = tuple(self.perm[i] for i in image)
        return image


class DeltaOrbits(NamedTuple):
    """Partition of the simple roots into Galois orbits, with their labels."""

    orbits: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    @property
    def d_prime(self) -> int:
        return len(self.orbits)


class WOrbit(NamedTuple):
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
    """A Cartan-preserving simple-root permutation, acting with period ``order``."""
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
    return GaloisAction(perm=perm, order=order)


def delta_orbits(datum: RootDatum, action: GaloisAction) -> DeltaOrbits:
    """Galois orbits on Delta, each sorted, in order of their least member."""
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
    labels = tuple(f"a{k + 1}" for k in range(len(orbits)))
    return DeltaOrbits(orbits=tuple(orbits), labels=labels)


def gamma_e(action: GaloisAction, labels: tuple[int, ...]) -> int:
    """The reflex degree e = [E:k] of the dominant cocharacter with Dynkin
    labels ``labels``: the least k with sigma^k fixing it.

    sigma^k fixes mu exactly when it fixes mu's Dynkin labels: every simple
    root is parallel to its coroot, so the labels fix mu's component in the
    coroot span, and the twist fixes the orthogonal complement (the centre).
    """
    if any(c < 0 for c in labels):
        raise ValueError("mu must be dominant")
    e = next(
        k for k in range(1, action.order + 1)
        if all(labels[p] == c for p, c in zip(action.power(k), labels))
    )
    if action.order % e != 0:
        raise AssertionError("stabilizer index does not divide the group order")
    return e


def weyl_orbits(points: tuple[OrbitPoint, ...], action: GaloisAction, e_degree: int) -> tuple[WOrbit, ...]:
    """Orbits of the points ``w mu`` under the reflex subgroup.

    The generator sigma^e carries alpha_i to alpha_(perm^e i) and keeps
    pairings, so it acts on Dynkin labels by moving label i to place perm^e i.
    """
    image_of = action.power(e_degree)
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
        if (action.order // e_degree) % len(members) != 0:
            raise AssertionError("orbit size does not divide the reflex group order")
        members.sort(key=lambda m: (m.length, m.word))
        orbits.append(
            WOrbit(rep=members[0], members=tuple(members), size=len(members), length=members[0].length)
        )
    orbits.sort(key=lambda o: (o.length, o.rep.word))
    if sum(o.size for o in orbits) != len(points):
        raise AssertionError("orbits do not partition the W-orbit of mu")
    return tuple(orbits)
