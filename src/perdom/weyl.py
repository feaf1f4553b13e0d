"""W-orbits of dominant coweights, and the Weyl group as their test oracle.

The engine only needs ``w mu`` for the minimal representatives w of W / W_mu;
these are in bijection with the W-orbit of the dominant mu, which
``coweight_orbit`` walks upwards in the Bruhat order (Bjorner-Brenti,
*Combinatorics of Coxeter Groups*, 2.4).  A point is its integer Dynkin labels
``c_i = <v, alpha_i>``, where s_j acts by ``c -> c - c_j * A[j]`` for the
Cartan matrix A; ``dominant_representative`` conjugates mu into the dominant
chamber the same way, carrying its coordinates along.
``generate_weyl``, ``stabilizer_w_mu`` and ``kostant_reps`` enumerate the
whole group as exact matrices.  No command calls them: they stay as the
independent oracle the orbit walk is tested against, and the benchmark's
tracer wraps them by name.
"""

from __future__ import annotations

from typing import NamedTuple

from .rootdata import (
    COCHARACTER,
    WEYL_ORDER_BUDGET,
    BudgetError,
    LatticeVec,
    Matrix,
    RootDatum,
    act_matrix,
    identity_matrix,
    mat_mul,
    pairing,
    simple_reflection_matrix,
)


class WeylElement(NamedTuple):
    word: tuple[int, ...]
    matrix: Matrix
    length: int

    def __repr__(self):
        return f"w{list(self.word)}" if self.word else "w[]"


class WeylGroup(NamedTuple):
    datum: RootDatum
    elements: tuple[WeylElement, ...]
    by_matrix: dict[Matrix, WeylElement]

    @property
    def order(self) -> int:
        return len(self.elements)

    def multiply(self, a: WeylElement, b: WeylElement) -> WeylElement:
        return self.by_matrix[mat_mul(a.matrix, b.matrix)]


def generate_weyl(datum: RootDatum, budget: int = WEYL_ORDER_BUDGET) -> WeylGroup:
    """Close the simple reflections under composition, by word length.

    BFS depth in the Cayley graph equals Coxeter length, so each element
    receives a reduced word and the correct length for free.
    """
    expected = datum.weyl_order
    if expected > budget:
        raise BudgetError(f"Weyl order {expected} exceeds budget {budget}")
    gens = [simple_reflection_matrix(datum, i) for i in range(datum.rank)]
    ident = identity_matrix(datum.ambient_dim)
    first = WeylElement(word=(), matrix=ident, length=0)
    by_matrix = {ident: first}
    ordered = [first]
    frontier = [first]
    while frontier:
        nxt = []
        for w in frontier:
            for i, g in enumerate(gens):
                m = mat_mul(g, w.matrix)
                if m not in by_matrix:
                    el = WeylElement(word=(i,) + w.word, matrix=m, length=w.length + 1)
                    by_matrix[m] = el
                    nxt.append(el)
        nxt.sort(key=lambda e: e.word)
        ordered.extend(nxt)
        frontier = nxt
    if len(ordered) != expected:
        raise AssertionError(f"enumerated {len(ordered)} elements, expected {expected}")
    return WeylGroup(datum=datum, elements=tuple(ordered), by_matrix=by_matrix)


def act(w: WeylElement, v: LatticeVec) -> LatticeVec:
    """Exact action on either lattice; pairings are preserved by construction."""
    return act_matrix(w.matrix, v)


class OrbitPoint(NamedTuple):
    """A point ``w mu`` of a dominant coweight's W-orbit, given by its Dynkin
    labels ``<w mu, alpha_i>``, which fix it inside the orbit, with the
    reduced word and length of the minimal-length such w."""

    word: tuple[int, ...]
    labels: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.word)


def nonzero_entries(rows) -> tuple[tuple[tuple[int, object], ...], ...]:
    """Each row as its nonzero entries ``(i, row[i])``."""
    return tuple(tuple((i, a) for i, a in enumerate(row) if a) for row in rows)


def reflect_labels(rows, labels: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Labels of ``s_j v`` from those of v: ``c - c_j * A[j]``, with ``rows``
    the Cartan matrix as ``nonzero_entries``."""
    c = labels[j]
    out = list(labels)
    for i, a in rows[j]:
        out[i] -= c * a
    return tuple(out)


def coweight_orbit(datum: RootDatum, labels: tuple[int, ...]) -> tuple[OrbitPoint, ...]:
    """The W-orbit of the dominant coweight with Dynkin labels ``labels``,
    sorted by (length, word).

    Breadth-first from mu, applying s_i wherever the label c_i > 0, so BFS
    depth is the length of the minimal coset representative.  The frontier is
    kept in word order and the first word found is kept, which reproduces the
    reduced words ``generate_weyl`` assigns to those representatives.
    """
    if any(c < 0 for c in labels):
        raise ValueError("mu must be dominant")
    rows = nonzero_entries(datum.cartan_matrix)
    first = OrbitPoint(word=(), labels=tuple(labels))
    seen = {first.labels}
    ordered = [first]
    frontier = [first]
    while frontier:
        nxt = []
        for p in frontier:
            for i, c in enumerate(p.labels):
                if c <= 0:
                    continue
                labels = reflect_labels(rows, p.labels, i)
                if labels not in seen:
                    seen.add(labels)
                    nxt.append(OrbitPoint((i,) + p.word, labels))
        nxt.sort(key=lambda e: e.word)
        ordered.extend(nxt)
        frontier = nxt
    return tuple(ordered)


def is_dominant(datum: RootDatum, mu: LatticeVec) -> bool:
    return all(pairing(mu, alpha) >= 0 for alpha in datum.simple_roots)


def dominant_representative(datum: RootDatum, mu: LatticeVec) -> tuple[LatticeVec, tuple[int, ...], bool]:
    """The dominant conjugate of mu, its Dynkin labels, and whether mu moved.

    Reflects at the first negative label, ``v -> v - c_j alpha_j^v`` on the
    coordinates, until none is left (Humphreys, *Reflection Groups and
    Coxeter Groups*, 1.12)."""
    if mu.side != COCHARACTER:
        raise ValueError("expected a cocharacter")
    labels = tuple(pairing(mu, alpha) for alpha in datum.simple_roots)
    if any(c.denominator != 1 for c in labels):
        raise ValueError("mu must pair integrally with the simple roots")
    labels = tuple(int(c) for c in labels)
    rows = nonzero_entries(datum.cartan_matrix)
    coroots = nonzero_entries(c.coords for c in datum.simple_coroots)
    coords = list(mu.coords)
    for _ in range(2 * len(datum.positive_coefficients) + 1):
        j = next((i for i, c in enumerate(labels) if c < 0), None)
        if j is None:
            return LatticeVec(COCHARACTER, tuple(coords)), labels, coords != list(mu.coords)
        for k, y in coroots[j]:
            coords[k] -= labels[j] * y
        labels = reflect_labels(rows, labels, j)
    raise AssertionError("dominance normalization failed to terminate")


def stabilizer_w_mu(W: WeylGroup, mu: LatticeVec) -> tuple[WeylElement, ...]:
    """The stabilizer of a dominant mu, checked to be the expected parabolic."""
    if not is_dominant(W.datum, mu):
        raise ValueError("mu must be dominant")
    stab = tuple(w for w in W.elements if act(w, mu).coords == mu.coords)
    zero_gens = [
        simple_reflection_matrix(W.datum, i)
        for i, alpha in enumerate(W.datum.simple_roots)
        if pairing(mu, alpha) == 0
    ]
    closure = {identity_matrix(W.datum.ambient_dim)}
    frontier = list(closure)
    while frontier:
        nxt = []
        for m in frontier:
            for g in zero_gens:
                prod = mat_mul(g, m)
                if prod not in closure:
                    closure.add(prod)
                    nxt.append(prod)
        frontier = nxt
    if closure != {w.matrix for w in stab}:
        raise AssertionError("stabilizer is not the parabolic generated by mu-orthogonal reflections")
    return stab


def kostant_reps(W: WeylGroup, w_mu: tuple[WeylElement, ...]) -> tuple[WeylElement, ...]:
    """Minimal-length representatives of W / W_mu, one per coset.

    The length minimum in each coset is asserted to be unique rather than
    trusted; elements come back sorted by (length, word).
    """
    member_set = {v.matrix for v in w_mu}
    if len(member_set) != len(w_mu):
        raise ValueError("duplicate elements in W_mu")
    covered: set[Matrix] = set()
    reps = []
    for w in sorted(W.elements, key=lambda e: (e.length, e.word)):
        if w.matrix in covered:
            continue
        coset = [W.multiply(w, v) for v in w_mu]
        lengths = sorted(c.length for c in coset)
        if len(lengths) > 1 and lengths[0] == lengths[1]:
            raise AssertionError("length minimum in coset is not unique")
        if lengths[0] != w.length:
            raise AssertionError("coset scan order violated minimality")
        covered.update(c.matrix for c in coset)
        reps.append(w)
    if len(reps) * len(w_mu) != W.order:
        raise AssertionError("coset count mismatch")
    return tuple(reps)
