"""Finite field towers, subspaces in echelon form, flags, and the rational
chambers of the unitary group on 3 variables.

Field elements are integers 0..p^n-1 encoding polynomial coefficients base p;
multiplication runs on log/antilog tables, addition is XOR when p = 2 and
otherwise reads Zech's logarithm ``1 + g^k = g^Z(k)``, so every table is
linear in the field size.  The tables are built without generic polynomial
arithmetic: for p = 2 the modulus is found and the generator's powers are
walked on carry-less integers, and for odd p the walk multiplies a digit
vector by the matrix of multiplication by the generator.  A subfield is
read off the antilog table at a stride, with no Frobenius per element.
Every subspace is kept in reduced row echelon form, which is the canonical
representative used for hashing and equality; ``enumerate_subspaces``
lists them as products of per-row options, each row's built once per
pivot pattern.

The verifier's pairings run through one kernel that takes many vectors at
once.  A family of vectors is stored as columns of discrete logs
(``log_columns``), with log 0 set past every sum of two nonzero logs.  The
antilog table holds the powers of the generator twice over and then
size - 1 zeros (3 (size - 1) - 1 entries), so a product with at most one
zero factor is ``exp[log x + log y]`` with no branch.  ``pairings`` pairs
one vector with a whole family: per nonzero entry of the vector, one
C-level ``map`` pass for the products and one for the sum, which is XOR
when p = 2 and the Zech ``add`` otherwise.  ``dots`` pairs two families
member by member, capping each sum of logs at log 0, and
``nonzero_pairings`` says which members of a family of subspaces lie in W
from the rows of Ann(W), and ``pairing_ranks`` ranks each member's matrix
of pairings with a few vectors by its minors.  ``annihilator`` reads
Ann(W) off W's echelon rows with no elimination.  Every family of
subspaces is one ``FlagLevels``, each member's annihilator and each
level's kernel families built once, and a flag is its tuple of positions,
extended a level at a time: one ``nonzero_pairings`` pass per member of
the next level finds the members of the previous level inside it
(``above``).  ``intersections`` reads dim(S cap W) for two families'
levels from the smaller of S . Ann(W)^T and W . Ann(S)^T.
``subspace_levels`` lists every subspace over the tower or, with
``subfield_deg``, over a subfield, as the rational subspaces are; the
first member of each level is the coordinate subspace, the first pivot
pattern with every free entry 0.  The
unitary group's chambers (``enumerate_twisted_fixed_flags``) are listed in
closed form: the isotropic lines come from grouping the subfield by trace,
with no line of the projective plane built only to be dropped, and each
line's Hermitian-orthogonal plane, and its annihilator, are written from
the line's entries.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial, reduce
from itertools import combinations, compress, product, repeat
from math import gcd
from operator import add, mul, not_, or_, xor
from typing import NamedTuple


# ---------------------------------------------------------------------------
# polynomial helpers over F_p for constructing GF(p^n)

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    while len(a) - 1 >= df and a:
        if a[-1] == 0:
            a.pop()
            continue
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for i, c in enumerate(f):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a = _poly_trim(a)
    return a


def _poly_powmod(base, e, f, p):
    result = [1]
    base = _poly_mod(base, f, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), f, p)
        base = _poly_mod(_poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a = _poly_mod(a, b, p)
        a, b = b, a
    return a


def _is_irreducible(f, p):
    n = len(f) - 1
    x = [0, 1]
    xq = _poly_powmod(x, p**n, f, p)
    diff = _poly_trim([(a - b) % p for a, b in itertools.zip_longest(xq, x, fillvalue=0)])
    if diff:
        return False
    for ell in (e for e in range(2, n + 1) if n % e == 0 and _is_prime(e)):
        xk = _poly_powmod(x, p ** (n // ell), f, p)
        diff = _poly_trim([(a - b) % p for a, b in itertools.zip_longest(xk, x, fillvalue=0)])
        g = _poly_gcd(f, diff, p)
        if len(g) - 1 > 0:
            return False
    return True


def _gf2_mulmod(a: int, b: int, f: int, n: int) -> int:
    """a b mod f over F_2, polynomials as integers with bit i the coefficient
    of x^i and f of degree n: carry-less shifts of a, reduced by XOR with f."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b, a = b >> 1, a << 1
        if a >> n:
            a ^= f
    return acc


def _gf2_powmod(a: int, e: int, f: int, n: int) -> int:
    result = 1
    while e:
        if e & 1:
            result = _gf2_mulmod(result, a, f, n)
        a, e = _gf2_mulmod(a, a, f, n), e >> 1
    return result


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _gf2_is_irreducible(f: int, n: int) -> bool:
    """Rabin's test on carry-less integers, as ``_is_irreducible`` runs it on
    lists: x^(2^n) = x mod f, and x^(2^(n / l)) - x is prime to f for each
    prime l dividing n.  x^(2^k) is x squared k times."""
    powers = [2]
    for _ in range(n):
        powers.append(_gf2_mulmod(powers[-1], powers[-1], f, n))
    if powers[n] != 2:
        return False
    return all(_gf2_gcd(f, powers[n // ell] ^ 2).bit_length() == 1
               for ell in range(2, n + 1) if n % ell == 0 and _is_prime(ell))


def _find_irreducible(p, n):
    """The first monic irreducible of degree n over F_p, its coefficients
    from the constant term up, trying the tails in ``itertools.product``
    order; for p = 2 each tail is tested as a carry-less integer."""
    if n == 1:
        return [0, 1]
    for tail in product(range(p), repeat=n):
        if not tail[0]:
            continue
        if p == 2:
            if _gf2_is_irreducible(sum(c << i for i, c in enumerate(tail)) | 1 << n, n):
                return [*tail, 1]
        elif _is_irreducible([*tail, 1], p):
            return [*tail, 1]
    raise AssertionError(f"no irreducible polynomial of degree {n} over F_{p}")


# Miller-Rabin to the first 13 prime bases is a proof of primality below
# this bound (Sorenson-Webster, *Math. Comp.* 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n > 1; refuses n it cannot prove prime.
    An n past the bound without a small factor is refused before any round,
    which on a number of thousands of digits takes seconds."""
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_PROVEN_BELOW:
        raise ValueError(f"cannot prove {n} prime")
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in _MR_BASES:
        powers = [pow(a, (n - 1) >> s << r, n) for r in range(s)]
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1 by Newton's method from above.  It starts
    just above 2^(b/k), b the bit length of n, so within a factor 2^(1/k) of
    the root, where each step already doubles the correct digits; from
    2^ceil(b/k) a large k would need about k steps to halve the excess."""
    a, c = divmod(n.bit_length(), k)
    # 2^(c/k) in [1, 2) is within an ulp of its float; the margin covers it
    x = ((int(2 ** (c / k) * 2**53) + 4) << a >> 53) + 1
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _factor_prime_power(q: int):
    """(p, k) with q = p^k.  A prime power p^k is a perfect r-th power for a
    prime r exactly when r divides k, so the exact r-th roots are stripped
    for each prime r in turn, as often as they are exact; what is left must
    be prime.  A base that cannot be proven prime is refused, prime or not."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p, k = q, 1
    for r in range(2, q.bit_length()):
        if r >= p.bit_length():
            break
        if _is_prime(r):
            while (root := _iroot(p, r)) ** r == p:
                p, k = root, k * r
    try:
        if _is_prime(p):
            return p, k
    except ValueError as exc:
        raise ValueError(f"{q} is not a prime power whose prime can be proven: {exc}") from exc
    raise ValueError(f"{q} is not a prime power")


def _zech_ops(exp, log, zech, neg):
    """Addition by Zech's logarithm, x + g^l = x (1 + g^(l - log x)), and
    subtraction as the addition of the negative."""
    order = len(zech)

    def add(x, y):
        if not y:
            return x
        if not x:
            return y
        lx = log[x]
        z = zech[(log[y] - lx) % order]
        return 0 if z is None else exp[(lx + z) % order]

    def sub(x, y):
        return add(x, neg[y])

    return add, sub


def _identity(x):
    return x


# ---------------------------------------------------------------------------
# the field tower

class FieldTower:
    """Arithmetic for F_{q^m} together with its distinguished base field F_q."""

    def __init__(self, q: int, ext_degree: int):
        p, base_deg = _factor_prime_power(q)
        self.p = p
        self.q = q
        self.m = ext_degree
        n = base_deg * ext_degree
        self.degree = n
        self.size = p**n
        self.modulus = _find_irreducible(p, n)
        self._build_tables()

    # integers encode coefficient vectors base p, little-endian
    def _to_poly(self, x: int):
        out = []
        while x:
            out.append(x % self.p)
            x //= self.p
        return out

    def _from_poly(self, a) -> int:
        x = 0
        for c in reversed(a):
            x = x * self.p + (c % self.p)
        return x

    def _build_tables(self):
        size, p = self.size, self.p
        self._subfield_cache: dict[int, frozenset[int]] = {}
        order = size - 1
        if order == 1:
            exp, log = [1], [0, 0]
        else:
            exp, log = self._find_primitive()
        # log 0 lies past every sum of two nonzero logs, and the antilog table
        # holds the powers twice over, then zeros: exp[log x + log y] is
        # x * y whenever one factor at most is 0 (``dots`` caps the sum of
        # two log 0s at log 0)
        log[0] = 2 * order - 1
        self._exp = exp + exp[:-1] + [0] * order
        self._log = log
        # picked once per tower, so the hot calls never branch on p
        if p == 2:
            self.add = self.sub = xor
            self.neg = _identity
            return
        half = order // 2  # g^half = -1
        # 1 + x: the lowest base-p digit of x goes up by one mod p
        one_plus = [x - x % p + (x + 1) % p for x in exp]
        self._zech = [log[y] if y else None for y in one_plus]
        self._neg = [0] + [exp[(log[x] + half) % order] for x in range(1, size)]
        self.neg = self._neg.__getitem__
        self.add, self.sub = _zech_ops(self._exp, log, self._zech, self._neg)

    def _find_primitive(self):
        """The powers of the least g >= 2 of order size - 1, and their logs.
        g is primitive when g^((size - 1) / r) != 1 for each prime r dividing
        size - 1, so only the chosen g is walked: by carry-less shifts and
        XOR with the modulus when p = 2, and otherwise as a digit vector
        times the matrix of multiplication by g, whose row i is g x^i."""
        p, f, size, n = self.p, self.modulus, self.size, self.degree
        order = size - 1
        # one pass over 2..order costs less than the walk over the powers
        primes = [r for r in range(2, order + 1) if order % r == 0 and _is_prime(r)]
        exp, log = [1] * order, [0] * size
        if p == 2:
            fbits = self._from_poly(f)
            g = next(g for g in range(2, size)
                     if all(_gf2_powmod(g, order // r, fbits, n) != 1 for r in primes))
            for k in range(1, order):
                exp[k] = _gf2_mulmod(exp[k - 1], g, fbits, n)
        else:
            g = next(g for g in range(2, size)
                     if all(_poly_powmod(self._to_poly(g), order // r, f, p) != [1] for r in primes))
            gpoly = self._to_poly(g)
            rows = [_poly_mod(_poly_mul(gpoly, [0] * i + [1], p), f, p) for i in range(n)]
            columns = list(zip(*(row + [0] * (n - len(row)) for row in rows)))
            places = [p**j for j in range(n)]
            digits = [1] + [0] * (n - 1)
            for k in range(1, order):
                digits = [sum(map(mul, digits, col)) % p for col in columns]
                exp[k] = sum(map(mul, digits, places))
        for i, v in enumerate(exp):
            log[v] = i
        return exp, log

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError
        return self._exp[(-self._log[x]) % (self.size - 1)]

    def power(self, x: int, e: int) -> int:
        if x == 0:
            return 0 if e else 1
        return self._exp[(self._log[x] * e) % (self.size - 1)]

    def frobenius(self, x: int, times: int = 1) -> int:
        """Apply x -> x^q the given number of times: one power x^(q^times)."""
        return self.power(x, self.q ** (times % self.m))

    def subfield(self, j: int) -> frozenset[int]:
        """The fixed points of frob^j, which form the subfield F_(q^g) for
        g = gcd(j, m): 0 and the powers of the generator to multiples of
        (q^m - 1) / (q^g - 1), every such entry of the antilog table."""
        if j not in self._subfield_cache:
            order = self.size - 1
            stride = order // (self.q ** gcd(j, self.m) - 1)
            self._subfield_cache[j] = frozenset([0, *self._exp[:order:stride]])
        return self._subfield_cache[j]

    @property
    def elements(self) -> range:
        return range(self.size)


@lru_cache(maxsize=None)
def make_tower(q: int, ext_degree: int) -> FieldTower:
    return FieldTower(q, ext_degree)


# ---------------------------------------------------------------------------
# linear algebra over a tower

def rref(tower: FieldTower, rows):
    """Canonical reduced row echelon form; zero rows are dropped."""
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = tower.inv(work[r][col])
        work[r] = [tower.mul(inv, x) for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [tower.sub(x, tower.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def rank(tower: FieldTower, rows) -> int:
    return len(rref(tower, rows)[0])


class Subspace(NamedTuple):
    """A subspace in canonical reduced echelon form."""

    rows: tuple[tuple[int, ...], ...]
    ncols: int

    @property
    def dim(self) -> int:
        return len(self.rows)


def subspace_from_rows(tower: FieldTower, rows, ncols: int) -> Subspace:
    reduced, _ = rref(tower, rows)
    return Subspace(rows=reduced, ncols=ncols)


def full_space(tower: FieldTower, n: int) -> Subspace:
    return Subspace(rows=tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), ncols=n)


def intersection_dim(tower: FieldTower, a: Subspace, b: Subspace) -> int:
    if a.dim in (0, a.ncols) or b.dim in (0, b.ncols):
        return min(a.dim, b.dim)
    return a.dim + b.dim - rank(tower, list(a.rows) + list(b.rows))


def annihilator(tower: FieldTower, sub: Subspace):
    """Rows spanning Ann(W) = {a : w . a = 0 for every w in W}, read off W's
    reduced echelon rows: one per free column, 1 there and minus that
    column's entries at the pivots.  A vector lies in W exactly when it
    pairs to zero with every row.  The rows are a basis, not a canonical
    one."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in sub.rows]
    basis = []
    for free in range(sub.ncols):
        if free in pivots:
            continue
        vec = [0] * sub.ncols
        vec[free] = 1
        for row, p in zip(sub.rows, pivots):
            vec[p] = tower.neg(row[free])
        basis.append(tuple(vec))
    return tuple(basis)


# ---------------------------------------------------------------------------
# the pairing kernel: many dot products per call

def log_columns(tower: FieldTower, vectors) -> tuple[tuple[int, ...], ...]:
    """A family of vectors of one length, stored for the pairing kernel:
    column j holds the discrete logs of the vectors' j-th entries."""
    log = tower._log.__getitem__
    return tuple(tuple(map(log, col)) for col in zip(*vectors))


def dots(tower: FieldTower, xs, ys):
    """Iterator over x_k . y_k for the k-th vectors of two families given by
    their log columns (iterables of logs), in a few C-level passes per
    coordinate: x_j y_j is read as exp[log x_j + log y_j], with the sum
    capped at log 0 in case both are 0."""
    exp, log0 = tower._exp.__getitem__, tower._log[0]
    products = [map(exp, map(min, map(add, x, y), repeat(log0))) for x, y in zip(xs, ys)]
    return reduce(partial(map, tower.add), products)


def pairings(tower: FieldTower, a, columns):
    """Iterator over a . v for every vector v of a family stored by
    ``log_columns``: per nonzero entry x of a (a is nonzero), one C-level
    pass reads the products x v_j as exp[log x + log v_j] and one adds them,
    with XOR when p = 2 and with the Zech ``add`` otherwise."""
    exp, log = tower._exp.__getitem__, tower._log
    products = [map(exp, map(log[x].__add__, col)) for x, col in zip(a, columns) if x]
    return reduce(partial(map, tower.add), products)


def row_families(tower: FieldTower, rows_per_member) -> list[tuple[tuple[int, ...], ...]]:
    """Equally many rows per member (a subspace's echelon rows, say) as one
    ``log_columns`` family per row index."""
    return [log_columns(tower, rows) for rows in zip(*rows_per_member)]


def nonzero_pairings(tower: FieldTower, vectors, families):
    """Per member k of ``row_families``: nonzero exactly when some vector
    pairs nonzero with some row of member k.  With Ann(W) as ``vectors``
    and subspaces as members, 0 says that the k-th subspace lies in W."""
    return reduce(partial(map, or_), [pairings(tower, a, f) for a in vectors for f in families])


def pairing_ranks(tower: FieldTower, vectors, families):
    """Per member of ``row_families``, the rank of its rows' pairings with
    ``vectors``: the number of sizes at which some minor is nonzero, each
    expanded along its first row by one ``map`` per product and per sum for
    the whole family.  One vector or one row is ``nonzero_pairings``."""
    if len(vectors) == 1 or len(families) == 1:
        return map(bool, nonzero_pairings(tower, vectors, families))
    x = [[list(pairings(tower, a, f)) for a in vectors] for f in families]
    minors = {((i,), (j,)): entry for i, row in enumerate(x) for j, entry in enumerate(row)}
    ranks = map(any, zip(*minors.values()))
    for size in range(2, min(len(x), len(vectors)) + 1):
        smaller, minors = minors, {}
        for rows, cols in product(combinations(range(len(x)), size), combinations(range(len(vectors)), size)):
            terms = [map(tower.mul, x[rows[0]][c], smaller[rows[1:], cols[:j] + cols[j + 1:]])
                     for j, c in enumerate(cols)]
            plus, minus = (reduce(partial(map, tower.add), terms[sign::2]) for sign in (0, 1))
            minors[rows, cols] = list(map(tower.sub, plus, minus))
        ranks = map(add, ranks, map(any, zip(*minors.values())))
    return ranks


def gaussian_binomial(n: int, k: int, Q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= Q ** (n - i) - 1
        den *= Q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def enumerate_subspaces(tower: FieldTower, n: int, d: int, subfield_deg: int | None = None) -> list[Subspace]:
    """All d-dimensional subspaces of the n-space, in canonical echelon form.

    With ``subfield_deg`` set, only subspaces whose canonical basis lies in
    F_{q^subfield_deg}; those are exactly the subspaces defined over that
    subfield.

    Per pivot pattern, each row's options are listed once, as the product
    of the choices of its entries: 0 before its pivot and in the other
    pivots' columns, 1 at its pivot, any element in a free column.  The
    subspaces are the product of the rows' options, first row slowest, so
    the free entries run in row-major ``itertools.product`` order.
    """
    if d == 0:
        return [Subspace(rows=(), ncols=n)]
    elements = tuple(sorted(tower.subfield(subfield_deg)) if subfield_deg else tower.elements)
    expected = gaussian_binomial(n, d, len(elements))
    zero, one = (0,), (1,)
    make = partial(tuple.__new__, Subspace)
    out: list[Subspace] = []
    for pivots in itertools.combinations(range(n), d):
        options = [
            list(product(*[zero] * p, one, *[zero if j in pivots else elements for j in range(p + 1, n)]))
            for p in pivots
        ]
        out += map(make, zip(product(*options), repeat(n)))
    assert len(out) == expected
    return out


# ---------------------------------------------------------------------------
# flags

def flag_count(n: int, dims, Q: int) -> int:
    total = 1
    prev = 0
    for d in dims:
        total *= gaussian_binomial(n - prev, d - prev, Q)
        prev = d
    return total


class FlagLevels:
    """Families of subspaces of one space by dimension (``levels``, a dict
    from each dimension to its members), a member addressed by its index in
    its level.  Each member's annihilator (unless given) and each level's
    kernel families are built once; ``intersections`` reads dim(S cap W)
    against another family's level, and ``above`` lists which members of a
    larger dimension contain each one of a smaller: enough to list or count
    the flags, each its tuple of positions, or to read the inclusions.  A
    member is addressed by position only: no map leads from a subspace
    back to its index."""

    def __init__(self, tower: FieldTower, levels: dict[int, list[Subspace]],
                 annihilators: dict[int, list[tuple]] | None = None):
        self.tower = tower
        self.levels = dict(sorted(levels.items()))
        self._annihilators = dict(annihilators or {})
        self._families: dict[tuple[int, bool], list] = {}
        self._above: dict[tuple[int, int], list[list[int]]] = {}

    def annihilators(self, d: int) -> list[tuple]:
        """Ann(W) for each member W of dimension d, in level order, computed
        on the level's first use."""
        if d not in self._annihilators:
            self._annihilators[d] = [annihilator(self.tower, w) for w in self.levels[d]]
        return self._annihilators[d]

    def families(self, d: int, ann: bool = False) -> list:
        """The members of dimension d as ``row_families``, by their echelon
        rows or, with ``ann``, by their annihilators, built on first use."""
        if (d, ann) not in self._families:
            rows = self.annihilators(d) if ann else [s.rows for s in self.levels[d]]
            self._families[d, ann] = row_families(self.tower, rows)
        return self._families[d, ann]

    def intersections(self, d: int, other: FlagLevels, w: int) -> list[list[int]]:
        """Per member W of ``other``'s level w, dim(S cap W) for each S of
        level d: d - rank(S . Ann(W)^T), or w - rank(W . Ann(S)^T) if its
        min(rows, cols) is smaller, by one ``pairing_ranks`` per W."""
        n = other.levels[w][0].ncols
        if min(d, n - w) <= min(w, n - d):
            dim, vectors, families = d, other.annihilators(w), self.families(d)
        else:
            dim, vectors, families = w, [s.rows for s in other.levels[w]], self.families(d, ann=True)
        return [list(map(dim.__sub__, pairing_ranks(self.tower, v, families))) for v in vectors]

    def above(self, lo: int, hi: int) -> list[list[int]]:
        """Per member of dimension lo, the indices of those of dimension hi
        containing it, in level order: one ``nonzero_pairings`` pass of each
        hi-member's annihilator against the whole lo level."""
        if (lo, hi) not in self._above:
            t, lower, families = self.tower, self.levels[lo], self.families(lo)
            above: list[list[int]] = [[] for _ in lower]
            for j, ann in enumerate(self.annihilators(hi)):
                inside = map(not_, nonzero_pairings(t, ann, families))
                for k in compress(range(len(lower)), inside):
                    above[k].append(j)
            self._above[lo, hi] = above
        return self._above[lo, hi]

    def chains(self, dims) -> list[tuple[int, ...]]:
        """The flags with these proper dimensions, chain-major, each its
        positions in the levels of dims: each chain extends by the next
        level's members containing its last one, in level order.  With no
        dimensions, the one empty chain."""
        chains = [(k,) for k in range(len(self.levels[dims[0]]))] if dims else [()]
        for lo, hi in zip(dims, dims[1:]):
            above = self.above(lo, hi)
            chains = [c + (j,) for c in chains for j in above[c[-1]]]
        return chains

    def count(self, dims) -> int:
        """The number of flags with these proper dimensions, counted per level
        from the containment lists, with no chain built."""
        if not dims:
            return 1
        counts = [1] * len(self.levels[dims[0]])
        for lo, hi in zip(dims, dims[1:]):
            ahead = [0] * len(self.levels[hi])
            for c, js in zip(counts, self.above(lo, hi)):
                for j in js:
                    ahead[j] += c
            counts = ahead
        return sum(counts)


def subspace_levels(tower: FieldTower, n: int, dims, subfield_deg: int | None = None) -> FlagLevels:
    """Every subspace of the n-space of each given dimension, over the whole
    tower or, with ``subfield_deg``, over that subfield, as
    ``enumerate_subspaces`` lists them."""
    return FlagLevels(tower, {d: enumerate_subspaces(tower, n, d, subfield_deg) for d in set(dims)})


def enumerate_flag_points(levels: FlagLevels, n: int, dims) -> list[tuple[int, ...]]:
    """All flags with the given proper dimensions through ``levels``, which
    hold every subspace of the n-space over the whole tower in those
    dimensions (``subspace_levels``), each flag its positions in the levels;
    with no dimensions, the one empty chain.  The levels' containment lists
    are dropped once read."""
    chains = levels.chains(dims)
    assert len(chains) == flag_count(n, dims, levels.tower.size)
    levels._above.clear()
    return chains


# ---------------------------------------------------------------------------
# the rational chambers of the quasi-split unitary group on 3 variables

def enumerate_twisted_fixed_flags(tower: FieldTower, conj_power: int) -> tuple[FlagLevels, list[tuple[int, int]]]:
    """Full flags of 3-space fixed by the twisted Frobenius taken to an odd
    power, for the antidiagonal Hermitian form
    h(x, y) = sum_i x_i conj(y_(2-i)), conj the Q-power map, Q = q^conj_power:
    the ``FlagLevels`` of their lines and planes, and the flags as position
    pairs (k, k), the k-th line in the k-th plane.

    The fixed flags are exactly the Q^3 + 1 chambers (L, L^perp) for L = <v>
    an isotropic line, h(v, v) = 0, defined over the subfield F_(Q^2) of the
    tower.  They are listed in closed form, in the order of echelon rows
    over the sorted subfield.  A line <(1, a, b)> is isotropic exactly when
    Tr(b) = b + conj(b) = -N(a) = -a conj(a); a line <(0, 1, b)> never is,
    since h(v, v) = 1; and <(0, 0, 1)> always is.  The trace maps F_(Q^2)
    onto F_Q with Q elements over each value, so each a takes the Q values
    of b over -N(a).  The plane L^perp = {x : h(x, v) = 0} has the echelon
    rows (1, 0, -conj(b)), (0, 1, -conj(a)), and <(0, 0, 1)>^perp is
    spanned by the last two coordinates.  The isotropy check pairs each v
    with its reversed conjugate, (conj(b), conj(a), 1) or (1, 0, 0), which
    is also the row of Ann(L^perp) that ``annihilator`` reads off those
    echelon rows: that one pass shows every plane contains its line, and
    the rows are the planes' annihilators, so none is computed.
    """
    n = 3
    field = sorted(tower.subfield(2 * conj_power))
    conj = {x: tower.frobenius(x, conj_power) for x in field}
    add, mul, neg = tower.add, tower.mul, tower.neg
    # the b of each trace, in sorted order
    by_trace: dict[int, list[int]] = {}
    for b in field:
        by_trace.setdefault(add(b, conj[b]), []).append(b)
    pairs = [(a, b) for a in field for b in by_trace[neg(mul(a, conj[a]))]]
    lines = [Subspace(rows=((1, a, b),), ncols=n) for a, b in pairs]
    lines.append(Subspace(rows=((0, 0, 1),), ncols=n))
    planes = [Subspace(rows=((1, 0, neg(conj[b])), (0, 1, neg(conj[a]))), ncols=n) for a, b in pairs]
    planes.append(Subspace(rows=((0, 1, 0), (0, 0, 1)), ncols=n))
    # every line is isotropic, h(v, v) = sum_i v_i conj(v_(n-1-i)) = 0, and
    # so lies in its plane: one pass for all at once
    vectors = [line.rows[0] for line in lines]
    plane_anns = [tuple(conj[x] for x in reversed(v)) for v in vectors]
    assert not any(dots(tower, log_columns(tower, vectors), log_columns(tower, plane_anns)))
    levels = FlagLevels(tower, {1: lines, 2: planes}, annihilators={2: [(a,) for a in plane_anns]})
    return levels, [(k, k) for k in range(len(lines))]
