"""Exact sparse multivariate polynomial arithmetic over Z.

A polynomial lives in a `Ring`, one shared object per tuple of variables,
so two polynomials are compatible exactly when their rings are the same
object. Its terms are a {monomial: int coefficient} dict that never
stores a zero coefficient. A monomial is one packed int: each variable owns
a FIELD_BITS = 16 bit field holding its exponent, the first variable in the
highest field, so int order is lexicographic order in the declared variable
order and a monomial product is one integer addition (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", 2007). The top bit of each field is a guard: exponents lie in
[0, MAX_EXPONENT] = [0, 2**15 - 1], the constructor rejects any other with
ValueError, and a product with a larger exponent raises OverflowError.
`MultiPoly.terms` is a read-only {exponent tuple: coefficient} view.

Every sum of products (a product, matrix products, minor expansions, the
adjugate identities and the chart equations) runs in `_sum_of_products`:
one accumulator dict per result, one guard check over its keys and one
normalisation, not a polynomial per partial product. `divide_exact` keeps
its remainder in one dict and subtracts each quotient term times g in place.
Determinants and adjugates expand each minor along its first row, with
nothing memoized: at the sizes the fuzz suites draw, 4x4 at most, a memo's
keys cost more than the products it would share.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from types import MappingProxyType

from . import lattice

FIELD_BITS = 16
MAX_EXPONENT = (1 << FIELD_BITS - 1) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1
_OVERFLOW = f"product has an exponent above {MAX_EXPONENT}"


class DomainMismatch(ValueError):
    pass


def _coerce(c):
    """The int coefficient for c. Floats are refused, since a binary
    fraction is never the coefficient that was meant, and so are rationals
    that are not integers."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError("floating-point coefficient; use int or Fraction")
    f = Fraction(c)
    if f.denominator != 1:
        raise ValueError("non-integral coefficient over Z")
    return int(f)


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class Ring:
    """The polynomial ring Z[variables] and its monomial packing.

    `Ring(variables)` returns the one Ring of that variable tuple, so rings
    compare by identity. Variable i owns the FIELD_BITS wide field at
    `shifts[i]`; `guard` has the top bit of every field set.
    """

    __slots__ = ("variables", "shifts", "guard")

    def __new__(cls, variables):
        variables = tuple(variables)
        self = _RINGS.get(variables)
        if self is None:
            if len(set(variables)) < len(variables):
                raise ValueError(f"repeated variable name in {variables}")
            self = object.__new__(cls)
            self.variables = variables
            n = len(variables)
            self.shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
            self.guard = sum(1 << s + FIELD_BITS - 1 for s in self.shifts)
            self = _RINGS.setdefault(variables, self)
        return self

    def __reduce__(self):  # unpickled and copied rings stay the interned one
        return Ring, (self.variables,)

    def pack(self, exps):
        """The monomial of an exponent vector, checked."""
        if len(exps) != len(self.variables):
            raise ValueError("exponent vector length mismatch")
        key = 0
        for k in exps:
            if not 0 <= k <= MAX_EXPONENT:
                raise ValueError(f"exponent {k} outside [0, {MAX_EXPONENT}]")
            key = key << FIELD_BITS | k
        return key

    def exponents(self, key):
        """The exponent tuple of a monomial."""
        return tuple([key >> s & _FIELD_MASK for s in self.shifts])

    def unit(self, name):
        """The monomial of the variable `name`."""
        return 1 << self.shifts[self.variables.index(name)]


_RINGS = {}  # variables -> their Ring; only ever grows


class MultiPoly:
    """A polynomial of `ring`: {packed monomial: coefficient} in `_terms`."""

    __slots__ = ("ring", "_terms")

    def __init__(self, variables, terms=None):
        ring = self.ring = Ring(variables)
        clean = {}
        for exps, c in (terms or {}).items():
            key = ring.pack(exps)
            c = _coerce(c)
            if c != 0:
                clean[key] = c
        self._terms = clean

    @staticmethod
    def _wrap(ring, terms):
        """Wrap {monomial: int} terms that are already normalised: no
        coefficient is zero."""
        self = object.__new__(MultiPoly)
        self.ring = ring
        self._terms = terms
        return self

    @staticmethod
    def _trusted(ring, terms):
        """Wrap a fresh {monomial: int} dict, copied only to drop zero
        coefficients; nothing is checked or coerced."""
        return MultiPoly._wrap(ring, {e: c for e, c in terms.items() if c}
                               if 0 in terms.values() else terms)

    @property
    def variables(self):
        return self.ring.variables

    @property
    def terms(self):
        """Read-only {exponent tuple: coefficient} view, built per call."""
        unpack = self.ring.exponents
        return MappingProxyType({unpack(e): c for e, c in self._terms.items()})

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, variables, c):
        return cls._trusted(Ring(variables), {0: _coerce(c)})

    @classmethod
    def var(cls, variables, name):
        ring = Ring(variables)
        return cls._wrap(ring, {ring.unit(name): 1})

    # -- ring structure ----------------------------------------------------

    def _compat(self, other):
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring:
                raise DomainMismatch("incompatible polynomial rings")
            return other
        return MultiPoly._trusted(self.ring, {0: _coerce(other)})

    def _plus(self, other, sign):
        """self + sign * other in one pass over the terms of other, the
        only ones that can cancel."""
        other = self._compat(other)
        terms = dict(self._terms)
        get = terms.get
        for e, c in other._terms.items():
            s = get(e, 0) + sign * c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return MultiPoly._wrap(self.ring, terms)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._wrap(self.ring,
                               {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return self._compat(other) - self

    def __mul__(self, other):
        return _sum_of_products(self.ring, ((1, self, self._compat(other)),))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative exponent")
        out = MultiPoly.const(self.variables, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            try:
                other = self._compat(other)
            except (TypeError, ValueError):  # not a constant of this ring
                return NotImplemented
        return self.ring is other.ring and self._terms == other._terms

    def __hash__(self):
        if self._terms.keys() <= {0}:  # a constant equals its int
            return hash(self._terms.get(0, 0))
        return hash((self.ring, frozenset(self._terms.items())))

    def is_zero(self):
        return not self._terms

    # -- ring extension and printing ---------------------------------------

    def extend_vars(self, variables):
        """Reinterpret in a larger ring whose variables start with the old
        ones, in order: each monomial shifts past the added fields."""
        ring, n = Ring(variables), len(self.variables)
        if ring.variables[:n] != self.variables:
            raise ValueError("the new variables must start with the old ones")
        shift = FIELD_BITS * (len(ring.variables) - n)
        return MultiPoly._wrap(ring, {e << shift: c
                                      for e, c in self._terms.items()})

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs, lexicographically largest
        monomial first."""
        unpack = self.ring.exponents
        return [(unpack(e), c) for e, c in sorted(self._terms.items(),
                                                   reverse=True)]

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.variables, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            coeff = str(c)
            if factors and c == 1:
                coeff = ""
            elif factors and c == -1:
                coeff = "-"
            body = "*".join(factors)
            if coeff and body and coeff != "-":
                parts.append(f"{coeff}*{body}")
            else:
                parts.append(coeff + body if body else coeff)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


_PLUS = itertools.repeat(1)  # the sign of every triple of a plain sum
_MINUS = itertools.repeat(-1)  # the sign of every subtracted triple


def _sum_of_products(ring, triples):
    """sum(sign * a * b) over (sign, a, b) triples in `ring`, sign 1 or -1,
    in one accumulator dict. Its keys, which stay when their coefficients
    cancel, get one guard-bit check; its coefficients one normalisation."""
    terms = {}
    get = terms.get
    for sign, a, b in triples:
        if a.ring is not ring or b.ring is not ring:
            raise DomainMismatch("incompatible polynomial rings")
        rhs = b._terms.items()
        for e1, c1 in a._terms.items():
            c1 *= sign
            for e2, c2 in rhs:
                e = e1 + e2
                terms[e] = get(e, 0) + c1 * c2
    if reduce(operator.or_, terms, 0) & ring.guard:
        raise OverflowError(_OVERFLOW)
    return MultiPoly._trusted(ring, terms)


def divide_exact(f, g):
    """Quotient q with f = q*g, or None when g does not divide f exactly.

    A leading monomial divides another when the guarded difference
    (a | guard) - b keeps every guard bit: no field borrows, since each
    exponent is below the guard. The remainder is one dict: each step pops
    its leading term and subtracts q_c * x^diff times the rest of g in
    place, raising OverflowError on a shifted monomial past its field."""
    ring = f.ring
    if g.ring is not ring:
        raise DomainMismatch("incompatible polynomial rings")
    if g.is_zero():
        return MultiPoly._wrap(ring, {}) if f.is_zero() else None
    guard = ring.guard
    q_terms = {}
    rem = dict(f._terms)
    get = rem.get
    lt_e = max(g._terms)
    lt_c = g._terms[lt_e]
    tail = [(e, c) for e, c in g._terms.items() if e != lt_e]
    while rem:
        re_ = max(rem)
        rc = rem.pop(re_)
        diff = (re_ | guard) - lt_e
        if diff & guard != guard:
            return None
        diff ^= guard
        if rc % lt_c:
            return None
        qc = rc // lt_c
        q_terms[diff] = qc
        for e, c in tail:
            e += diff
            if e & guard:
                raise OverflowError(_OVERFLOW)
            s = get(e, 0) - qc * c
            if s:
                rem[e] = s
            else:
                del rem[e]
    return MultiPoly._wrap(ring, q_terms)


# -- polynomial matrices ---------------------------------------------------


@dataclass
class PolyMatrix:
    rows: int
    cols: int
    entries: list  # list of lists of MultiPoly

    def __post_init__(self):
        if len(self.entries) != self.rows or any(
                len(r) != self.cols for r in self.entries):
            raise ValueError("inconsistent dimensions")
        if self.rows and self.cols:
            ring = self.entries[0][0].ring
            if any(e.ring is not ring for row in self.entries for e in row):
                raise DomainMismatch("mixed polynomial rings in matrix")

    @classmethod
    def from_rows(cls, entries):
        return cls(len(entries), len(entries[0]) if entries else 0,
                   [list(r) for r in entries])

    @staticmethod
    def _wrap(entries, cols):
        """Fresh rows of cols entries each from checked matrices, unchecked."""
        m = object.__new__(PolyMatrix)
        m.rows, m.cols, m.entries = len(entries), cols, entries
        return m

    def drop_col(self, j):
        return PolyMatrix._wrap(
            [[e for k, e in enumerate(row) if k != j] for row in self.entries],
            self.cols - 1)

    def column(self, j):
        return [row[j] for row in self.entries]

    def mul_vec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return [_sum_of_products(row[0].ring, zip(_PLUS, row, vec))
                for row in self.entries]

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.entries))
        return PolyMatrix._wrap(
            [[_sum_of_products(row[0].ring, zip(_PLUS, row, col))
              for col in cols] for row in self.entries], other.cols)


def _one(m):
    """The one of the ring of a square, nonempty PolyMatrix."""
    if m.rows != m.cols:
        raise ValueError("minors of a non-square matrix")
    if m.rows == 0:
        raise ValueError("empty matrix")
    return MultiPoly._wrap(m.entries[0][0].ring, {0: 1})


def _minor(rows, cols, one, sign=1):
    """`sign` times the minor of the row lists `rows` on the column indices
    `cols`, expanded along its first row down to the entries (the 1x1
    minors) and `one` (the 0x0 minor)."""
    if len(cols) < 2:
        e = rows[0][cols[0]] if cols else one
        return -e if sign < 0 else e
    row, rest = rows[0], rows[1:]
    return _sum_of_products(one.ring, [
        (-sign if s % 2 else sign, row[j],
         _minor(rest, cols[:s] + cols[s + 1:], one))
        for s, j in enumerate(cols) if row[j]._terms])


def _det_adj(m):
    """(det(M), adjugate(M)) of a square PolyMatrix by cofactor expansion,
    with nothing memoized: the adjugate's (j, i) entry is the signed minor
    without row i and column j, and the determinant is row 0 times its
    cofactors, already built as the adjugate's column 0 (a 1x1 M is its
    own determinant)."""
    one, entries = _one(m), m.entries
    idx = tuple(range(m.rows))
    rows = [entries[:i] + entries[i + 1:] for i in idx]
    adj = [[_minor(rows[i], idx[:j] + idx[j + 1:], one,
                   -1 if (i + j) % 2 else 1) for i in idx] for j in idx]
    det = entries[0][0] if m.rows == 1 else _sum_of_products(one.ring, [
        (1, e, a[0]) for e, a in zip(entries[0], adj) if e._terms])
    return det, PolyMatrix._wrap(adj, m.rows)


def determinant(m):
    """Determinant of a square PolyMatrix, expanded along its first row."""
    return _minor(m.entries, tuple(range(m.rows)), _one(m))


def adjugate(m):
    """Transpose cofactor matrix: adjugate(M) . M = det(M) . I exactly.
    Callers that also need det(M) take both from `_det_adj`."""
    return _det_adj(m)[1]


def derive_adjoint_relation(h, f):
    """Residual of the adjugate identity applied to the last column.

    h is (n-1) x n, f a length-n vector. Returns
    det(H_n) f' + f_n adj(H_n) h_col  -  adj(H_n) (H_n f' + f_n h_col),
    which is identically zero for every input, one accumulator per entry.
    """
    n = h.cols
    if h.rows != n - 1 or len(f) != n:
        raise ValueError("dimension mismatch")
    hn = h.drop_col(n - 1)
    hcol = h.column(n - 1)
    det, adj = _det_adj(hn)
    fprime, fn = f[:-1], f[-1]
    lifted = _lifted_system(hn, fprime, fn, hcol)
    return [_sum_of_products(fn.ring, [(1, det, fi), (1, fn, c),
                                       *zip(_MINUS, row, lifted)])
            for fi, c, row in zip(fprime, adj.mul_vec(hcol), adj.entries)]


def _lifted_system(hj, others, fj, hcol):
    """H_j f' + f_j h_col, one accumulator per entry: the vector that both
    adjugate checks multiply by adj(H_j)."""
    ring = fj.ring
    return [_sum_of_products(ring, [*zip(_PLUS, row, others), (1, fj, hc)])
            for row, hc in zip(hj.entries, hcol)]


@dataclass
class BlowupChart:
    chart_index: int          # 1-based column index j
    chart: str                # "s" or "t" (that variable is set to 1)
    equations: list           # n-1 chart equations
    exceptional_equation: MultiPoly
    _f: list = field(repr=False, default=None)
    _h: PolyMatrix = field(repr=False, default=None)
    _det: MultiPoly = field(repr=False, default=None)  # det(H_j)
    _adj: PolyMatrix = field(repr=False, default=None)  # adj(H_j)

    def verify(self):
        """Check the divisibility postcondition exactly.

        Multiplying the original system (with f_j eliminated through the
        exceptional relation) by adj(H_j) yields det(H_j) times the chart
        equations; equivalently each component is divisible by det(H_j)
        with quotient the corresponding chart equation. det(H_j) and
        adj(H_j) are the ones `blowup_chart` computed.
        """
        f, h, j = self._f, self._h, self.chart_index - 1
        hj = h.drop_col(j)
        hcol = h.column(j)
        det, adj = self._det, self._adj
        variables = f[0].variables
        if self.chart == "s":
            t = MultiPoly.var(variables, "t")
            f_sub = list(f)
            f_sub[j] = t * det
        else:
            s = MultiPoly.var(variables, "s")
            f_sub = [s * fi for fi in f]
            f_sub[j] = det
        others = [fi for k, fi in enumerate(f_sub) if k != j]
        lifted = adj.mul_vec(_lifted_system(hj, others, f_sub[j], hcol))
        for comp, eq in zip(lifted, self.equations):
            q = divide_exact(comp, det)
            if q is None or not (q - eq).is_zero():
                return False
        return True


def blowup_chart(f, h, j, chart="s"):
    """Chart equations for the blow-up of the ideal (f_j, det H_j).

    f: n polynomials, h: (n-1) x n matrix, j: 1-based column index.
    The chart variable (s or t) is set to 1; equations are returned in the
    ring extended by the remaining projective coordinate.
    """
    n = h.cols
    if h.rows != n - 1 or len(f) != n:
        raise ValueError("dimension mismatch")
    if not 1 <= j <= n:
        raise ValueError("column index out of range")
    if chart not in ("s", "t"):
        raise ValueError("chart must be 's' or 't'")
    other = "t" if chart == "s" else "s"
    variables = f[0].variables + (other,)
    fx = [fi.extend_vars(variables) for fi in f]
    hx = PolyMatrix._wrap(
        [[e.extend_vars(variables) for e in row] for row in h.entries], n)
    jj = j - 1
    det, adj = _det_adj(hx.drop_col(jj))
    ring = fx[0].ring
    u = MultiPoly.var(variables, other)
    one = MultiPoly.const(variables, 1)
    # chart s: f' + u adj(H_j) h_col and f_j - u det(H_j);
    # chart t: u f' + adj(H_j) h_col and u f_j - det(H_j)
    a, b = (one, u) if chart == "s" else (u, one)
    fprime = [fi for k, fi in enumerate(fx) if k != jj]
    eqs = [_sum_of_products(ring, ((1, a, fi), (1, b, c)))
           for fi, c in zip(fprime, adj.mul_vec(hx.column(jj)))]
    exc = _sum_of_products(ring, ((1, a, fx[jj]), (-1, b, det)))
    return BlowupChart(chart_index=j, chart=chart, equations=eqs,
                       exceptional_equation=exc, _f=fx, _h=hx, _det=det,
                       _adj=adj)


# -- determinantal codimension estimation ----------------------------------

SQUARE = "square"
N_BY_N_MINUS_1 = "n_by_n_minus_1"


class Indeterminate(Exception):
    """Raised when no point of F_p^ambient_dim meets the rank condition."""


def _subspaces(k, n, p):
    """Each k-dimensional subspace of F_p^n once, as its reduced row
    echelon basis: pivot columns by combination, free entries by product."""
    for pivots in itertools.combinations(range(n), k):
        free = [(i, c) for i, piv in enumerate(pivots)
                for c in range(piv + 1, n) if c not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            basis = [[int(c == piv) for c in range(n)] for piv in pivots]
            for (i, c), x in zip(free, values):
                basis[i][c] = x
            yield basis


def rank_locus_codim_estimate(n, shape, ambient_dim, p, trials, seed=0):
    """Codimension of a determinantal rank locus over F_p, counted exactly.

    A matrix of random affine-linear forms in ambient_dim variables is
    drawn from random.Random(seed). Every kernel direction (a point of
    P^(n-2) for the n x (n-1) rank-drop locus, a plane of Gr(2, n) for the
    singular locus of an n x n determinant) turns the rank condition into
    a linear system whose solutions are counted exactly; the sum over all
    directions counts each locus point once per direction in its kernel.
    Returns ambient_dim - round(log_p(total)). A call whose direction space
    has more than `trials` members raises ValueError.
    """
    if not _is_prime(p):
        raise ValueError("p must be prime")
    if ambient_dim < 4:
        raise ValueError("ambient_dim must be at least 4")
    rng = random.Random(seed)
    if shape == SQUARE:
        nrows, ncols_m = n, n
        kdim = 2  # singular locus of det = rank <= n-2
    elif shape == N_BY_N_MINUS_1:
        nrows, ncols_m = n, n - 1
        kdim = 1  # rank < n-1
    else:
        raise ValueError("shape must be SQUARE or N_BY_N_MINUS_1")
    if ncols_m < kdim:
        raise ValueError("matrix too small for the rank condition")
    directions = list(itertools.islice(_subspaces(kdim, ncols_m, p),
                                       trials + 1))
    if len(directions) > trials:
        raise ValueError(f"more than {trials} kernel directions")
    # entries: affine linear forms, forms[r][c] = [a_1..a_amb, const];
    # coeffs[r][k] runs over the columns c, the constant negated onto the
    # right-hand side
    forms = [[[rng.randrange(p) for _ in range(ambient_dim + 1)]
              for _ in range(ncols_m)] for _ in range(nrows)]
    coeffs = [list(zip(*(f[:-1] + [-f[-1] % p] for f in row)))
              for row in forms]
    total = 0
    for vs in directions:
        rows = [[sum(map(operator.mul, v, col)) % p for col in row]
                for v in vs for row in coeffs]
        # the affine system (constant column last) has p**(ambient_dim -
        # rank) solutions, or none when a reduced row leaves a constant
        r, reduced = lattice.echelon_mod_p(rows, p, ambient_dim)
        if not any(row[ambient_dim] for row in reduced[r:]):
            total += p ** (ambient_dim - r)
    if total == 0:
        raise Indeterminate("no point of the rank locus over F_p")
    return ambient_dim - _nearest_log(total, p)


def _nearest_log(total, p):
    """round(log_p(total)), exactly: the k with p**(2k - 1) <= total**2 <
    p**(2k + 1), where a square never ties with an odd power of p."""
    k, bound, square = 0, p, total * total
    while square >= bound:
        k += 1
        bound *= p * p
    return k


# -- fuzz suites (shared by tests and the CLI verify command) ---------------


def _random_poly(rng, ring, degree=2, nterms=3, coeff=5):
    """nterms random terms of degree <= degree in `ring`, a Ring or its
    variable names (the fuzz suites pass interned rings). Each draw
    is `rng.randrange(n)` (or `randint` less its start) by the rejection
    loop of `Random._randbelow`, inline: the same bits, the same value and
    the same rng state, with each bit length n.bit_length() taken once."""
    if type(ring) is not Ring:
        ring = Ring(ring)
    shifts, bits = ring.shifts, rng.getrandbits
    nd, nv, nc = degree + 1, len(shifts), 2 * coeff + 1
    kd, kv, kc = nd.bit_length(), nv.bit_length(), nc.bit_length()
    terms = {}
    for _ in range(nterms):
        e, d = 0, bits(kd)
        while d >= nd:
            d = bits(kd)
        for _ in range(d):
            v = bits(kv)
            while v >= nv:
                v = bits(kv)
            e += 1 << shifts[v]
        c = bits(kc)
        while c >= nc:
            c = bits(kc)
        terms[e] = terms.get(e, 0) + c - coeff
    return MultiPoly._trusted(ring, terms)


def _random_system(rng, ring, n):
    """(f, h) in `ring`: n polynomials f of degree <= 2 and an (n-1) x n
    matrix h of entries of degree <= 1, h drawn first."""
    h = PolyMatrix._wrap(
        [[_random_poly(rng, ring, degree=1, nterms=2)
          for _ in range(n)] for _ in range(n - 1)], n)
    f = [_random_poly(rng, ring, degree=2, nterms=2)
         for _ in range(n)]
    return f, h


def fuzz_adjugate(cases=200, seed=0, max_size=4):
    """adjugate(M) . M = det(M) . I on random polynomial matrices."""
    rng = random.Random(seed)
    variables = ("x1", "x2", "x3", "x4", "x5")
    failures = 0
    for _ in range(cases):
        n = rng.randint(1, max_size)
        ring = Ring(variables[:rng.randint(1, len(variables))])
        m = PolyMatrix._wrap(
            [[_random_poly(rng, ring, degree=2, nterms=2)
              for _ in range(n)] for _ in range(n)], n)
        det, adj = _det_adj(m)
        failures += sum(e != det if i == j else not e.is_zero()
                        for prod in (adj.matmul(m), m.matmul(adj))
                        for i, row in enumerate(prod.entries)
                        for j, e in enumerate(row))
    return failures


def fuzz_adjoint_relation(cases=200, seed=0):
    """derive_adjoint_relation is identically zero on random inputs."""
    rng = random.Random(seed)
    ring = Ring(("x1", "x2", "x3", "x4"))
    failures = 0
    for _ in range(cases):
        f, h = _random_system(rng, ring, rng.randint(2, 4))
        res = derive_adjoint_relation(h, f)
        if any(not r.is_zero() for r in res):
            failures += 1
    return failures


def fuzz_blowup_charts(cases=100, seed=0):
    """Chart divisibility postcondition on random n = 2, 3 instances."""
    rng = random.Random(seed)
    ring = Ring(("x1", "x2", "x3"))
    failures = 0
    for _ in range(cases):
        f, h = _random_system(rng, ring, rng.randint(2, 3))
        j = rng.randint(1, h.cols)
        chart = rng.choice(("s", "t"))
        ch = blowup_chart(f, h, j, chart)
        if ch._det.is_zero():
            continue  # degenerate instance, quotient not unique
        if not ch.verify():
            failures += 1
    return failures
