"""Exact sparse multivariate polynomial arithmetic over Z, Q or F_p.

Terms are stored as {exponent tuple: coefficient}; zero coefficients are
never stored. Lexicographic order in the declared variable order.
"""

from __future__ import annotations

import itertools
import operator
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import log

from . import lattice

INT = "int"
RAT = "rat"
PRIME_FIELD = "gf"


class DomainMismatch(ValueError):
    pass


@dataclass(frozen=True)
class CoeffDomain:
    tag: str
    p: int | None = None

    def __post_init__(self):
        if self.tag == PRIME_FIELD:
            if self.p is None or self.p < 2 or not _is_prime(self.p):
                raise ValueError("p must be prime for a prime field")
        elif self.p is not None:
            raise ValueError("p only allowed for prime fields")

    def coerce(self, c):
        """Exact coefficient of this domain for c; floats are refused, since
        a binary fraction is never the coefficient that was meant."""
        if isinstance(c, float):
            raise TypeError("floating-point coefficient; use int or Fraction")
        if type(c) is int:
            if self.tag == INT:
                return c
            if self.tag == PRIME_FIELD:
                return c % self.p
        f = Fraction(c)
        if self.tag == RAT:
            return f
        if self.tag == INT:
            if f.denominator != 1:
                raise ValueError("non-integral coefficient over Z")
            return int(f)
        # pow raises ValueError when p divides the denominator
        return f.numerator * pow(f.denominator, -1, self.p) % self.p


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


ZZ = CoeffDomain(INT)
QQ = CoeffDomain(RAT)


def GF(p):
    return CoeffDomain(PRIME_FIELD, p)


class MultiPoly:
    __slots__ = ("domain", "variables", "terms")

    def __init__(self, domain, variables, terms=None):
        self.domain = domain
        self.variables = tuple(variables)
        clean = {}
        for exps, c in (terms or {}).items():
            if len(exps) != len(self.variables):
                raise ValueError("exponent vector length mismatch")
            c = domain.coerce(c)
            if c != 0:
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, domain, variables, terms):
        """Wrap terms whose exponents are tuples of the right length and
        whose coefficients are already of the domain (ints for Z and F_p,
        Fractions for Q): zero coefficients are dropped and F_p ones
        reduced, nothing is checked or coerced. `variables` is a tuple."""
        self = object.__new__(cls)
        self.domain = domain
        self.variables = variables
        p = domain.p
        if p is None:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {e: r for e, c in terms.items() if (r := c % p)}
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, domain, variables):
        return cls(domain, variables)

    @classmethod
    def const(cls, domain, variables, c):
        return cls(domain, variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def var(cls, domain, variables, name):
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(domain, variables, {tuple(e): 1})

    # -- ring structure ----------------------------------------------------

    def _compat(self, other):
        if isinstance(other, MultiPoly):
            if other.domain != self.domain or other.variables != self.variables:
                raise DomainMismatch("incompatible polynomial rings")
            return other
        return MultiPoly.const(self.domain, self.variables, other)

    def __add__(self, other):
        other = self._compat(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MultiPoly._trusted(self.domain, self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.domain, self.variables,
                                  {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._compat(other))

    def __rsub__(self, other):
        return self._compat(other) - self

    def __mul__(self, other):
        other = self._compat(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple([a + b for a, b in zip(e1, e2)])
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultiPoly._trusted(self.domain, self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative exponent")
        out = MultiPoly.const(self.domain, self.variables, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            try:
                other = self._compat(other)
            except (TypeError, ValueError):  # not a constant of this ring
                return NotImplemented
        return (self.domain == other.domain
                and self.variables == other.variables
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.domain, self.variables,
                     tuple(sorted(self.terms.items()))))

    def is_zero(self):
        return not self.terms

    # -- calculus and substitution ----------------------------------------

    def partial(self, name):
        idx = self.variables.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[idx] == 0:
                continue
            ne = list(e)
            ne[idx] -= 1
            terms[tuple(ne)] = terms.get(tuple(ne), 0) + c * e[idx]
        return MultiPoly(self.domain, self.variables, terms)

    def evaluate(self, point):
        """Substitute scalars for all variables; point is a sequence."""
        if len(point) != len(self.variables):
            raise ValueError("point dimension mismatch")
        total = self.domain.coerce(0)
        for e, c in self.terms.items():
            val = c
            for x, k in zip(point, e):
                if k:
                    val = val * self.domain.coerce(x) ** k
            total = total + val
        return self.domain.coerce(total)

    def subs(self, mapping):
        """Substitute polynomials (or scalars) for some variables."""
        out = MultiPoly.zero(self.domain, self.variables)
        cache = {}
        for e, c in self.terms.items():
            term = MultiPoly.const(self.domain, self.variables, c)
            for name, k in zip(self.variables, e):
                if k == 0:
                    continue
                if name in mapping:
                    key = (name, k)
                    if key not in cache:
                        rep = mapping[name]
                        if not isinstance(rep, MultiPoly):
                            rep = MultiPoly.const(self.domain, self.variables, rep)
                        cache[key] = rep ** k
                    term = term * cache[key]
                else:
                    term = term * MultiPoly.var(
                        self.domain, self.variables, name) ** k
            out = out + term
        return out

    def extend_vars(self, variables):
        """Reinterpret in a larger ring containing the old variables."""
        variables = tuple(variables)
        idx = [variables.index(v) for v in self.variables]
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(variables)
            for i, k in zip(idx, e):
                ne[i] = k
            terms[tuple(ne)] = c
        return MultiPoly(self.domain, variables, terms)

    # -- printing / parsing ------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __str__(self):
        if not self.terms:
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


_TOKEN = re.compile(r"\s*([a-z][a-z0-9]*|\d+|[-+*^()])")


def parse_poly(text, variables, domain=ZZ):
    """Parse `3*x1^2*t - x2` style syntax into a MultiPoly."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad token at: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    state = {"i": 0}

    def peek():
        return tokens[state["i"]]

    def take():
        t = tokens[state["i"]]
        state["i"] += 1
        return t

    def atom():
        t = take()
        if t == "(":
            e = expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
            return e
        if t is None:
            raise ValueError("unexpected end of input")
        if t.isdigit():
            base = MultiPoly.const(domain, variables, int(t))
        else:
            if t not in variables:
                raise ValueError(f"unknown variable {t!r}")
            base = MultiPoly.var(domain, variables, t)
        if peek() == "^":
            take()
            n = take()
            if n is None or not n.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            base = base ** int(n)
        return base

    def product():
        out = atom()
        while peek() == "*":
            take()
            out = out * atom()
        return out

    def expr():
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        out = product() * sign
        while peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
            out = out + product() * sign
        return out

    result = expr()
    if peek() is not None:
        raise ValueError("trailing input")
    return result


def divide_exact(f, g):
    """Quotient q with f = q*g, or None when g does not divide f exactly."""
    if g.is_zero():
        return MultiPoly.zero(f.domain, f.variables) if f.is_zero() else None
    q_terms = {}
    rem = f
    lt_e, lt_c = max(g.terms.items(), key=lambda t: t[0])
    while not rem.is_zero():
        re_, rc = max(rem.terms.items(), key=lambda t: t[0])
        diff = tuple([a - b for a, b in zip(re_, lt_e)])
        if any(d < 0 for d in diff):
            return None
        if f.domain.tag == INT:
            if rc % lt_c != 0:
                return None
            qc = rc // lt_c
        elif f.domain.tag == RAT:
            qc = Fraction(rc) / lt_c
        else:
            qc = rc * pow(lt_c, -1, f.domain.p)
        q_terms[diff] = q_terms.get(diff, 0) + qc
        rem = rem - MultiPoly._trusted(f.domain, f.variables, {diff: qc}) * g
    return MultiPoly._trusted(f.domain, f.variables, q_terms)


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
        ref = self.entries[0][0] if self.rows and self.cols else None
        if ref is not None:
            for row in self.entries:
                for e in row:
                    if e.domain != ref.domain or e.variables != ref.variables:
                        raise DomainMismatch("mixed polynomial rings in matrix")

    @classmethod
    def from_rows(cls, entries):
        return cls(len(entries), len(entries[0]) if entries else 0,
                   [list(r) for r in entries])

    def drop_col(self, j):
        return PolyMatrix.from_rows(
            [[e for k, e in enumerate(row) if k != j] for row in self.entries])

    def column(self, j):
        return [row[j] for row in self.entries]

    def mul_vec(self, vec):
        return [sum((e * v for e, v in zip(row, vec)),
                    start=row[0] * 0) for row in self.entries]

    def matmul(self, other):
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.entries[i][0] * other.entries[0][j]
                for k in range(1, self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix.from_rows(out)


def _minor_table(m):
    """`minor(rows, cols)`: the minor of the square PolyMatrix m on sorted
    index tuples rows and cols of equal length.

    Each minor expands along its first row and is computed once: every
    request shares one memo keyed by (rows, cols), so the determinant and
    all cofactors of m come from the same smaller minors. The empty minor is
    the ring's one.
    """
    if m.rows != m.cols:
        raise ValueError("minors of a non-square matrix")
    if m.rows == 0:
        raise ValueError("empty matrix")
    entries = m.entries
    ref = entries[0][0]
    zero = MultiPoly._trusted(ref.domain, ref.variables, {})
    memo = {((), ()): MultiPoly.const(ref.domain, ref.variables, 1)}

    def minor(rows, cols):
        key = (rows, cols)
        if key in memo:
            return memo[key]
        row, rest = entries[rows[0]], rows[1:]
        acc = zero
        for s, j in enumerate(cols):
            e = row[j]
            if e.is_zero():
                continue
            term = e * minor(rest, cols[:s] + cols[s + 1:])
            acc = acc - term if s % 2 else acc + term
        memo[key] = acc
        return acc

    return minor


def _det_adj(m):
    """(det(M), adjugate(M)) of a square PolyMatrix from one minor table:
    the adjugate's (j, i) entry is the signed minor without row i and
    column j, and the determinant expands along the first row over the same
    minors."""
    minor = _minor_table(m)
    idx = tuple(range(m.rows))
    adj = [[None] * m.rows for _ in idx]
    for i in idx:
        rows = idx[:i] + idx[i + 1:]
        for j in idx:
            c = minor(rows, idx[:j] + idx[j + 1:])
            adj[j][i] = -c if (i + j) % 2 else c
    return minor(idx, idx), PolyMatrix.from_rows(adj)


def determinant(m):
    """Determinant of a square PolyMatrix, expanded along the first row
    over its memoized minor table."""
    idx = tuple(range(m.rows))
    return _minor_table(m)(idx, idx)


def adjugate(m):
    """Transpose cofactor matrix: adjugate(M) . M = det(M) . I exactly.
    Callers that also need det(M) take both from `_det_adj`."""
    return _det_adj(m)[1]


def derive_adjoint_relation(h, f):
    """Residual of the adjugate identity applied to the last column.

    h is (n-1) x n, f a length-n vector. Returns
    det(H_n) f' + f_n adj(H_n) h_col  -  adj(H_n) (H_n f' + f_n h_col),
    which is identically zero for every input.
    """
    n = h.cols
    if h.rows != n - 1 or len(f) != n:
        raise ValueError("dimension mismatch")
    hn = h.drop_col(n - 1)
    hcol = h.column(n - 1)
    det, adj = _det_adj(hn)
    fprime, fn = f[:-1], f[-1]
    left = [det * fi + fn * c for fi, c in zip(fprime, adj.mul_vec(hcol))]
    inner = [hi + fn * hc for hi, hc in zip(hn.mul_vec(fprime), hcol)]
    right = adj.mul_vec(inner)
    return [a - b for a, b in zip(left, right)]


@dataclass
class BlowupChart:
    chart_index: int          # 1-based column index j
    chart: str                # "s" or "t" (that variable is set to 1)
    equations: list           # n-1 chart equations
    exceptional_equation: MultiPoly
    _f: list = field(repr=False, default=None)
    _h: PolyMatrix = field(repr=False, default=None)
    _det: MultiPoly = field(repr=False, default=None)  # det(H_j)

    def verify(self):
        """Check the divisibility postcondition exactly.

        Multiplying the original system (with f_j eliminated through the
        exceptional relation) by adj(H_j) yields det(H_j) times the chart
        equations; equivalently each component is divisible by det(H_j)
        with quotient the corresponding chart equation.
        """
        f, h, j = self._f, self._h, self.chart_index - 1
        hj = h.drop_col(j)
        hcol = h.column(j)
        det, adj = _det_adj(hj)
        ring = f[0]
        if self.chart == "s":
            t = MultiPoly.var(ring.domain, ring.variables, "t")
            f_sub = list(f)
            f_sub[j] = t * det
        else:
            s = MultiPoly.var(ring.domain, ring.variables, "s")
            f_sub = [s * fi for fi in f]
            f_sub[j] = det
        others = [fi for k, fi in enumerate(f_sub) if k != j]
        system = [hi + f_sub[j] * hc
                  for hi, hc in zip(hj.mul_vec(others), hcol)]
        lifted = adj.mul_vec(system)
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
    hx = PolyMatrix.from_rows(
        [[e.extend_vars(variables) for e in row] for row in h.entries])
    jj = j - 1
    det, adj = _det_adj(hx.drop_col(jj))
    u = MultiPoly.var(fx[0].domain, variables, other)
    fprime = [fi for k, fi in enumerate(fx) if k != jj]
    adj_h = adj.mul_vec(hx.column(jj))
    if chart == "s":
        eqs = [fi + u * c for fi, c in zip(fprime, adj_h)]
        exc = fx[jj] - u * det
    else:
        eqs = [u * fi + c for fi, c in zip(fprime, adj_h)]
        exc = u * fx[jj] - det
    return BlowupChart(chart_index=j, chart=chart, equations=eqs,
                       exceptional_equation=exc, _f=fx, _h=hx, _det=det)


def jacobian(f):
    return [f.partial(v) for v in f.variables]


@dataclass
class SingularLocusReport:
    ok: bool
    trials: int
    on_locus_hits: int
    mismatches: int


def singular_locus_check(f, expected_locus, trials=10000, p=101, seed=0):
    """Probabilistic audit that {f = grad f = 0} equals the expected locus.

    expected_locus: None for the empty locus, else a list of conditions,
    each a variable name (meaning var = 0) or a MultiPoly (meaning poly = 0).
    Set-theoretic vanishing only; points are sampled over F_p, half of them
    with the zero-constrained variables forced to 0.
    """
    rng = random.Random(seed)
    names = f.variables
    zero_vars = set()
    poly_conds = []
    if expected_locus is not None:
        for cond in expected_locus:
            if isinstance(cond, str):
                zero_vars.add(cond)
            else:
                poly_conds.append(cond)
    grads = jacobian(f)
    to_field = GF(p).coerce  # reduces Fraction coefficients exactly

    def eval_mod(poly, pt):
        total = 0
        for e, c in poly.terms.items():
            v = to_field(c)
            for x, k in zip(pt, e):
                if k:
                    v = v * pow(x, k, p) % p
            total = (total + v) % p
        return total

    hits = 0
    mism = 0
    for trial in range(trials):
        pt = [rng.randrange(p) for _ in names]
        if trial % 2 == 0:
            if expected_locus is None:
                # probe coordinate subspaces so small loci are not missed
                for i in range(len(names)):
                    if rng.random() < 0.5:
                        pt[i] = 0
            else:
                for i, nm in enumerate(names):
                    if nm in zero_vars:
                        pt[i] = 0
        if expected_locus is None:
            on_locus = False
        else:
            on_locus = all(pt[names.index(nm)] == 0 for nm in zero_vars) and \
                all(eval_mod(c, pt) == 0 for c in poly_conds)
        singular = eval_mod(f, pt) == 0 and \
            all(eval_mod(g, pt) == 0 for g in grads)
        if on_locus:
            hits += 1
        if singular != on_locus:
            mism += 1
    return SingularLocusReport(ok=mism == 0, trials=trials,
                               on_locus_hits=hits, mismatches=mism)


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
    Returns round(ambient_dim - log_p(total)). A call whose direction space
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
    return round(ambient_dim - log(total) / log(p))


# -- fuzz suites (shared by tests and the CLI verify command) ---------------


def _random_poly(rng, domain, variables, degree=2, nterms=3, coeff=5):
    terms = {}
    for _ in range(nterms):
        e = [0] * len(variables)
        for _ in range(rng.randrange(degree + 1)):
            e[rng.randrange(len(variables))] += 1
        c = rng.randint(-coeff, coeff)
        terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return MultiPoly(domain, variables, terms)


def fuzz_adjugate(cases=200, seed=0, max_size=4):
    """adjugate(M) . M = det(M) . I on random polynomial matrices."""
    rng = random.Random(seed)
    variables = ("x1", "x2", "x3", "x4", "x5")
    failures = 0
    for _ in range(cases):
        n = rng.randint(1, max_size)
        nv = rng.randint(1, len(variables))
        vs = variables[:nv]
        m = PolyMatrix.from_rows(
            [[_random_poly(rng, ZZ, vs, degree=2, nterms=2)
              for _ in range(n)] for _ in range(n)])
        det, adj = _det_adj(m)
        for prod in (adj.matmul(m), m.matmul(adj)):
            for i in range(n):
                for j in range(n):
                    want = det if i == j else det * 0
                    if not (prod.entries[i][j] - want).is_zero():
                        failures += 1
    return failures


def fuzz_adjoint_relation(cases=200, seed=0):
    """derive_adjoint_relation is identically zero on random inputs."""
    rng = random.Random(seed)
    variables = ("x1", "x2", "x3", "x4")
    failures = 0
    for _ in range(cases):
        n = rng.randint(2, 4)
        h = PolyMatrix.from_rows(
            [[_random_poly(rng, ZZ, variables, degree=1, nterms=2)
              for _ in range(n)] for _ in range(n - 1)])
        f = [_random_poly(rng, ZZ, variables, degree=2, nterms=2)
             for _ in range(n)]
        res = derive_adjoint_relation(h, f)
        if any(not r.is_zero() for r in res):
            failures += 1
    return failures


def fuzz_blowup_charts(cases=100, seed=0):
    """Chart divisibility postcondition on random n = 2, 3 instances."""
    rng = random.Random(seed)
    variables = ("x1", "x2", "x3")
    failures = 0
    for _ in range(cases):
        n = rng.randint(2, 3)
        h = PolyMatrix.from_rows(
            [[_random_poly(rng, ZZ, variables, degree=1, nterms=2)
              for _ in range(n)] for _ in range(n - 1)])
        f = [_random_poly(rng, ZZ, variables, degree=2, nterms=2)
             for _ in range(n)]
        j = rng.randint(1, n)
        chart = rng.choice(("s", "t"))
        ch = blowup_chart(f, h, j, chart)
        if ch._det.is_zero():
            continue  # degenerate instance, quotient not unique
        if not ch.verify():
            failures += 1
    return failures
