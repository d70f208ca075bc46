"""Dense exact linear algebra, kept as the independent second route for
`sncgeom.lattice` and for the determinants and adjugates of `sncgeom.poly`.

The library ranks, solves and takes kernels on one sparse fraction-free
echelon, and reads Smith invariants off a diagonal-only pivot loop. The
routines here are the dense ones it replaced: Bareiss rank, Fraction
Gauss-Jordan (`_rref`) for `solve` and `kernel_basis`, the Smith form with
its unimodular transforms U and V and their `check`, and the numpy modular
rank. `rank_mod_p` counts the row space over F_p instead of eliminating.

For polynomial matrices, which the library expands along first rows over
one memoized minor table, `det_bareiss` is the fraction-free elimination
with exact polynomial division it used above 4x4, and `leibniz_det` and
`cofactor_adjugate` sum over permutations.

For the determinantal codimensions, which the library counts over kernel
directions, `locus_incidence_count` visits every point of the ambient
space instead.

For the degree-one polarization, which the library sweeps in integer
continuants over one denominator, `thomas_path_sweep` is the Fraction
Thomas sweep it replaced, `thomas_polarization` the Fraction accumulation
around it, and `uniform_degree_seed` the seed on the dense `solve` and
`kernel_basis` with the Fraction congruence diagonalization
`positive_direction`.

For `MultiPoly`, whose monomials are packed ints in one interned ring,
`TuplePoly` is the arithmetic on {exponent tuple: int} dicts it replaced
(`+`, `-`, `*`, negation), with no exponent limit, and `tuple_divide_exact`
the division over Z on it. `random_poly` is the fuzz suites'
draw through the validating constructor, which `poly._random_poly` replaced
by packed keys from the same rng calls.

For the Fano section products, which the library ranks on packed integer
columns, `tuple_product_rank` is the route on (side, exponent tuple)
columns it replaced, with `mul_monomial_dicts` its product. The
surjectivity of restriction to S, on which the fiber-product count in
`fano.glued_basis` rests, is a fact the library no longer tests;
`enumerated_restriction_surjective` checks it by restricting all of
`pr_basis`.

For the cohomology of the dual complex, which the library reads off cell
counts and the balance walk of `snc.canonical_order`, `dual_boundaries`
builds both ±1 boundary matrices and `dual_cohomology` ranks them by
elimination.

Seven helpers left the library for here, since only tests read them:

- `parse_poly` reads `3*x1^2*t - x2` syntax into a `MultiPoly`; `test_poly`
  builds its polynomials with it (the `P` helper and the parse tests).
- `evaluate` substitutes scalars for every variable. It is the evaluation
  route of `test_poly::test_trusted_arithmetic_is_normalised`, which checks
  packed products and sums against products and sums of values.
- `subs` substitutes polynomials for some variables. It sets s or t to 1 in
  `test_poly::_two_variable_chart`, the chart oracle of
  `test_blowup_chart_verify_both_charts`.
- `h1_P` is dim H^1 of O(a, b) on P(r). `test_fano` checks h0_P - h1_P
  against the Riemann-Roch count, and that H^1 vanishes on nef twists.
- `mult_surjective` checks monomial by monomial that products of
  `pr_basis` elements fill `pr_basis` of the sum degree
  (`test_fano::test_mult_surjective`).
- `s_basis` is the monomial basis of O(a, b) on the quadric S. `test_fano`
  checks that restrictions land in it and indexes the rows of the dense
  restriction system by it.
- `validate_presentation` checks that every relation letter of a
  `snc.GroupPresentation` names a generator
  (`test_snc::test_abelianization_vs_oracle`).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import lcm
from operator import index

from sncgeom.fano import pr_basis, pr_restrict, sym_split
from sncgeom.lattice import det_int, echelon_mod_p, sparse_rank
from sncgeom.picard import (InvariantError, NegativeDefiniteViolation,
                            NoAmpleSeed, dot)
from sncgeom.poly import (SQUARE, DomainMismatch, MultiPoly, PolyMatrix,
                          divide_exact)


def _integerize_rows(rows):
    """Scale each row by the lcm of its denominators; returns int rows."""
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        fr = [Fraction(x) for x in row]
        mult = lcm(*[f.denominator for f in fr]) if fr else 1
        out.append([int(f * mult) for f in fr])
    return out


def rank(rows):
    """Rank over the rationals via fraction-free Bareiss elimination."""
    if not rows or not rows[0]:
        return 0
    a = _integerize_rows(rows)
    n, m = len(a), len(a[0])
    r = 0
    prev = 1
    for c in range(m):
        if r == n:
            break
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, n):
            ric = a[i][c]
            arc = a[r][c]
            for j in range(c, m):
                a[i][j] = (a[i][j] * arc - ric * a[r][j]) // prev
        prev = a[r][c]
        r += 1
    return r


def _rref(rows):
    """Reduced row echelon form over Q. Returns (matrix, pivot columns)."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        if r == n:
            break
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def solve(rows, b):
    """Exact solution of M x = b, or None when b is not in the column span.

    Free variables are set to zero.
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    if len(b) != n:
        raise ValueError("dimension mismatch")
    aug = [list(row) + [b[i]] for i, row in enumerate(rows)]
    red, pivots = _rref(aug)
    if m in pivots:
        return None
    x = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        x[c] = red[r][m]
    return x


def kernel_basis(rows):
    """Basis of the rational null space of M."""
    n = len(rows)
    m = len(rows[0]) if n else 0
    if n == 0:
        return [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    red, pivots = _rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(m):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * m
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][free]
        basis.append(v)
    return basis


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


@dataclass
class SmithForm:
    """Diagonalization D = U M V with unimodular U, V and d1 | d2 | ..."""

    diagonal: list
    u: list
    v: list
    rows: int
    cols: int

    def check(self, m_rows):
        d = mat_mul(mat_mul(self.u, m_rows), self.v)
        for i in range(self.rows):
            for j in range(self.cols):
                want = self.diagonal[i] if i == j and i < len(self.diagonal) else 0
                if d[i][j] != want:
                    return False
        for i in range(len(self.diagonal) - 1):
            a, b = self.diagonal[i], self.diagonal[i + 1]
            if a == 0 and b != 0:
                return False
            if a != 0 and b % a != 0:
                return False
        return abs(det_int(self.u)) == 1 and abs(det_int(self.v)) == 1


def smith_normal_form(rows):
    """Smith normal form by elementary row/column reduction.

    Pivot choice: minimal nonzero absolute value, tie-break by (row, col).
    """
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    u = identity(n)
    v = identity(m)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def pick(t):  # minimal |x| in the submatrix from (t, t), moved to (t, t)
        best = None
        for i in range(t, n):
            for j in range(t, m):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is not None:
            swap_rows(t, best[0])
            swap_cols(t, best[1])
        return best is not None

    # Each round reduces row and column t once by the pivot. A nonzero
    # remainder is smaller than the pivot and becomes the next pivot, so
    # |a[t][t]| falls strictly until it divides its row, its column and
    # (after adding a row it fails to divide to row t) the whole submatrix.
    t = 0
    while t < min(n, m) and pick(t):
        while True:
            p = a[t][t]
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    row_op(i, t, a[i][t] // p)
            for j in range(t + 1, m):
                if a[t][j] != 0:
                    col_op(j, t, a[t][j] // p)
            if (any(a[i][t] for i in range(t + 1, n))
                    or any(a[t][j] for j in range(t + 1, m))):
                pick(t)
                continue
            bad = next((i for i in range(t + 1, n)
                        if any(x % p for x in a[i][t + 1:])), None)
            if bad is None:
                break
            row_op(t, bad, -1)  # row t += row bad
        t += 1

    diag = []
    for i in range(min(n, m)):
        d = a[i][i]
        if d < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
            d = -d
        diag.append(d)
    return SmithForm(diagonal=diag, u=u, v=v, rows=n, cols=m)


def numpy_rank_mod_p(rows, p=46337):
    """Rank of an integer matrix over F_p (numpy, vectorized); numpy is
    imported on the first call only."""
    import numpy as np

    if not rows or not rows[0]:
        return 0
    a = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    n, m = a.shape
    r = 0
    for c in range(m):
        if r == n:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        below = a[r + 1:, c].copy()
        if below.size:
            a[r + 1:] = (a[r + 1:] - np.outer(below, a[r])) % p
        r += 1
    return r


def rank_mod_p(rows, p):
    """Rank over F_p without elimination: the row space has p**rank
    vectors, counted over all p**k combinations of the k rows."""
    span = {tuple(sum(c * x for c, x in zip(coeffs, col)) % p
                  for col in zip(*rows))
            for coeffs in product(range(p), repeat=len(rows))}
    r = 0
    while p ** r < len(span):
        r += 1
    return r


def det_bareiss(m):
    n = m.rows
    a = [row[:] for row in m.entries]
    one = MultiPoly.const(a[0][0].variables, 1)
    sign = 1
    prev = one
    for c in range(n):
        piv = next((i for i in range(c, n) if not a[i][c].is_zero()), None)
        if piv is None:
            return a[0][0] * 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                num = a[i][j] * a[c][c] - a[i][c] * a[c][j]
                q = divide_exact(num, prev)
                if q is None:
                    raise AssertionError("Bareiss division must be exact")
                a[i][j] = q
            a[i][c] = a[i][c] * 0
        prev = a[c][c]
    return a[n - 1][n - 1] * sign


def leibniz_det(entries, one):
    """Sum over permutations p of sign(p) * prod_i entries[i][p(i)], for a
    square list of polynomial rows; `one` fixes the ring, and the empty
    determinant is one."""
    n = len(entries)
    total = one * 0
    for perm in permutations(range(n)):
        term = one
        for i, j in enumerate(perm):
            term = term * entries[i][j]
        inversions = sum(perm[a] > perm[b]
                         for a in range(n) for b in range(a + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def cofactor_adjugate(m):
    """adj(M)[i][j] = (-1)^(i+j) times the Leibniz determinant of M without
    row j and column i."""
    n = m.rows
    ref = m.entries[0][0]
    one = MultiPoly.const(ref.variables, 1)

    def cofactor(i, j):
        sub = [[e for c, e in enumerate(row) if c != i]
               for r, row in enumerate(m.entries) if r != j]
        return leibniz_det(sub, one) * (-1) ** (i + j)

    return PolyMatrix.from_rows(
        [[cofactor(i, j) for j in range(n)] for i in range(n)])


class TuplePoly:
    """A polynomial over Z as {exponent tuple: int}, compared with the
    packed `MultiPoly` through its `terms` view."""

    __slots__ = ("variables", "terms")

    @classmethod
    def of(cls, f):
        return cls._trusted(f.variables, dict(f.terms))

    @classmethod
    def _trusted(cls, variables, terms):
        self = object.__new__(cls)
        self.variables = variables
        self.terms = {e: c for e, c in terms.items() if c}
        return self

    def _compat(self, other):
        if isinstance(other, TuplePoly):
            if other.variables != self.variables:
                raise DomainMismatch("incompatible polynomial rings")
            return other
        return TuplePoly._trusted(self.variables,
                                  {(0,) * len(self.variables): index(other)})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = self._compat(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return TuplePoly._trusted(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return TuplePoly._trusted(self.variables,
                                  {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._compat(other))

    def __mul__(self, other):
        other = self._compat(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple([a + b for a, b in zip(e1, e2)])
                terms[e] = terms.get(e, 0) + c1 * c2
        return TuplePoly._trusted(self.variables, terms)

    __rmul__ = __mul__


def tuple_divide_exact(f, g):
    """Quotient q with f = q*g of TuplePolys, or None when g does not divide
    f exactly over Z."""
    if g.is_zero():
        return TuplePoly._trusted(f.variables, {}) if f.is_zero() else None
    q_terms = {}
    rem = f
    lt_e, lt_c = max(g.terms.items(), key=lambda t: t[0])
    while not rem.is_zero():
        re_, rc = max(rem.terms.items(), key=lambda t: t[0])
        diff = tuple([a - b for a, b in zip(re_, lt_e)])
        if any(d < 0 for d in diff):
            return None
        if rc % lt_c != 0:
            return None
        qc = rc // lt_c
        q_terms[diff] = q_terms.get(diff, 0) + qc
        rem = rem - TuplePoly._trusted(f.variables, {diff: qc}) * g
    return TuplePoly._trusted(f.variables, q_terms)


def random_poly(rng, variables, degree=2, nterms=3, coeff=5):
    terms = {}
    for _ in range(nterms):
        e = [0] * len(variables)
        for _ in range(rng.randrange(degree + 1)):
            e[rng.randrange(len(variables))] += 1
        c = rng.randint(-coeff, coeff)
        terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return MultiPoly(variables, terms)


def gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of F_p^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def locus_incidence_count(n, shape, ambient_dim, p, seed):
    """Pairs (x, K) of a point x of F_p^ambient_dim and a kernel direction
    K of M(x): a k-dimensional subspace of ker M(x), with k = 2 for the
    n x n SQUARE shape and k = 1 for the n x (n-1) one. M is the matrix of
    affine forms `rank_locus_codim_estimate` draws first from
    random.Random(seed), rows of [a_1..a_amb, const]; each point adds
    [dim ker M(x) choose k]_p."""
    nrows, ncols, k = (n, n, 2) if shape == SQUARE else (n, n - 1, 1)
    rng = random.Random(seed)
    forms = [[[rng.randrange(p) for _ in range(ambient_dim + 1)]
              for _ in range(ncols)] for _ in range(nrows)]
    total = 0
    for x in product(range(p), repeat=ambient_dim):
        m = [[(sum(a * xi for a, xi in zip(f, x)) + f[-1]) % p for f in row]
             for row in forms]
        total += gaussian_binomial(ncols - echelon_mod_p(m, p, ncols)[0], k,
                                   p)
    return total


# -- the Fraction routes of the degree-one polarization ---------------------


def thomas_path_sweep(sq, j, deg):
    """Exact Thomas sweep on the Gram matrix of the path C_{j+1}, ...,
    C_{j-1}: diagonal sq[i] = C_i^2, off-diagonal 1 on a validated cycle.
    The pivots are continuant ratios D_k/D_{k-1}: None if one is >= 0 (not
    negative definite), else the path and a with Gram.a = -deg[path]."""
    m = len(sq)
    path = [(j + k) % m for k in range(1, m)]
    piv, y = [], []
    for i in path:
        p, r = Fraction(sq[i]), Fraction(-deg[i])
        if piv:
            p, r = p - 1 / piv[-1], r - y[-1] / piv[-1]
        if p >= 0:
            return None
        piv.append(p)
        y.append(r)
    a = [y[-1] / piv[-1]]
    for k in range(m - 3, -1, -1):
        a.append((y[k] - a[-1]) / piv[k])
    return path, a[::-1]


def positive_direction(vectors, target):
    """A rational combination x of the given classes with x.x > 0, or else
    a class x the diagonalization leaves with x.x = 0 and target.x > 0, or
    None; exact symmetric congruence diagonalization."""
    basis = [list(map(Fraction, v)) for v in vectors]
    done = []
    while basis:
        piv = next((i for i, b in enumerate(basis) if dot(b, b) != 0), None)
        if piv is None:
            pair = next(((i, j) for i in range(len(basis))
                         for j in range(i + 1, len(basis))
                         if dot(basis[i], basis[j]) != 0), None)
            if pair is None:
                break  # form vanishes on what is left
            i, j = pair
            basis[i] = [x + y for x, y in zip(basis[i], basis[j])]
            continue
        b = basis.pop(piv)
        q = dot(b, b)
        if q > 0:
            return b
        basis = [[x - dot(v, b) / q * y for x, y in zip(v, b)]
                 for v in basis]
        done.append(b)
    for v in basis:
        if dot(target, v):
            return v if dot(target, v) > 0 else [-x for x in v]
    return None


def uniform_degree_seed(s):
    """`picard.uniform_degree_seed` on the dense solve and kernel_basis
    above, `positive_direction`, and a t search that rebuilds the vector
    sol + t.x on every doubling."""
    rows = [[(1 if i == 0 else -1) * c[i] for i in range(s.dim)]
            for c in s.cycle]
    sol = solve(rows, [Fraction(1)] * s.length)
    if sol is None:
        raise NoAmpleSeed("no class of uniform degree 1 on the cycle")
    if dot(sol, sol) <= 0:
        x = positive_direction(kernel_basis(rows), sol)
        if x is None:
            raise NoAmpleSeed(
                "no uniform-degree class has positive square")
        t = Fraction(1)
        while dot([a + t * b for a, b in zip(sol, x)],
                  [a + t * b for a, b in zip(sol, x)]) <= 0:
            t *= 2
        sol = [a + t * b for a, b in zip(sol, x)]
    mult = lcm(*[f.denominator for f in sol])
    seed = tuple([int(f * mult) for f in sol])
    if dot(seed, seed) <= 0:
        raise InvariantError("uniform-degree seed has non-positive square")
    return seed


def thomas_polarization(s, seed_ample):
    """`picard.degree_one_polarization` on `thomas_path_sweep`, with every
    weight and coefficient a Fraction."""
    s.validate()  # the cycle pattern is what makes each Gram a path
    m, sq = s.length, s.self_intersections()
    if any(c2 > -2 for c2 in sq):
        raise NegativeDefiniteViolation(
            "all cycle self-intersections must be <= -2")
    degs = [dot(seed_ample, c) for c in s.cycle]
    if any(d <= 0 for d in degs) or dot(seed_ample, seed_ample) <= 0:
        raise NoAmpleSeed("seed must have positive degree on every C_j "
                          "and positive self-intersection")
    weight, coef = Fraction(0), [Fraction(0)] * m  # of the seed, of each C_i
    for j in range(m):
        swept = thomas_path_sweep(sq, j, degs)
        if swept is None:
            raise NegativeDefiniteViolation(
                f"curves other than C_{j} are not negative definite")
        path, a = swept  # only the path's ends meet C_j, once each
        dj = degs[j] + a[0] + a[-1]
        if dj <= 0:
            raise NoAmpleSeed(f"corrected class has degree {dj} on C_{j}")
        weight += 1 / dj
        for i, ai in zip(path, a):
            coef[i] += ai / dj
    h = [weight * x + sum(ci * c[t] for ci, c in zip(coef, s.cycle))
         for t, x in enumerate(seed_ample)]
    for j in range(m):
        if dot(h, s.cycle[j]) != 1:
            raise InvariantError("polarization degree is not 1 on the cycle")
    if dot(h, h) <= 0:
        raise InvariantError("polarization has non-positive square")
    return tuple(h)


def mul_monomial_dicts(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple([a + b for a, b in zip(e1, e2)])
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def tuple_product_rank(pairs, bound):
    """Exact rank of the products of pairs of glued sections, each a sparse
    {(side, monomial): int} vector; exact duplicates are dropped. A rank
    above `bound`, the glued h0 of the target degree, means the products
    left the glued section space."""
    vectors = {}
    for (l1, r1), (l2, r2) in pairs:
        vec = {(0, e): c for e, c in mul_monomial_dicts(l1, l2).items()}
        for e, c in mul_monomial_dicts(r1, r2).items():
            vec[(1, e)] = c
        vectors[frozenset(vec.items())] = vec
    rank = sparse_rank(vectors.values())
    if rank > bound:
        raise AssertionError("products leave the glued section space")
    return rank


# -- helpers that read and substitute into MultiPoly ------------------------

_TOKEN = re.compile(r"\s*([a-z][a-z0-9]*|\d+|[-+*^()])")


def parse_poly(text, variables):
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
            base = MultiPoly.const(variables, int(t))
        else:
            if t not in variables:
                raise ValueError(f"unknown variable {t!r}")
            base = MultiPoly.var(variables, t)
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


def evaluate(f, point):
    """f with the scalars of the sequence `point` substituted for all its
    variables, read off the exponent tuples of `f.terms`."""
    if len(point) != len(f.variables):
        raise ValueError("point dimension mismatch")
    total = 0
    for e, c in f.terms.items():
        val = c
        for x, k in zip(point, e):
            if k:
                val = val * x ** k
        total = total + val
    return total


def subs(f, mapping):
    """f with polynomials (or scalars) substituted for some variables."""
    out = MultiPoly(f.variables)
    cache = {}
    for e, c in f.terms.items():
        term = MultiPoly.const(f.variables, c)
        for name, k in zip(f.variables, e):
            if k == 0:
                continue
            if name in mapping:
                key = (name, k)
                if key not in cache:
                    rep = mapping[name]
                    if not isinstance(rep, MultiPoly):
                        rep = MultiPoly.const(f.variables, rep)
                    cache[key] = rep ** k
                term = term * cache[key]
            else:
                term = term * MultiPoly.var(f.variables, name) ** k
        out = out + term
    return out


# -- the cohomology and product checks of fano.h0_P and fano.pr_basis ------

def h1_P(r, a, b):
    """dim H^1(P(r), O(a, b)); zero for a < 0."""
    if a < 0:
        return 0
    return sum(mult * max(0, -(d + b) - 1)
               for d, mult in sym_split(a, r).items())


def mult_surjective(r, d1, d2):
    """Surjectivity of the multiplication map O(d1) x O(d2) -> O(d1 + d2)
    on P(r), checked monomial by monomial."""
    (a1, b1), (a2, b2) = d1, d2
    if min(a1, b1, a2, b2) < 0:
        raise ValueError("degrees must be nonnegative")
    prods = set()
    for m1 in pr_basis(r, a1, b1):
        for m2 in pr_basis(r, a2, b2):
            prods.add(tuple([x + y for x, y in zip(m1, m2)]))
    return prods == set(pr_basis(r, a1 + a2, b1 + b2))


def enumerated_restriction_surjective(r, a, b):
    """Surjectivity of restriction of O(a, b) on P(r) to S: the restrictions
    of every monomial of `pr_basis` fill the (a + 1)(b + 1) monomials of
    O(a, b) on S."""
    images = {pr_restrict(mono) for mono in pr_basis(r, a, b)} - {None}
    return len(images) == (a + 1) * (b + 1)


def s_basis(a, b):
    """Monomial basis (i, j, al, be) of O(a, b) on S = P^1 x P^1."""
    if a < 0 or b < 0:
        return []
    return [(i, a - i, al, b - al)
            for i in range(a + 1) for al in range(b + 1)]


# -- the elimination route of snc.structure_cohomology ---------------------

def dual_boundaries(d):
    """Boundary matrices (d1, d2, edges) of the dual cell complex. Each row
    is a sparse {column index: ±1} dict over the double curves `edges`: d1
    has one row per triple point, d2 one row per polygon in sorted order
    (the transpose of the boundary map, which has the same rank and Smith
    invariants)."""
    edges = sorted(d.curves, key=sorted)
    eidx = {e: i for i, e in enumerate(edges)}
    d2 = [{eidx[edge]: s for edge, s in d.polygons[v].items()}
          for v in sorted(d.polygons)]
    d1 = [{} for _ in range(d.triangle_count)]
    for edge, i in eidx.items():
        fr, to = d.curves[edge]
        d1[to][i] = 1
        d1[fr][i] = -1
    return d1, d2, edges


def dual_cohomology(d):
    """(h0, h1, h2) of the dual cell complex from the ranks of both
    boundaries, by elimination."""
    d1, d2, edges = dual_boundaries(d)
    r1, r2 = sparse_rank(d1), sparse_rank(d2)
    return (d.triangle_count - r1, len(edges) - r1 - r2,
            len(d.polygons) - r2)


def validate_presentation(g):
    """True when every relation letter of the `snc.GroupPresentation` g is
    a nonzero signed index of one of its generators; ValueError if not."""
    for word in g.relations:
        for letter in word:
            if letter == 0 or abs(letter) > g.generator_count:
                raise ValueError("relation letter out of range")
    return True
