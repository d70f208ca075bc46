"""Dense exact linear algebra, kept as the independent second route for
`sncgeom.lattice` and for the determinants and adjugates of `sncgeom.poly`.

The library ranks, solves and takes kernels on one sparse fraction-free
echelon, and reads Smith invariants off a diagonal-only pivot loop. The
routines here are the dense ones it replaced: Bareiss rank, Fraction
Gauss-Jordan (`_rref`) for `solve` and `kernel_basis`, the Smith form with
its unimodular transforms U and V and their `check`, and the numpy modular
rank. `rank_mod_p` counts the row space over F_p instead of eliminating.

For polynomial matrices, whose minors the library expands along first
rows with nothing memoized, `det_bareiss` is the fraction-free elimination
with exact polynomial division it used above 4x4, and `leibniz_det` and
`cofactor_adjugate` sum over permutations.

For the determinantal codimensions, which the library counts over kernel
directions, `locus_incidence_count` visits every point of the ambient
space instead.

For the degree-one polarization, which the library takes from one
integer solve on the cycle's Gram matrix (a closed form when every
C^2 = -2), `path_sweep` and `sweep_polarization` are the integer route of
one path sweep per cycle position it replaced, `thomas_path_sweep` the
Fraction Thomas sweep before that, `thomas_polarization` the Fraction
accumulation around it, and `uniform_degree_seed` the seed on the dense
`solve` and `kernel_basis` with the Fraction congruence diagonalization
`positive_direction`. `validate_cycle_surface` checks a raw
(blowup_count, supports), since no invalid surface can be made, by dense
pairings of all pairs of classes, where the library pairs sparse
supports only where two classes share a basis index or are neighbours.
`dense_blowup` is the blow-up on dense classes and a stored K, copying
every class, where the library stores sparse supports, shares those a
blow-up leaves alone, and derives K and the dense classes.
`blowup_cycle_surface` and `standard_schedule` build `cycle_surface`
and `standard_schedule` one surface per blow-up, where the library blows
up one list of supports, and `corner_surface` builds `corner_surface` one
surface per blow-up, where the library writes its supports down in closed
form.

For `MultiPoly`, whose monomials are packed ints in one interned ring,
`TuplePoly` is the arithmetic on {exponent tuple: int} dicts it replaced
(`+`, `-`, `*`, negation), with no exponent limit, and `tuple_divide_exact`
the division over Z on it. `extend_vars` moves each exponent to its
variable's field one by one, in a ring holding the old variables in any
order, where `MultiPoly.extend_vars` shifts each monomial once past the
appended variables. `random_poly` is the fuzz suites'
draw through the validating constructor, which `poly._random_poly` replaced
by packed keys from the same bits, drawn by `randrange`'s rejection loop
inline.

For the resolution chain, whose interior P^1-bundle members the library
shares as one frozen `ChainMember`, `chain_members` constructs one member
per position.

For the Fano section products, which the library ranks on packed integer
columns as a signed graph, by one union-find, `tuple_product_rank` is the
general route on (side, exponent tuple) columns it replaced, with
`mul_monomial_dicts` its product and `sparse_fraction_rank`, a Fraction
elimination of its own, its rank. The library writes its glued bases
packed; `unpack_basis` (over `unpack_column`) reads one back into (left
dict, right dict) sections, and `pack_sections` packs such sections by the
rule `fano._product_rank` applied before, so that hand-made sections still
drive the library's rank. For the glued bases,
which `fano.glued_basis` writes down from the known structure of the
restriction to S, `bucketed_glued_basis` is the route it replaced:
restrict every monomial (`pr_restrict`, `p3_restrict`, `swap_factors`,
over `left_basis` and `right_basis`, with `p3_basis` the P^3 monomials and
`pr_basis` the tuple enumeration that the packed `fano._columns`
replaced) and bucket it by its restriction. The surjectivity of
restriction to S, on which the fiber-product count in `fano.glued_basis`
rests, is a fact the library no longer tests;
`enumerated_restriction_surjective` checks it by restricting all of
`pr_basis`.

For the cohomology of the dual complex, which the library reads off cell
counts and the balance walk of `snc.canonical_order`, `dual_boundaries`
builds both ±1 boundary matrices and `dual_cohomology` ranks them by
elimination.

For the simplicial oracle, which the library reduces along a spanning
forest of the 1-skeleton and ranks on the cotree columns of d2 alone,
`simplicial_boundaries` builds both full boundaries over the sorted edges
and `simplicial_homology` takes the invariant factors of each.

Eight helpers left the library for here, since only tests read them:

- `parse_poly` reads `3*x1^2*t - x2` syntax into a `MultiPoly`; `test_poly`
  builds its polynomials with it (the `P` helper and the parse tests).
- `evaluate` substitutes scalars for every variable. It is the evaluation
  route of `test_poly::test_trusted_arithmetic_is_normalised`, which checks
  packed products and sums against products and sums of values.
- `subs` substitutes polynomials for some variables. It sets s or t to 1 in
  `test_poly::_two_variable_chart`, the chart oracle of
  `test_blowup_chart_verify_both_charts`.
- `sym_split` is the splitting of the symmetric powers of O + O + O(r)
  that `fano.h0_P` sums in one pass; `h1_P` reads it, and `test_fano`
  checks it and the Riemann-Roch count on it.
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
from math import comb, lcm
from operator import index

from sncgeom.fano import h0_P
from sncgeom.lattice import (det_int, echelon_mod_p, invariant_factors,
                             sparse_rank)
from sncgeom.picard import (InvariantError, NegativeDefiniteViolation,
                            NoAmpleSeed, blowup_corner, blowup_on_curve, dot,
                            triangle_surface)
from sncgeom.poly import (SQUARE, DomainMismatch, MultiPoly, PolyMatrix,
                          divide_exact)
from sncgeom.resolution import (CONIC_BUNDLE_BLOWN, END_COMPONENT,
                                P1_BUNDLE_BLOWN_ALONG_C, P1_BUNDLE_OVER_S,
                                Z2_BLOWN_ALONG_C, ChainMember)
from sncgeom.snc import AbelianInvariants


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


def sparse_fraction_rank(vectors):
    """Rank over Q of sparse vectors, {column: number} dicts with comparable
    columns, by Gaussian elimination on Fraction rows: each kept row is
    scaled to 1 at its largest column and stored there, and a vector is
    reduced by the row stored at its largest column until that column is
    free or the vector vanishes. It shares no code with the library's
    fraction-free echelon, which stores each row at its smallest column."""
    rows = {}
    for vec in vectors:
        v = {c: Fraction(x) for c, x in vec.items() if x}
        while v:
            c = max(v)
            row = rows.get(c)
            if row is None:
                rows[c] = {k: x / v[c] for k, x in v.items()}
                break
            x = v[c]
            for k, y in row.items():
                z = v.get(k, 0) - x * y
                if z:
                    v[k] = z
                else:
                    del v[k]
    return len(rows)


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


def extend_vars(f, variables):
    """f reinterpreted in the ring of `variables`, which holds f's variables
    in any order, each exponent moved to its variable's place."""
    place = [variables.index(v) for v in f.variables]
    terms = {}
    for e, c in f.terms.items():
        exps = [0] * len(variables)
        for k, i in zip(e, place):
            exps[i] = k
        terms[tuple(exps)] = c
    return MultiPoly(variables, terms)


def random_poly(rng, variables, degree=2, nterms=3, coeff=5):
    terms = {}
    for _ in range(nterms):
        e = [0] * len(variables)
        for _ in range(rng.randrange(degree + 1)):
            e[rng.randrange(len(variables))] += 1
        c = rng.randint(-coeff, coeff)
        terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return MultiPoly(variables, terms)


def chain_members(m, h2_z1, h2_s, h2_c, h2_z2):
    """`resolution.chain_members` with one `ChainMember` constructed per
    position of the chain, where the library shares one interior member."""
    if m < 1:
        raise ValueError("multiplicity must be positive")
    members = [ChainMember(END_COMPONENT, h2_z1)]
    if m == 1:
        members.append(ChainMember(Z2_BLOWN_ALONG_C, h2_z2 + h2_c))
        return members
    first = CONIC_BUNDLE_BLOWN if m == 2 else P1_BUNDLE_BLOWN_ALONG_C
    members.append(ChainMember(first, h2_s + 1 + h2_c))
    for _ in range(m - 2):
        members.append(ChainMember(P1_BUNDLE_OVER_S, h2_s + 1))
    members.append(ChainMember(END_COMPONENT, h2_z2))
    return members


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


def path_sweep(sq, j, deg):
    """Integer sweep on the Gram matrix T of the path C_{j+1}, ..., C_{j-1}
    (diagonal d_k = C^2, off-diagonal 1 on a validated cycle).

    The continuants theta_0 = 1, theta_k = d_k theta_{k-1} - theta_{k-2}
    are T's leading minors: None unless every theta_k / theta_{k-1} < 0
    (Sylvester's criterion). Else (path, A, theta_n), T.(A / theta_n) = r
    for r_k = -deg: Y_k = r_k theta_{k-1} - Y_{k-1}, A_n = Y_n and
    A_k = (Y_k theta_n - A_{k+1} theta_{k-1}) / theta_k, an exact division
    as theta_n T^-1 = adj T is integral (Usmani, Linear Algebra Appl. 1994).
    """
    m = len(sq)
    path = [(j + k) % m for k in range(1, m)]
    theta, ys, y = [0, 1], [], 0  # from theta_{-1} = 0, theta_0 = 1
    for i in path:
        theta.append(sq[i] * theta[-1] - theta[-2])
        if theta[-1] * theta[-2] >= 0:
            return None
        y = -deg[i] * theta[-2] - y
        ys.append(y)
    tn = theta[-1]
    a = [ys[-1]]
    for k in range(m - 3, -1, -1):
        a.append((ys[k] * tn - a[-1] * theta[k + 1]) // theta[k + 2])
    a.reverse()
    return path, a, tn


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


def validate_cycle_surface(blowup_count, supports):
    """`picard.CycleSurface.validate` on a raw (blowup_count, supports),
    by dense pairings of every pair of cycle classes, with the same
    messages in the same order."""
    k, m = blowup_count, len(supports)
    if any(not 0 <= t <= k for c in supports for t in c):
        raise InvariantError("class index out of range")
    cycle = [tuple(c.get(t, 0) for t in range(k + 1)) for c in supports]
    canonical = (-3,) + (1,) * k
    total = [sum(c[i] for c in cycle) for i in range(k + 1)]
    if total != [-x for x in canonical]:
        raise InvariantError("cycle does not sum to -K")
    for i, ci in enumerate(cycle):
        if dot(ci, ci) + dot(canonical, ci) != -2:
            raise InvariantError(f"cycle member {i} has genus != 0")
        for j in range(i + 1, m):
            expected = 1 if (j - i == 1 or (i == 0 and j == m - 1)) else 0
            if m == 2 and j - i == 1:
                expected = 2
            if dot(ci, cycle[j]) != expected:
                raise InvariantError(
                    f"intersection (C_{i}.C_{j}) != {expected}")
    return True


def dense_blowup(cycle, canonical, j, corner):
    """`picard.blowup_corner` (corner) or `blowup_on_curve` at position j
    on dense classes and K: (cycle, canonical) of the blown-up surface,
    with every class copied one entry longer."""
    k = len(canonical)
    e = tuple([0] * k + [1])
    cycle = [tuple(c) + (0,) for c in cycle]
    for i in ((j, (j + 1) % len(cycle)) if corner else (j,)):
        cycle[i] = tuple([a - b for a, b in zip(cycle[i], e)])
    if corner:
        cycle.insert(j + 1, e)  # between C_j and C_{j+1}, last if j = m - 1
    return tuple(cycle), tuple([a + b for a, b in zip(canonical + (0,), e)])


def thomas_polarization(s, seed_ample):
    """`picard.degree_one_polarization` on `validate_cycle_surface` and
    `thomas_path_sweep`, with every weight and coefficient a Fraction."""
    # the cycle pattern makes each Gram a path
    validate_cycle_surface(s.blowup_count, s.supports)
    m, sq = s.length, [dot(c, c) for c in s.cycle]
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


def sweep_polarization(s, seed_ample):
    """`picard.degree_one_polarization` by one `path_sweep` per cycle
    position, in integer numerators over lcm(D_j), on
    `validate_cycle_surface` and dense pairings: the per-position
    corrections of the seed, averaged with weights
    1/(H'_j.C_j) = theta_n / D_j, D_j = deg_j theta_n + A_0 + A_last."""
    # the cycle pattern makes each Gram a path
    validate_cycle_surface(s.blowup_count, s.supports)
    m, sq = s.length, [dot(c, c) for c in s.cycle]
    if any(c2 > -2 for c2 in sq):
        raise NegativeDefiniteViolation(
            "all cycle self-intersections must be <= -2")
    degs = [dot(seed_ample, c) for c in s.cycle]
    if any(d <= 0 for d in degs) or dot(seed_ample, seed_ample) <= 0:
        raise NoAmpleSeed("seed must have positive degree on every C_j "
                          "and positive self-intersection")
    sweeps = []
    for j in range(m):
        swept = path_sweep(sq, j, degs)
        if swept is None:
            raise NegativeDefiniteViolation(
                f"curves other than C_{j} are not negative definite")
        path, a, tn = swept  # only the path's ends meet C_j, once each
        dj = degs[j] * tn + a[0] + a[-1]
        if dj * tn <= 0:  # degree D_j / theta_n <= 0
            raise NoAmpleSeed(f"corrected class has degree "
                              f"{Fraction(dj, tn)} on C_{j}")
        sweeps.append((path, a, tn, dj))
    den = lcm(*[dj for _, _, _, dj in sweeps])
    weight, coef = 0, [0] * m  # numerators over den
    for path, a, tn, dj in sweeps:
        f = den // dj
        weight += tn * f
        for i, ai in zip(path, a):
            coef[i] += ai * f
    num = [weight * x + sum(ci * c[t] for ci, c in zip(coef, s.cycle))
           for t, x in enumerate(seed_ample)]
    for c in s.cycle:
        if dot(num, c) != den:
            raise InvariantError("polarization degree is not 1 on the cycle")
    if dot(num, num) <= 0:
        raise InvariantError("polarization has non-positive square")
    return tuple([Fraction(x, den) for x in num])


def standard_schedule():
    """`picard.standard_schedule` by one `blowup_corner` or
    `blowup_on_curve` surface per step: six corners, then one interior
    blow-up on each -1 curve they leave."""
    s = triangle_surface()
    for j in (0, 2, 4, 0, 3, 6):
        s = blowup_corner(s, j)
    for j, c2 in enumerate(s.self_intersections()):
        if c2 == -1:
            s = blowup_on_curve(s, j)
    return s


def corner_surface(n):
    """`picard.corner_surface` by n `blowup_corner(s, 0)` surfaces, one per
    step."""
    s = triangle_surface()
    for _ in range(n):
        s = blowup_corner(s, 0)
    return s


def blowup_cycle_surface(m):
    """`picard.cycle_surface` by one `blowup_corner` or `blowup_on_curve`
    surface per step, the interior passes reading each surface's
    self-intersections afresh."""
    if m < 3:
        raise ValueError("cycle length must be at least 3")
    s = triangle_surface()
    for i in range(m - 3):
        s = blowup_corner(s, (2 * i) % s.length)
    changed = True
    while changed:
        changed = False
        for j, c2 in enumerate(s.self_intersections()):
            if c2 > -2:
                s = blowup_on_curve(s, j)
                changed = True
    return s


def mul_monomial_dicts(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple([a + b for a, b in zip(e1, e2)])
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def pack_sections(first, second=None):
    """Two lists of (left dict, right dict) glued sections, `second`
    possibly None, split and packed the way `fano._product_rank` reads a
    basis, by the rule it applied before `fano.glued_basis` returned packed
    bases: one field width for both lists, wide enough for twice their
    largest exponent, the first exponent highest, and the right tag bit
    above the most fields of any monomial. A single-term section becomes a
    bare int, its coefficient dropped (a unit vector over Q either way);
    the others become (left terms, right terms) lists of (column, int)."""
    bases = [basis for basis in (first, second) if basis is not None]
    monos = [mono for basis in bases for section in basis
             for poly in section for mono in poly]
    width = (2 * max([e for mono in monos for e in mono],
                     default=0)).bit_length()
    tag = 1 << width * max(map(len, monos), default=0)

    def column(mono, side):
        col = 0
        for e in mono:
            col = (col << width) | e
        return col | tag if side else col

    packed = []
    for basis in bases:
        singles, others = ([], []), []
        for section in basis:
            left, right = [[(column(mono, side), c)
                            for mono, c in poly.items()]
                           for side, poly in enumerate(section)]
            if len(left) + len(right) == 1:
                singles[0 if left else 1].append((left or right)[0][0])
            else:
                others.append((left, right))
        packed.append((*singles, others))
    return packed[0], None if second is None else packed[1]


def unpack_column(col, width, right_fields):
    """(side, exponent tuple) of a packed column of `fano.glued_basis`, or
    of a sum of two such columns: fields of `width` bits, the first
    exponent highest, five on the left and `right_fields` on the right,
    which carries the tag above five fields."""
    side = 1 if col >> 5 * width else 0
    n = right_fields if side else 5
    mask = (1 << width) - 1
    return side, tuple([col >> width * (n - 1 - f) & mask for f in range(n)])


def unpack_basis(z, basis, width):
    """The (left dict, right dict) sections of a packed
    `fano.glued_basis(z, m, width)`, in its order: the left single-term
    sections, the right ones, then the others. A column read on the wrong
    side raises AssertionError."""
    fields = 4 if z.kind == "zr" else 5

    def poly(terms, side):
        out = {}
        for col, c in terms:
            got, mono = unpack_column(col, width, fields)
            if got != side:
                raise AssertionError("packed column on the wrong side")
            out[mono] = c
        return out

    left, right, others = basis
    return ([(poly([(col, 1)], 0), {}) for col in left]
            + [({}, poly([(col, 1)], 1)) for col in right]
            + [(poly(lt, 0), poly(rt, 1)) for lt, rt in others])


def tuple_product_rank(pairs, bound):
    """Exact rank of the products of pairs of glued sections, each a sparse
    {(side, monomial): int} vector with its terms summed per column; exact
    duplicates are dropped, and the rest ranked by `sparse_fraction_rank`,
    not by the library's echelon. A rank
    above `bound`, the glued h0 of the target degree, means the products
    left the glued section space."""
    vectors = {}
    for (l1, r1), (l2, r2) in pairs:
        vec = {(0, e): c for e, c in mul_monomial_dicts(l1, l2).items()}
        for e, c in mul_monomial_dicts(r1, r2).items():
            vec[(1, e)] = c
        vectors[frozenset(vec.items())] = vec
    rank = sparse_fraction_rank(vectors.values())
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


# -- the tuple monomial basis of P(r), and the cohomology and product checks
# -- of fano.h0_P

def pr_basis(r, a, b):
    """Monomial basis (i, j, k, al, be) of O(a, b) on P(r), k rising and
    the w-free monomials first: the order of `fano._columns`."""
    if a < 0:
        return []
    out = []
    for k in range(a + 1):
        base = b + k * r
        if base < 0:
            continue
        for i in range(a - k + 1):
            j = a - k - i
            for al in range(base + 1):
                out.append((i, j, k, al, base - al))
    return out


def sym_split(a, r):
    """P^1-degrees (with multiplicity) of the rank-side splitting of the
    a-th symmetric power of O + O + O(r)."""
    if a < 0:
        raise ValueError("symmetric power degree must be nonnegative")
    if r < 0:
        raise ValueError("twist must be nonnegative")
    out = {}
    for k in range(a + 1):
        out[k * r] = out.get(k * r, 0) + (a - k + 1)
    return out


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



# -- the restriction maps and the bucketing route of fano.glued_basis -------

def p3_basis(m):
    """Degree-m monomials on P^3 as exponent 4-tuples."""
    out = []
    for e0 in range(m + 1):
        for e1 in range(m + 1 - e0):
            for e2 in range(m + 1 - e0 - e1):
                out.append((e0, e1, e2, m - e0 - e1 - e2))
    return out


def pr_restrict(mono):
    """Restriction of a P(r) monomial to S (set w = 0); None if divisible."""
    i, j, k, al, be = mono
    if k != 0:
        return None
    return (i, j, al, be)


def p3_restrict(mono):
    """Restriction of a P^3 monomial to the Segre quadric
    (x0, x1, x2, x3) = (ac, ad, bc, bd)."""
    e0, e1, e2, e3 = mono
    return (e0 + e1, e2 + e3, e0 + e2, e1 + e3)


def swap_factors(smono):
    i, j, al, be = smono
    return (al, be, i, j)


def left_basis(z, m):
    return pr_basis(z.r, m, m)


def right_basis(z, m):
    if z.kind == "zr":
        return p3_basis(m)
    return pr_basis(z.s, m, m)


def right_restrict(z, mono):
    if z.kind == "zr":
        return p3_restrict(mono)
    return pr_restrict(mono)


def bucketed_glued_basis(z, m):
    """Integral basis of the glued sections of degree m, each a pair of
    monomial dicts: one unit section per column that vanishes on S, then
    the signed consecutive differences inside each restriction bucket.

    A column is a (side, monomial) pair, side 0 for the left basis and 1
    for the right one. Each S-monomial of bidegree (m, m) that gets hit
    collects the signed columns restricting to it (+1 left, -1 right), so
    the basis has one section per column less one per bucket. Both
    restrictions are onto O(m, m) on S: the w-free monomials of P(r)
    restrict to all (m + 1)^2 monomials of S, and P^3 restricts onto the
    quadric (H^1(O(m - 2)) = 0). So the basis size is checked against the
    fiber-product dimension h0_left + h0_right - (m + 1)^2.
    """
    if m < 1:
        raise ValueError("power must be >= 1")
    out = []
    buckets = {}
    for side, basis, restrict, sign in (
            (0, left_basis(z, m), pr_restrict, 1),
            (1, right_basis(z, m), lambda mono: right_restrict(z, mono), -1)):
        for mono in basis:
            sm = restrict(mono)
            if sm is None:
                section = ({}, {})
                section[side][mono] = 1
                out.append(section)
                continue
            if side and z.swap:
                sm = swap_factors(sm)
            buckets.setdefault(sm, []).append((side, mono, sign))
    for cols in buckets.values():
        for (side1, mono1, s1), (side2, mono2, s2) in zip(cols, cols[1:]):
            section = ({}, {})
            section[side1][mono1] = s1
            section[side2][mono2] = -s2
            out.append(section)
    h0_right = comb(m + 3, 3) if z.kind == "zr" else h0_P(z.s, m, m)
    if len(out) != h0_P(z.r, m, m) + h0_right - (m + 1) ** 2:
        raise AssertionError("glued h0 disagrees with the fiber-product "
                             "dimension count")
    return out


# -- the elimination route of snc.structure_cohomology ---------------------

def dual_boundaries(d):
    """Boundary matrices (d1, d2, edges) of the dual cell complex. Each row
    is a sparse {column index: ±1} dict over the double curves `edges`: d1
    has one row per triple point, d2 one row per polygon in sorted order
    (the transpose of the boundary map, which has the same rank and Smith
    invariants)."""
    edges = sorted(d.curves)
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


# -- the full-complex route of snc.simplicial_homology ---------------------

def simplicial_boundaries(t):
    """Boundary matrices (d1, d2, edges) of the simplicial chain complex
    over Z, with the canonical orientation given by sorted vertex tuples.
    Each row is a sparse {column index: ±1} dict over the edges sorted as
    vertex pairs: d1 has one row per vertex, d2 one row per triangle (the
    transpose of the boundary map, which has the same rank and Smith
    invariants)."""
    tris = [sorted(tri) for tri in t.triangles]
    edges = sorted({e for a, b, c in tris for e in ((a, b), (a, c), (b, c))})
    eidx = {e: i for i, e in enumerate(edges)}
    d1 = [{} for _ in range(t.vertex_count)]
    for (a, b), i in eidx.items():
        d1[b][i] = 1
        d1[a][i] = -1
    d2 = [{eidx[b, c]: 1, eidx[a, c]: -1, eidx[a, b]: 1} for a, b, c in tris]
    return d1, d2, edges


def simplicial_homology(t):
    """((h0, h1, h2), H_1 invariants) of the triangulation from the
    invariant factors of both full boundaries, with no spanning forest."""
    d1, d2, edges = simplicial_boundaries(t)
    r1 = len(invariant_factors(d1))
    nonzero = invariant_factors(d2)
    r2 = len(nonzero)
    h1 = len(edges) - r1 - r2
    return ((t.vertex_count - r1, h1, len(t.triangles) - r2),
            AbelianInvariants(free_rank=h1,
                              torsion=tuple(x for x in nonzero if x > 1)))


def validate_presentation(g):
    """True when every relation letter of the `snc.GroupPresentation` g is
    a nonzero signed index of one of its generators; ValueError if not."""
    for word in g.relations:
        for letter in word:
            if letter == 0 or abs(letter) > g.generator_count:
                raise ValueError("relation letter out of range")
    return True
