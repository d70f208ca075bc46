"""Exact integer / rational linear algebra on one sparse echelon core.

Dense matrices are plain lists of rows with int or fractions.Fraction
entries; sparse vectors are {column: int} dicts. A rational vector is
(integer numerators, denominator > 0), and this module owns that form:
`clear_denominators` makes it from a row, `lowest_terms` reduces it.
`_echelon` is the one elimination over Q: `rank` counts its pivot rows,
and `sparse_solve_and_kernel` reads them through one back-substitution
reader, to which `solve` and `kernel_basis` adapt dense rows.
`echelon_mod_p` is the one elimination over F_p, read by `rank_mod_p` and
the codimension estimator. `invariant_factors` is the one Smith
elimination: it pivots each row, shortest first, on its first ±1 entry in
repeated sparse rounds and finishes the small core left without units by
least-|x| pivots; it is the one elimination `snc` calls, and
`smith_normal_form` pads its invariants with zeros. `fano` ranks its
products as a signed graph, with no elimination.
`det_int` is a dense Bareiss determinant. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _echelon(vectors):
    """Fraction-free echelon over Q of sparse integer vectors, {column: int}
    dicts with comparable column keys. Returns {pivot column: row}.

    Each kept row is stored at its smallest column. A vector is reduced by
    the row stored at its smallest column (a * v - b * row cancels that
    column) and divided by the gcd of its entries, until its smallest
    column is free or it vanishes (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", 1968). The pivot
    columns depend only on the row space.
    """
    rows = {}
    for vec in vectors:
        v = {c: x for c, x in vec.items() if x}
        while v:
            c = min(v)
            row = rows.get(c)
            if row is None:
                rows[c] = v
                break
            a, b = row[c], v[c]
            v = {k: a * x for k, x in v.items()}
            for k, y in row.items():
                x = v.get(k, 0) - b * y
                if x:
                    v[k] = x
                else:
                    del v[k]
            g = gcd(*v.values())
            if g > 1:
                v = {k: x // g for k, x in v.items()}
    return rows


def clear_denominators(row):
    """(d row, d) for a row of ints and Fractions, d the lcm of the
    denominators of its entries. d row is primitive when some integer
    combination of its entries is 1 (a common factor of d row then divides
    d), not in general: (2/3, 4/3) gives ((2, 4), 3)."""
    d = lcm(*[x.denominator for x in row])
    return tuple([x.numerator * (d // x.denominator) for x in row]), d


def lowest_terms(num, den):
    """The vector num / den, integer numerators over den != 0, as
    (numerators, denominator) with no common factor and den > 0."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    return [x // g for x in num], den // g


def _sparse(row):
    """A dense row of ints and Fractions as a {column: int} dict, scaled by
    the lcm of its denominators."""
    return {c: x for c, x in enumerate(clear_denominators(row)[0]) if x}


def _read(pivots, x, m):
    """Complete the target x, {column: int} on free columns, to the vector
    on which every pivot row vanishes, and return it on the first m columns
    in lowest terms. Pivots are taken in descending order, so each row
    meets only values already set; the denominator takes a factor of a
    pivot only when a new value needs it, and every numerator is rescaled
    with it. No column past the target's is ever set."""
    den = 1
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        s = sum([y * x[k] for k, y in row.items() if k in x])
        if s:
            g = gcd(s, row[c])
            s, r = s // g, row[c] // g
            if r != 1:
                den *= r
                for k in x:
                    x[k] *= r
            x[c] = -s
    return lowest_terms([x.get(c, 0) for c in range(m)], den)


def sparse_solve_and_kernel(vectors, m):
    """(solution, kernel basis) of M x = b from one echelon of the rows of
    M augmented by b in column m, sparse integer {column: int} dicts, each
    vector as (integer numerators, denominator) in lowest terms. The
    solution sets the free variables to zero and is None when b is not in
    the column span (m is a pivot column); the kernel has one vector per
    free column, in column order, with 1 there and 0 on the other free
    columns. The pivot rows below column m, read on the first m columns,
    are an echelon basis of the row space of M with the same pivot
    columns, so they give the kernel of M."""
    pivots = _echelon(vectors)
    sol = None if m in pivots else _read(pivots, {m: -1}, m)
    return sol, [_read(pivots, {c: 1}, m) for c in range(m)
                 if c not in pivots]


def _fractions(vector):
    num, den = vector
    return [Fraction(v, den) for v in num]


def rank(rows):
    """Rank over the rationals of a dense matrix."""
    return len(_echelon(map(_sparse, rows)))


def solve(rows, b):
    """Exact solution of M x = b, free variables zero, or None when b is
    not in the column span."""
    if len(b) != len(rows):
        raise ValueError("dimension mismatch")
    m = len(rows[0]) if rows else 0
    sol = sparse_solve_and_kernel(
        [_sparse([*row, x]) for row, x in zip(rows, b)], m)[0]
    return None if sol is None else _fractions(sol)


def kernel_basis(rows):
    """Basis of the rational null space of M, the kernel of
    `sparse_solve_and_kernel` as Fractions."""
    m = len(rows[0]) if rows else 0
    return [_fractions(v)
            for v in sparse_solve_and_kernel(map(_sparse, rows), m)[1]]


def det_int(rows):
    """Determinant of a square integer matrix, fraction-free."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            ric = a[i][c]
            acc = a[c][c]
            for j in range(c, n):
                a[i][j] = (a[i][j] * acc - ric * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[n - 1][n - 1]


def invariant_factors(vectors):
    """Nonzero Smith invariants d1 | d2 | ... of sparse integer rows,
    {column: int} dicts.

    Each ±1 entry is a unit pivot: clearing its column from the other rows
    leaves the Schur complement and contributes one invariant 1. The rows,
    copied and sorted by length once, are taken in turn, each pivoting on
    its first ±1 entry; the rows that had none at their turn are taken
    again, until a round pivots nothing. The Smith invariants do not depend
    on the pivot order. Each column keeps an append-only list of the rows
    that ever held it; a row no longer holding the column is skipped. The
    core without units left over goes to `_core_invariants` (Dumas,
    Heckenbach, Saunders and Welker, "Computing simplicial homology based
    on efficient Smith normal form algorithms", 2003).
    """
    rows = [row for row in ({c: x for c, x in vec.items() if x}
                            for vec in vectors) if row]
    rows.sort(key=len)
    cols = {}
    for i, row in enumerate(rows):
        for c in row:
            cols.setdefault(c, []).append(i)
    units = 0
    todo = range(len(rows))
    while todo:
        left = []
        for i in todo:
            row = rows[i]
            for c, p in row.items():
                if p == 1 or p == -1:
                    break
            else:
                left.append(i)
                continue
            rows[i] = {}  # the pivot row leaves; its own entry is skipped
            del row[c]  # p = ±1 is its own inverse
            for j in cols.pop(c):
                other = rows[j]
                if c not in other:
                    continue
                q = other.pop(c) * p
                for k, y in row.items():
                    x = other.get(k, 0) - q * y
                    if x:
                        if k not in other:
                            cols[k].append(j)
                        other[k] = x
                    else:  # q * y != 0, so k was in other
                        del other[k]
            units += 1
        todo = left if len(left) < len(todo) else ()
    return [1] * units + _core_invariants([row for row in rows if row])


def _core_invariants(rows):
    """Nonzero Smith invariants d1 | d2 | ... of sparse integer rows,
    {column: int} dicts, which it reduces in place.

    Each pass pivots on an entry p of least absolute value in all of the
    rows and clears its column by floor-quotient row operations; once the
    column is clear, clearing the pivot row by column operations touches
    that row alone. A nonzero remainder is smaller than |p|, so the least
    absolute value falls until the pivot is alone in its row and column,
    one diagonal entry. The choice is global because an in-place Euclid on
    one row and column lets the entries grow past 10**300. gcd and lcm
    over each pair then order the diagonal by divisibility.
    """
    diagonal = []
    while any(rows):
        i, c = min(((i, c) for i, row in enumerate(rows) for c in row),
                   key=lambda e: abs(rows[e[0]][e[1]]))
        top = rows[i]
        p = top[c]
        left = False
        for other in rows:
            if other is top or c not in other:
                continue
            q = other[c] // p
            for k, y in top.items():
                x = other.get(k, 0) - q * y
                if x:
                    other[k] = x
                else:  # |p| is least, so q * y != 0 and k was in other
                    del other[k]
            left = left or c in other
        if left:
            continue
        rest = {k: x % p for k, x in top.items() if k != c and x % p}
        if rest:
            rows[i] = {c: p, **rest}
        else:
            diagonal.append(abs(p))
            del rows[i]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            diagonal[i], diagonal[j] = gcd(a, b), lcm(a, b)
    return diagonal


def smith_normal_form(rows):
    """Diagonal d1 | d2 | ... of the Smith normal form of an integer matrix,
    min(rows, cols) entries with the zeros last: its `invariant_factors`
    padded with zeros."""
    d = invariant_factors([{c: int(x) for c, x in enumerate(row)}
                           for row in rows])
    return d + [0] * (min(len(rows), len(rows[0]) if rows else 0) - len(d))


def echelon_mod_p(rows, p, ncols):
    """Row echelon form over F_p of a copy of rows, eliminating on the
    first ncols columns; entries must lie in range(p). Returns (rank, rows):
    the rows past the rank vanish on those columns."""
    a = [row[:] for row in rows]
    n = len(a)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        inv = pow(top[c], -1, p)
        for i in range(r + 1, n):
            f = a[i][c]
            if f:
                f = f * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], top)]
        r += 1
        if r == n:
            break
    return r, a


def rank_mod_p(rows, p=46337):
    """Rank of an integer matrix over F_p.

    Always a lower bound for the rational rank; equality holds whenever the
    result matches an a-priori upper bound such as the row count.
    """
    reduced = [[x % p for x in row] for row in rows]
    return echelon_mod_p(reduced, p, len(rows[0]) if rows else 0)[0]
