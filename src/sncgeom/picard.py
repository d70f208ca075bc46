"""Rational surfaces with an anticanonical cycle, as Picard lattices.

The lattice basis is (H, E_1, ..., E_k) with intersection form
diag(+1, -1, ..., -1); the canonical class is K = -3H + sum E_i.
Surfaces store each cycle class as a sparse support {index: coefficient},
and a blow-up shares the supports it leaves alone with its parent; K and
the dense classes are derived. Each surface is validated once, when it
is made. A basis index meets at most three cycle curves on a blow-up
schedule, so blow-ups, validation, the seed's degree conditions and the
polarization cost O(nonzeros); `cycle_surface` and `standard_schedule`
each blow up one list of supports, and `corner_surface` writes its
supports down in closed form. The degree-one polarization is one
integer solve on the cycle's cyclic tridiagonal Gram matrix G, O(m)
operations: its diagonal minors from a rolled transfer product, adj(G) 1
by shooting two unknowns around the cycle, and where every C^2 = -2 the
closed form seed / delta - ((m^2 - 1) / 12) K, delta the seed's one
degree. Rational vectors are integer numerators over a positive
denominator, in `lattice`'s form and reduced by its `lowest_terms`;
Fractions are built only for the returned class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm

from . import lattice


class InvariantError(AssertionError):
    pass


class NegativeDefiniteViolation(ValueError):
    pass


class NoAmpleSeed(ValueError):
    pass


def dot(a, b):
    """Intersection pairing in the (H, E_1, ..., E_k) basis."""
    if len(a) != len(b):
        raise ValueError("classes live on different surfaces")
    return a[0] * b[0] - sum([x * y for x, y in zip(a[1:], b[1:])])


def _pair(u, v):
    """Intersection pairing of two supports, {index: coefficient} dicts."""
    if len(v) < len(u):
        u, v = v, u
    return (2 * u.get(0, 0) * v.get(0, 0)
            - sum([x * v[t] for t, x in u.items() if t in v]))


def _degree(h, c):
    """(h.C) for a dense class h and the support c of C."""
    return 2 * h[0] * c.get(0, 0) - sum([h[t] * x for t, x in c.items()])


def _meeting(i, j, m):
    """(C_i.C_j) for i < j on a cycle of length m: 2 on a 2-cycle, else 1
    for neighbours and 0 otherwise."""
    if m == 2:
        return 2
    return 1 if j - i == 1 or (i == 0 and j == m - 1) else 0


@dataclass(frozen=True)
class CycleSurface:
    blowup_count: int
    supports: tuple  # cyclically ordered classes, {index: nonzero coeff}

    def __post_init__(self):
        self.validate()

    @property
    def length(self):
        return len(self.supports)

    @property
    def dim(self):
        return self.blowup_count + 1

    @property
    def canonical(self):
        return tuple([-3] + [1] * self.blowup_count)

    @cached_property
    def cycle(self):
        """The classes as dense tuples, derived once from `supports`."""
        dense = [[0] * self.dim for _ in self.supports]
        for row, c in zip(dense, self.supports):
            for t, x in c.items():
                row[t] = x
        return tuple([tuple(row) for row in dense])

    def self_intersections(self):
        return tuple([_pair(c, c) for c in self.supports])

    def validate(self):
        """True, or InvariantError at the first broken invariant: every
        index in 0..k, sum C_i = -K, then per member i its genus and its
        intersections with C_j, j > i ascending. A basis index meets few
        curves, so only pairs that share one, and neighbours, are paired;
        every other pair meets in 0."""
        k, m, sup = self.blowup_count, self.length, self.supports
        if any([not 0 <= t <= k for c in sup for t in c]):
            raise InvariantError("class index out of range")
        total = [0] * (k + 1)
        meets = {}  # basis index -> members with a nonzero entry there
        for i, c in enumerate(sup):
            for t, x in c.items():
                total[t] += x
                meets.setdefault(t, []).append(i)
        if total != [3] + [-1] * k:
            raise InvariantError("cycle does not sum to -K")
        for i, c in enumerate(sup):
            # C.C + K.C with K.C = -3 c_0 - sum of the other c_t
            if _pair(c, c) - sum(c.values()) - 2 * c.get(0, 0) != -2:
                raise InvariantError(f"cycle member {i} has genus != 0")
            near = {j for t in c for j in meets[t] if j > i}
            near.update([j for j in (i + 1, m - 1)
                         if i < j < m and _meeting(i, j, m)])
            for j in sorted(near):
                expected = _meeting(i, j, m)
                if _pair(c, sup[j]) != expected:
                    raise InvariantError(
                        f"intersection (C_{i}.C_{j}) != {expected}")
        return True


def triangle_surface():
    """Three lines in the plane: cycle (H, H, H), K = -3H."""
    return CycleSurface(blowup_count=0, supports=({0: 1},) * 3)


def _blow_up(sup, k, j, corner):
    """Blow up position j of a list of supports in place; k is the new
    basis index."""
    for i in ((j, (j + 1) % len(sup)) if corner else (j,)):
        sup[i] = {**sup[i], k: -1}  # a new dict: parents share theirs
    if corner:
        sup.insert(j + 1, {k: 1})  # between C_j and C_{j+1}, last if j = m - 1


def _blowup(s, j, corner):
    if not 0 <= j < s.length:
        raise IndexError("invalid cycle position")
    sup = list(s.supports)
    _blow_up(sup, s.blowup_count + 1, j, corner)
    return CycleSurface(s.blowup_count + 1, tuple(sup))


def blowup_corner(s, j):
    """Blow up the corner C_j ∩ C_{j+1}; the exceptional curve joins the
    cycle between them and both neighbours drop by E."""
    return _blowup(s, j, corner=True)


def blowup_on_curve(s, j):
    """Blow up a general (interior) point of C_j.

    The cycle length is unchanged: C_j becomes C_j - E while -K also drops
    by E, so the anticanonical identity sum C_j = -K survives exactly.
    """
    return _blowup(s, j, corner=False)


def corner_surface(n):
    """The triangle after n `blowup_corner(s, 0)` calls, n >= 0, a cycle of
    length n + 3, in closed form: H - E_1 - ... - E_n, E_n, then
    E_k - E_(k+1) for k = n - 1, ..., 1, then H - E_1 and H."""
    if n < 0:
        raise ValueError("corner count must be >= 0")
    if n == 0:
        return triangle_surface()
    sup = [{0: 1, **dict.fromkeys(range(1, n + 1), -1)}, {n: 1}]
    sup += [{k: 1, k + 1: -1} for k in range(n - 1, 0, -1)]
    return CycleSurface(n, (*sup, {0: 1, 1: -1}, {0: 1}))


def standard_schedule():
    """The reference surface: cycle of length 9, all self-intersections -2.

    Corner blow-ups alone always leave the newest curve at -1, so the
    schedule finishes with interior blow-ups on the three -1 curves left.
    """
    sup, k = [{0: 1}] * 3, 0
    # the triangle's three corners, then three of the hexagon's (all -1)
    for j in (0, 2, 4, 0, 3, 6):
        k += 1
        _blow_up(sup, k, j, corner=True)
    for j, c in enumerate(list(sup)):
        if _pair(c, c) == -1:
            k += 1
            _blow_up(sup, k, j, corner=False)
    return CycleSurface(k, tuple(sup))


def cycle_surface(m):
    """An anticanonical cycle of length m >= 3 with all C^2 <= -2: corner
    blow-ups to length m, then passes of interior blow-ups, each lowering
    every curve still above -2 once, on one list of supports."""
    if m < 3:
        raise ValueError("cycle length must be at least 3")
    sup, k = [{0: 1}] * 3, 0
    for i in range(m - 3):
        k += 1
        _blow_up(sup, k, (2 * i) % len(sup), corner=True)
    need = [_pair(c, c) + 2 for c in sup]  # interior blow-ups per curve
    for rnd in range(max(need)):
        for j, n in enumerate(need):
            if n > rnd:
                k += 1
                _blow_up(sup, k, j, corner=False)
    return CycleSurface(k, tuple(sup))


def is_negative_definite(s, exclude):
    """True iff the Gram matrix of {C_i : i != exclude} is negative
    definite: by Sylvester's criterion, iff every ratio of consecutive
    continuants theta_k = d_k theta_{k-1} - theta_{k-2} (the leading minors)
    of the path C_{exclude+1}, ..., C_{exclude-1} is negative."""
    sq, m = s.self_intersections(), s.length
    prev, theta = 0, 1
    for k in range(1, m):
        prev, theta = theta, sq[(exclude + k) % m] * theta - prev
        if theta * prev >= 0:
            return False
    return True


def _diagonal_minors(sq):
    """adj(G)_jj for every j, G the Gram matrix of a validated cycle: the
    continuant of the path C_{j+1}, ..., C_{j-1}, the top-left entry of
    P_j = M(d_{j-1}) ... M(d_{j+1}) with M(d) = [[d, -1], [1, 0]]. Each
    M has determinant 1, so P_{j+1} = M(d_j) P_j M(d_{j+1})^-1 is one
    multiplication on each side."""
    m = len(sq)
    p00, p01, p10, p11 = 1, 0, 0, 1
    for d in sq[1:]:
        p00, p01, p10, p11 = d * p00 - p10, d * p01 - p11, p00, p01
    minors = []
    for j in range(m):
        minors.append(p00)
        d, e = sq[j], sq[(j + 1) % m]  # M(e)^-1 = [[0, 1], [-1, e]]
        p00, p01, p10, p11 = d * p00 - p10, d * p01 - p11, p00, p01
        p00, p01, p10, p11 = -p01, p00 + e * p01, -p11, p10 + e * p11
    return minors


def _cyclic_adjugate(sq):
    """(det G, adj(G) 1) for G the Gram matrix of a validated cycle:
    diagonal sq, 1 between neighbours (a 2-cycle's two meetings give its
    2). Rows 1..m-2 of G x = 1 shoot each x_i as p_i + x_0 q_i + x_1 r_i;
    rows 0 and m-1 close in a 2x2 system N in (x_0, x_1), solved by
    Cramer's rule in integers. The shooting rows have unit pivots, so
    det G = (-1)^m det N and adj(G) 1 = det G x."""
    p, q, r = [0, 0], [1, 0], [0, 1]
    for i in range(1, len(sq) - 1):
        d = sq[i]
        p.append(1 - d * p[i] - p[i - 1])
        q.append(-d * q[i] - q[i - 1])
        r.append(-d * r[i] - r[i - 1])

    def close(v):  # rows 0 and m - 1 of G v
        return (v[-1] + sq[0] * v[0] + v[1],
                v[-2] + sq[-1] * v[-1] + v[0])

    (n00, n10), (n01, n11), (g0, g1) = close(q), close(r), close(p)
    det_n, sign = n00 * n11 - n01 * n10, (-1) ** len(sq)
    f0, f1 = 1 - g0, 1 - g1
    x0, x1 = f0 * n11 - n01 * f1, n00 * f1 - n10 * f0  # times det N
    return sign * det_n, [sign * (pi * det_n + qi * x0 + ri * x1)
                          for pi, qi, ri in zip(p, q, r)]


def _positive_direction(vectors, target):
    """A rational combination x of the given classes, each as (integer
    numerators, denominator), along which target + t x gets positive square
    for large t, in the same form, or None: x.x > 0, or else, where the form
    vanishes on what the diagonalization leaves, a class x left over with
    x.x = 0 and target.x > 0. Exact symmetric congruence diagonalization: a
    pivot B with q = B.B < 0 takes V / d to ((V.B) B - q V) / (-q d).

    Every denominator is positive: `lattice` returns den > 0, a pivot forms
    -q d with q < 0, and a pairing du dw from two positive ones; so
    `lattice.lowest_terms`, which makes den > 0, never flips a sign here."""
    basis = list(vectors)
    while basis:
        piv = next((i for i, (b, _) in enumerate(basis) if dot(b, b) != 0),
                   None)
        if piv is None:
            pair = next(((i, j) for i in range(len(basis))
                         for j in range(i + 1, len(basis))
                         if dot(basis[i][0], basis[j][0]) != 0), None)
            if pair is None:
                break  # form vanishes on what is left
            (u, du), (w, dw) = basis[pair[0]], basis[pair[1]]
            basis[pair[0]] = lattice.lowest_terms(
                [x * dw + y * du for x, y in zip(u, w)], du * dw)
            continue
        b, db = basis.pop(piv)
        q = dot(b, b)
        if q > 0:
            return b, db
        new = []
        for v, d in basis:
            f = dot(v, b)  # v - (v.b / q) b is orthogonal to b
            new.append(lattice.lowest_terms(
                [f * y - q * x for x, y in zip(v, b)], -q * d))
        basis = new
    for v, d in basis:
        f = dot(target, v)
        if f:
            return [x if f > 0 else -x for x in v], d
    return None


def uniform_degree_seed(s):
    """A class of degree 1 on every cycle curve and positive square,
    scaled to coprime integers: so one positive degree delta on every
    cycle curve. The seed every caller of the polarization solve passes.

    The solver's particular solution sol is corrected, if needed, inside
    the subspace of degree-0 classes by t x, where x has positive square or
    square 0 and sol.x > 0 (diagonalizing the intersection form) and t
    doubles while sol^2 + 2t sol.x + t^2 x^2 <= 0; all in numerators over
    one denominator.
    """
    # (x.C) = 1 for every cycle curve C, the right-hand side in column dim
    rows = [{**{t: x if t == 0 else -x for t, x in c.items()}, s.dim: 1}
            for c in s.supports]
    sol, kernel = lattice.sparse_solve_and_kernel(rows, s.dim)
    if sol is None:
        raise NoAmpleSeed("no class of uniform degree 1 on the cycle")
    num, den = sol
    if dot(num, num) <= 0:
        found = _positive_direction(kernel, num)
        if found is None:
            raise NoAmpleSeed(
                "no uniform-degree class has positive square")
        x, dx = found
        d = lcm(den, dx)
        num, x = [a * (d // den) for a in num], [b * (d // dx) for b in x]
        ss, sx, xx, t = dot(num, num), dot(num, x), dot(x, x), 1
        while ss + 2 * t * sx + t * t * xx <= 0:
            t *= 2
        num, den = [a + t * b for a, b in zip(num, x)], d
    seed = tuple(lattice.lowest_terms(num, den)[0])
    if dot(seed, seed) <= 0:
        raise InvariantError("uniform-degree seed has non-positive square")
    return seed


def degree_one_polarization(s, seed_ample):
    """Rational class H with (H.C_j) = 1 for every j, from a seed of one
    positive degree delta on every C_j (ValueError for unequal degrees).

    Per cycle position j, correcting the seed by A^(j) / theta_j inside the
    negative-definite span of the other curves leaves a class that meets
    only C_j, with degree D_j / theta_j; H is the average of these with
    weights theta_j / D_j. With G the cycle's Gram matrix, theta_j =
    adj(G)_jj (the path's continuant) and G A^(j) = D_j e_j - delta
    theta_j 1, so D = delta a with a = adj(G) 1. Summed with the weights,
    H = (mu / delta) seed + (1 - mu) sum (a_i / det G) C_i with
    mu = sum_j theta_j / a_j, all in integer numerators over delta lcm(a).
    Once every C^2 <= -2, each path's negated Gram matrix is a nonsingular
    M-matrix (Berman-Plemmons, ch. 6): every path is negative definite and
    every D_j / theta_j > 0, so no position needs a check of its own.

    G is singular exactly when every C^2 = -2 (it is irreducibly
    diagonally dominant otherwise; Taussky 1949): the affine A_{m-1}
    Cartan matrix, adj(G) = (-1)^(m-1) m 11^T, so mu = 1, and summing the
    path inverses min(p, q)(m - max(p, q)) / m over j gives every
    coefficient (m^2 - 1) / 12: H = seed / delta - ((m^2 - 1) / 12) K.
    """
    m, sup, sq = s.length, s.supports, s.self_intersections()
    if any(c2 > -2 for c2 in sq):
        raise NegativeDefiniteViolation(
            "all cycle self-intersections must be <= -2")
    if len(seed_ample) != s.dim:
        raise ValueError("classes live on different surfaces")
    delta, *others = {_degree(seed_ample, c) for c in sup}
    if others:
        raise ValueError("seed must have one degree on every C_j")
    if delta <= 0 or dot(seed_ample, seed_ample) <= 0:
        raise NoAmpleSeed("seed must have positive degree on every C_j "
                          "and positive self-intersection")
    # numerators over den of the weight of the seed and of each C_i
    if all(c2 == -2 for c2 in sq):
        den, weight, coef = 12 * delta, 12, [(m * m - 1) * delta] * m
    else:
        det, adj_1 = _cyclic_adjugate(sq)
        den = lcm(*adj_1)
        weight = sum([tn * (den // a)
                      for tn, a in zip(_diagonal_minors(sq), adj_1)])
        coef = [delta * a * (den - weight) // det for a in adj_1]
        den *= delta
    num = [weight * x for x in seed_ample]
    for ci, c in zip(coef, sup):
        for t, x in c.items():
            num[t] += ci * x
    for c in sup:
        if _degree(num, c) != den:
            raise InvariantError("polarization degree is not 1 on the cycle")
    if dot(num, num) <= 0:
        raise InvariantError("polarization has non-positive square")
    return tuple([Fraction(x, den) for x in num])
