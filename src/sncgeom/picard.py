"""Rational surfaces with an anticanonical cycle, as Picard lattices.

The lattice basis is (H, E_1, ..., E_k) with intersection form
diag(+1, -1, ..., -1); the canonical class is K = -3H + sum E_i.
Blow-ups return new immutable surfaces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


@dataclass(frozen=True)
class CycleSurface:
    blowup_count: int
    cycle: tuple          # cyclically ordered divisor classes
    canonical: tuple      # K

    @property
    def length(self):
        return len(self.cycle)

    @property
    def dim(self):
        return self.blowup_count + 1

    def self_intersections(self):
        return tuple([dot(c, c) for c in self.cycle])

    def validate(self):
        k = self.blowup_count
        m = self.length
        want_k = tuple([-3] + [1] * k)
        if self.canonical != want_k:
            raise InvariantError("canonical class is not -3H + sum E_i")
        total = [sum(c[i] for c in self.cycle) for i in range(k + 1)]
        if tuple(total) != tuple([-x for x in self.canonical]):
            raise InvariantError("cycle does not sum to -K")
        for i, ci in enumerate(self.cycle):
            if len(ci) != k + 1:
                raise InvariantError("class length mismatch")
            g2 = dot(ci, ci) + dot(self.canonical, ci)
            if g2 != -2:
                raise InvariantError(f"cycle member {i} has genus != 0")
            for j in range(i + 1, m):
                expected = 1 if (j - i == 1 or (i == 0 and j == m - 1)) else 0
                if m == 2 and j - i == 1:
                    expected = 2
                if dot(ci, self.cycle[j]) != expected:
                    raise InvariantError(
                        f"intersection (C_{i}.C_{j}) != {expected}")
        return True

    def to_json(self):
        return json.dumps({
            "basis_size": self.dim,
            "blowup_count": self.blowup_count,
            "cycle": [list(c) for c in self.cycle],
            "canonical": list(self.canonical),
        })

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(blowup_count=d["blowup_count"],
                   cycle=tuple(tuple(c) for c in d["cycle"]),
                   canonical=tuple(d["canonical"]))


def triangle_surface():
    """Three lines in the plane: cycle (H, H, H), K = -3H."""
    h = (1,)
    return CycleSurface(blowup_count=0, cycle=(h, h, h), canonical=(-3,))


def _blowup(s, j, corner):
    if not 0 <= j < s.length:
        raise IndexError("invalid cycle position")
    k = s.blowup_count + 1
    e = tuple([0] * k + [1])
    cycle = [tuple(c) + (0,) for c in s.cycle]
    # from lists: tuple(generator) resizes, and the freed tuples fill
    # CPython's free lists instead of being reused
    for i in ((j, (j + 1) % s.length) if corner else (j,)):
        cycle[i] = tuple([a - b for a, b in zip(cycle[i], e)])
    if corner:
        cycle.insert(j + 1, e)  # between C_j and C_{j+1}, last if j = m - 1
    canonical = tuple([a + b for a, b in zip(tuple(s.canonical) + (0,), e)])
    return CycleSurface(k, tuple(cycle), canonical)


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


def standard_schedule():
    """The reference surface: cycle of length 9, all self-intersections -2.

    Corner blow-ups alone always leave the newest curve at -1, so the
    schedule finishes with interior blow-ups on the last three curves.
    """
    s = triangle_surface()
    s = blowup_corner(s, 0)   # between C1 and C2
    s = blowup_corner(s, 2)   # between old C2 and C3
    s = blowup_corner(s, 4)   # between old C3 and C1
    # hexagon, all -1; hit each once more
    s = blowup_corner(s, 0)
    s = blowup_corner(s, 3)
    s = blowup_corner(s, 6)
    # three fresh -1 curves remain; push them to -2 with interior blow-ups
    for j, c2 in enumerate(s.self_intersections()):
        if c2 == -1:
            s = blowup_on_curve(s, j)
    return s


def cycle_surface(m):
    """An anticanonical cycle of length m >= 3 with all C^2 <= -2."""
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


def _path_sweep(sq, j, deg):
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


def is_negative_definite(s, exclude):
    """True iff the Gram matrix of {C_i : i != exclude} is negative
    definite (Sylvester's criterion on the path's continuants)."""
    s.validate()
    return _path_sweep(s.self_intersections(), exclude,
                       [0] * s.length) is not None


def _positive_direction(vectors):
    """A rational combination of the given classes with positive square,
    or None; exact symmetric congruence diagonalization."""
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
    return None


def uniform_degree_seed(s):
    """An integral class with degree 1 on every cycle curve and positive
    self-intersection; the default ample seed for the polarization solve.

    The solver's particular solution is corrected, if needed, inside the
    subspace of degree-0 classes, where a positive-square direction is
    found by diagonalizing the intersection form.
    """
    rows = [[(1 if i == 0 else -1) * c[i] for i in range(s.dim)]
            for c in s.cycle]
    sol = lattice.solve(rows, [Fraction(1)] * s.length)
    if sol is None:
        raise NoAmpleSeed("no class of uniform degree 1 on the cycle")
    if dot(sol, sol) <= 0:
        x = _positive_direction(lattice.kernel_basis(rows))
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


def degree_one_polarization(s, seed_ample):
    """Rational class H with (H.C_j) = 1 for every j.

    Per cycle position j the seed is corrected inside the negative-definite
    sublattice spanned by the other curves so that it meets only C_j, then
    the corrected classes are averaged with weights 1/(H'_j.C_j).
    """
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
        swept = _path_sweep(sq, j, degs)
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


def clear_denominators(h):
    """Scale a Q-class to a primitive integral line bundle class.

    Returns (integral class, scale factor)."""
    fr = [Fraction(x) for x in h]
    mult = lcm(*[f.denominator for f in fr])
    return tuple([int(f * mult) for f in fr]), mult
