"""Section spaces for the index-2 normal-crossing Fano 3-fold series.

P(r) denotes the P^2-bundle over P^1 with splitting O + O + O(r).
Sections of O(a, b) are modeled by monomials p^i q^j w^k u^al v^be with
i + j + k = a and al + be = b + k r; the divisor S = (w = 0) is P^1 x P^1.
The glued 3-folds identify S across two components and their sections are
pairs agreeing on S. The joint restriction matrix has at most one nonzero
per column, so its rank and kernel come from bucketing columns by their
restriction. Products of sections are ranked exactly on packed integer
columns: each exponent in a field wide enough for twice the largest exponent
of the factors, so a product column is one int add. A section is packed as
its left terms and its right terms, and left terms multiply only left terms,
right only right; a right column carries a tag bit above every field, so the
two sides of a product never share a column. A single-term section (a
monomial vanishing on S) times a one-term part on its side is one column, a
unit vector over Q: these columns are counted as a sumset of packed ints,
and only the other products are eliminated, with the unit columns dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import lattice

LC = "lc"
CANONICAL = "canonical"
TERMINAL = "terminal"


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


def h0_P(r, a, b):
    """dim H^0(P(r), O(a, b)); zero for a < 0."""
    if a < 0:
        return 0
    return sum(mult * max(0, d + b + 1) for d, mult in sym_split(a, r).items())


def pr_basis(r, a, b):
    """Monomial basis (i, j, k, al, be) of O(a, b) on P(r)."""
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


@dataclass(frozen=True)
class GluedFano:
    kind: str                 # "zr" or "zrs"
    r: int
    s: int | None = None
    swap: bool = False        # exchange the two P^1 factors in the gluing

    def __post_init__(self):
        if self.kind not in ("zr", "zrs"):
            raise ValueError("kind must be 'zr' or 'zrs'")
        if self.r < 0 or (self.kind == "zrs" and (self.s is None or self.s < 0)):
            raise ValueError("r and s must be nonnegative")
        if self.kind == "zr" and self.s is not None:
            raise ValueError("zr takes no s")

    def left_basis(self, m):
        return pr_basis(self.r, m, m)

    def right_basis(self, m):
        if self.kind == "zr":
            return p3_basis(m)
        return pr_basis(self.s, m, m)

    def right_restrict(self, mono):
        if self.kind == "zr":
            return p3_restrict(mono)
        return pr_restrict(mono)


def ZR(r, swap=False):
    return GluedFano(kind="zr", r=r, swap=swap)


def ZRS(r, s, swap=False):
    return GluedFano(kind="zrs", r=r, s=s, swap=swap)


def _buckets(z, m):
    """Restriction buckets of the glued system in degree m.

    A column is a (side, monomial) pair, side 0 for the left basis and 1
    for the right one. Each S-monomial of bidegree (m, m) that gets hit maps
    to the signed columns restricting to it (+1 left, -1 right); columns
    that vanish on S are listed separately. Every column has at most one
    nonzero, so the rank of the system is the number of buckets.
    """
    left = z.left_basis(m)
    right = z.right_basis(m)
    buckets = {}
    vanishing = []
    for side, basis, restrict, sign in ((0, left, pr_restrict, 1),
                                        (1, right, z.right_restrict, -1)):
        for mono in basis:
            sm = restrict(mono)
            if sm is None:
                vanishing.append((side, mono))
                continue
            if side and z.swap:
                sm = swap_factors(sm)
            buckets.setdefault(sm, []).append(((side, mono), sign))
    return left, right, buckets, vanishing


def glued_h0(z, m):
    """dim H^0 of the m-th power of the polarization on the glued 3-fold."""
    if m < 1:
        raise ValueError("power must be >= 1")
    left, right, buckets, _ = _buckets(z, m)
    dim = len(left) + len(right) - len(buckets)
    # P^3 restricts onto every O(m, m) of the quadric (H^1(O(m - 2)) = 0)
    if z.kind == "zr":
        h0_right, right_onto = comb(m + 3, 3), True
    else:
        h0_right = h0_P(z.s, m, m)
        right_onto = restriction_surjective(z.s, m, m)
    if right_onto and restriction_surjective(z.r, m, m):
        # both restrictions surjective: fiber-product dimension count
        if dim != h0_P(z.r, m, m) + h0_right - (m + 1) ** 2:
            raise AssertionError("glued h0 disagrees with the fiber-product "
                                 "dimension count")
    return dim


def glued_basis(z, m):
    """Integral basis of glued sections, each a pair of monomial dicts: one
    unit section per column that vanishes on S, then the signed consecutive
    differences inside each restriction bucket."""
    _, _, buckets, vanishing = _buckets(z, m)
    out = []
    for side, mono in vanishing:
        section = ({}, {})
        section[side][mono] = 1
        out.append(section)
    for cols in buckets.values():
        for ((side1, mono1), s1), ((side2, mono2), s2) in zip(cols, cols[1:]):
            section = ({}, {})
            section[side1][mono1] = s1
            section[side2][mono2] = -s2
            out.append(section)
    return out


def _pack(section, width, tag):
    """A glued section as (left terms, right terms), each a tuple of
    (column, int). A column holds the exponents in `width`-bit fields, the
    first exponent highest; a right column also carries the bit `tag` above
    every field, so a left and a right product never share a column."""
    out = []
    for side_bit, poly in zip((0, tag), section):
        terms = []
        for mono, c in poly.items():
            col = 0
            for e in mono:
                col = (col << width) | e
            terms.append((col | side_bit, c))
        out.append(tuple(terms))
    return tuple(out)


def _product_rank(first, second, bound):
    """Exact rank of the products f * g of glued sections, f from `first`
    and g from `second`, or each unordered pair of `first` once when
    `second` is None; a product is a sparse {column: int} vector and exact
    duplicates are dropped. A rank above `bound`, the glued h0 of the target
    degree, means the products left the glued section space.

    Each section is packed once. The field width holds twice the largest
    exponent, so no product carries into the next field; left terms
    multiply left terms and right terms right terms, one int add each.

    A single-term section times a one-term part on its side is one column,
    a unit vector over Q, so these unit columns are a sumset of packed ints
    and count one rank each; a left times a right column is zero. A
    single-term section times a part of more terms is a shifted copy of that
    part. Only products of two sections of several terms each are formed
    term by term, with terms summed per column. The rank is the number of
    unit columns plus the rank of the other vectors with their unit-column
    entries dropped, exact because every unit column lies in the span: the
    unit pivots of Dumas, Heckenbach, Saunders and Welker (2003), read off
    the structure instead of searched for."""
    bases = (first,) if second is None else (first, second)
    monos = [mono for basis in bases for section in basis
             for poly in section for mono in poly]
    width = (2 * max(map(max, monos), default=0)).bit_length()
    tag = 1 << width * max(map(len, monos), default=0)
    # per basis: the columns of its single-term sections, the columns of
    # the one-term parts of its other sections, their parts of more terms
    # by side (a column at or above `tag` is a right one), and those others
    split = []
    for basis in bases:
        singles, ones, many, multi = [], [], ([], []), []
        for section in basis:
            left, right = packed = _pack(section, width, tag)
            if len(left) + len(right) == 1:
                singles.append((*left, *right)[0][0])
                continue
            multi.append(packed)
            for side, part in enumerate(packed):
                if len(part) == 1:
                    ones.append(part[0][0])
                elif part:
                    many[side].append(part)
        split.append((singles, ones, many, multi))
    # (single-term columns, the columns they meet, the parts they shift)
    if second is None:
        (s1, o1, p1, m1), = split
        crosses = ((s1, s1 + o1, p1),)
        pairs = [(f, g) for i, f in enumerate(m1) for g in m1[i:]]
    else:
        (s1, o1, p1, m1), (s2, o2, p2, m2) = split
        crosses = ((s1, s2 + o2, p2), (s2, o1, p1))
        pairs = [(f, g) for f in m1 for g in m2]
    units = {a + b for singles, ends, _ in crosses for a in singles
             for b in ends if (a ^ b) < tag}
    vectors = set()
    for singles, _, many in crosses:
        for a in singles:
            for part in many[a >= tag]:
                vectors.add(frozenset((a + e, c) for e, c in part
                                      if a + e not in units))
    for (l1, r1), (l2, r2) in pairs:
        vec = {}
        for f, g in ((l1, l2), (r1, r2)):
            for e1, c1 in f:
                for e2, c2 in g:
                    e = e1 + e2
                    vec[e] = vec.get(e, 0) + c1 * c2
        vectors.add(frozenset((e, c) for e, c in vec.items()
                              if c and e not in units))
    rank = len(units) + lattice.sparse_rank(map(dict, vectors))
    if rank > bound:
        raise AssertionError("products leave the glued section space")
    return rank


def degree_one_generation(z, m_max):
    """True when multiplication out of degree 1 is onto through m_max."""
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    b1 = glued_basis(z, 1)
    bm = None   # degree 2: each unordered pair of b1 once
    for m in range(2, m_max + 1):
        target = glued_h0(z, m)
        if _product_rank(b1, bm, target) != target:
            return False
        if m < m_max:
            bm = glued_basis(z, m)
    return True


def quadric_kernel_dim(z):
    """dim ker(Sym^2 H^0(L) -> H^0(L^2)): the number of independent
    quadrics through the image of the degree-1 embedding."""
    b1 = glued_basis(z, 1)
    n = len(b1)
    return n * (n + 1) // 2 - _product_rank(b1, None, glued_h0(z, 2))


def restriction_surjective(r, a, b):
    """Surjectivity of restriction to S, by rank and by the vanishing of
    H^1 of the kernel twist. The rank counts the images of the w-free
    monomials (k = 0) of O(a, b), the only ones with an image on S."""
    if a < 0 or b < 0:
        raise ValueError("degrees must be nonnegative")
    images = {pr_restrict((i, a - i, 0, al, b - al))
              for i in range(a + 1) for al in range(b + 1)}
    by_rank = len(images) == (a + 1) * (b + 1)
    by_count = h0_P(r, a, b) - h0_P(r, a - 1, b + r) == (a + 1) * (b + 1)
    if by_rank != by_count:
        raise AssertionError("restriction surjectivity crosscheck failed")
    return by_rank


def cover_degree(r_omega, m):
    """Degree of the cyclic cover that kills the loop kernel; also the node
    multiplicity of the resulting local equations x1 x2 = s^degree."""
    if m <= r_omega:
        raise ValueError("m must exceed r_omega")
    return m - r_omega


def classify_singularity(r_eff, y_canonical, y_minus_z_terminal):
    """Singularity class of the contracted cone point."""
    if r_eff > 1 and y_canonical and y_minus_z_terminal:
        return TERMINAL
    if r_eff > 0 and y_canonical:
        return CANONICAL
    return LC


def h0_table(z, m_max):
    return {m: glued_h0(z, m) for m in range(1, m_max + 1)}
