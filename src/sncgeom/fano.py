"""Section spaces for the index-2 normal-crossing Fano 3-fold series.

P(r) denotes the P^2-bundle over P^1 with splitting O + O + O(r).
Sections of O(a, b) are modeled by monomials p^i q^j w^k u^al v^be with
i + j + k = a and al + be = b + k r; the divisor S = (w = 0) is P^1 x P^1.
The glued 3-folds identify S across two components and their sections are
pairs agreeing on S. The joint restriction matrix has at most one nonzero
per column, and its columns are known: over each S-monomial lies exactly
one w-free left monomial, and one right monomial of P(s) or a run of P^3
monomials. So `glued_basis` writes its kernel down directly (the bucketing
of every column by its restriction is the second route, in
`tests/oracles.py`), and h0 is the size of that basis. Products of
sections are ranked exactly on packed integer columns: each exponent in a
field wide enough for twice the largest exponent of the factors, so a
product column is one int add. A section is packed as its left terms and
its right terms, and left terms multiply only left terms, right only right;
a right column carries a tag bit above every field, so the two sides of a
product never share a column. A single-term section (a monomial vanishing
on S) times a one-term part on its side is one column, a unit vector over
Q: these columns are counted as a sumset of packed ints within each side,
and only the other products are eliminated, with the unit columns dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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


def ZR(r, swap=False):
    return GluedFano(kind="zr", r=r, swap=swap)


def ZRS(r, s, swap=False):
    return GluedFano(kind="zrs", r=r, s=s, swap=swap)


def glued_basis(z, m):
    """Integral basis of the glued sections of degree m, each a pair of
    monomial dicts, read off the structure of the restriction to S: the
    unit sections of the left, then of the right, monomials that vanish on
    S, then per S-monomial the signed consecutive differences of the
    columns restricting to it.

    A P(r) monomial with k >= 1 vanishes on S, and the w-free one
    (i, j, 0, al, be) is the only left column over (i, j, al, be); it heads
    that S-monomial's sections. On ZRS the one right column over it is the
    same monomial, or (al, be, 0, i, j) with the P^1 factors swapped, so it
    gives one section. No P^3 monomial vanishes on the quadric; over the
    (swapped) S-monomial (i, j, al, be) the P^3 columns are
    (e0, i - e0, al - e0, be - i + e0), e0 rising, so it gives (head, first
    column) and then the right differences (-1, +1). Both restrictions are
    onto O(m, m) on S (P^3 since H^1(O(m - 2)) = 0 on the quadric), so the
    basis size is checked against the fiber-product dimension
    h0_left + h0_right - (m + 1)^2. The bucketing route this replaced is
    `bucketed_glued_basis` in `tests/oracles.py`.
    """
    if m < 1:
        raise ValueError("power must be >= 1")
    # pr_basis lists its (m + 1)^2 w-free monomials first
    n = (m + 1) ** 2
    left = pr_basis(z.r, m, m)
    heads = left[:n]
    out = [({mono: 1}, {}) for mono in left[n:]]
    if z.kind == "zrs":
        out += [({}, {mono: 1}) for mono in pr_basis(z.s, m, m)[n:]]
        out += [({h: 1}, {(h[3], h[4], 0, h[0], h[1]) if z.swap else h: 1})
                for h in heads]
    else:
        for head in heads:
            i, j, _, al, be = head
            if z.swap:
                i, al, be = al, i, j
            cols = [(e0, i - e0, al - e0, be - i + e0)
                    for e0 in range(max(0, i - be), min(i, al) + 1)]
            out.append(({head: 1}, {cols[0]: 1}))
            out += [({}, {a: -1, b: 1}) for a, b in zip(cols, cols[1:])]
    h0_right = comb(m + 3, 3) if z.kind == "zr" else h0_P(z.s, m, m)
    if len(out) != h0_P(z.r, m, m) + h0_right - n:
        raise AssertionError("glued h0 disagrees with the fiber-product "
                             "dimension count")
    return out


def glued_h0(z, m):
    """dim H^0 of the m-th power of the polarization on the glued 3-fold:
    the size of its glued basis."""
    return len(glued_basis(z, m))


def _product_rank(first, second, bound):
    """Exact rank of the products f * g of glued sections, f from `first`
    and g from `second`, or each unordered pair of `first` once when
    `second` is None; a product is a sparse {column: int} vector and exact
    duplicates are dropped. A rank above `bound`, the glued h0 of the target
    degree, means the products left the glued section space.

    Each section is packed once, as its left terms and its right terms,
    each a (column, int) pair. A column holds the exponents in fields wide
    enough for twice the largest exponent, the first exponent highest, so
    no product carries into the next field; a right column also carries a
    tag bit above every field, so a left and a right product never share a
    column. Left terms multiply left terms and right terms right terms, one
    int add each.

    Single-term sections and one-term parts are kept per side. A
    single-term section times a one-term part on its side is one column, a
    unit vector over Q, so these unit columns are the sumsets of packed
    ints within each side and count one rank each; across sides the product
    is zero. A single-term section times a part of more terms on its side
    is a shifted copy of that part. Only products of two sections of
    several terms each are formed term by term, with terms summed per
    column. The rank is the number of unit columns plus the rank of the
    other vectors with their unit-column entries dropped, exact because
    every unit column lies in the span: the unit pivots of Dumas,
    Heckenbach, Saunders and Welker (2003), read off the structure instead
    of searched for."""
    bases = (first,) if second is None else (first, second)
    monos = list(chain.from_iterable(chain.from_iterable(
        chain.from_iterable(bases))))
    width = (2 * max(chain.from_iterable(monos), default=0)).bit_length()
    tag = 1 << width * max(map(len, monos), default=0)
    # per basis and side: the columns of its single-term sections, the
    # columns of the one-term parts of its other sections and their parts
    # of more terms; and those other sections, packed
    split = []
    for basis in bases:
        singles, ones, many, multi = ([], []), ([], []), ([], []), []
        for section in basis:
            packed = [], []
            for side, poly in enumerate(section):
                part = packed[side]
                for mono, c in poly.items():
                    col = 0
                    for e in mono:
                        col = (col << width) | e
                    part.append((col | tag if side else col, c))
            left, right = packed
            if len(left) + len(right) == 1:
                singles[0 if left else 1].append((left or right)[0][0])
                continue
            multi.append(packed)
            for side, part in enumerate(packed):
                if len(part) == 1:
                    ones[side].append(part[0][0])
                elif part:
                    many[side].append(part)
        split.append((singles, ones, many, multi))
    # (single-term columns, the columns they meet, the parts they shift)
    if second is None:
        (s1, o1, p1, m1), = split
        crosses = ((s1, (s1[0] + o1[0], s1[1] + o1[1]), p1),)
        pairs = [(f, g) for i, f in enumerate(m1) for g in m1[i:]]
    else:
        (s1, o1, p1, m1), (s2, o2, p2, m2) = split
        crosses = ((s1, (s2[0] + o2[0], s2[1] + o2[1]), p2), (s2, o1, p1))
        pairs = [(f, g) for f in m1 for g in m2]
    units = {a + b for singles, ends, _ in crosses for side in (0, 1)
             for a in singles[side] for b in ends[side]}
    vectors = set()
    for singles, _, many in crosses:
        for side in (0, 1):
            for a in singles[side]:
                for part in many[side]:
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
    """True when multiplication out of degree 1 is onto through m_max. Each
    degree's glued basis is built once; its size is the target rank."""
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    b1 = glued_basis(z, 1)
    bm = None   # degree 2: each unordered pair of b1 once
    for m in range(2, m_max + 1):
        target = glued_basis(z, m)
        if _product_rank(b1, bm, len(target)) != len(target):
            return False
        bm = target
    return True


def quadric_kernel_dim(z):
    """dim ker(Sym^2 H^0(L) -> H^0(L^2)): the number of independent
    quadrics through the image of the degree-1 embedding."""
    b1 = glued_basis(z, 1)
    n = len(b1)
    return n * (n + 1) // 2 - _product_rank(b1, None, glued_h0(z, 2))


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
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    return {m: glued_h0(z, m) for m in range(1, m_max + 1)}
