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
`tests/oracles.py`). Its size must equal the fiber-product count
`fiber_product_h0`, which the h0 table reads: each report builds and
checks each degree's basis once, in `degree_one_generation`.

Sections are written as packed integer columns (Monagan and Pearce 2007):
a monomial is one int with its exponents in fields of one width, the first
exponent highest, and a right column carries a tag bit above five fields,
so a product column is one int add and the two sides never share one. One
width serves a whole report: `_field_width(z, m)` holds every exponent of
total degree m, so no product up to degree m carries. A basis comes split
the way `_product_rank` reads it: the single-term sections (monomials
vanishing on S) of each side as bare ints, then the other sections as
(left terms, right terms). At degree 1 each other section has one term a
side, so `_product_rank` reads each product as a shift: a single-term
section times a one-term part on its side is a unit column, counted in
per-side sumsets, and every other product is at most two +-1 terms off
them, an edge of a signed graph on the columns. Its rank is the unit
count plus the columns the edges touch minus their balanced components,
read off one union-find with no elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb

LC = "lc"
CANONICAL = "canonical"
TERMINAL = "terminal"


def h0_P(r, a, b):
    """dim H^0(P(r), O(a, b)); zero for a < 0. The a-th symmetric power of
    O + O + O(r) splits as O(k r) with multiplicity a - k + 1, k = 0..a,
    and each O(k r + b) on P^1 has max(0, k r + b + 1) sections."""
    if a < 0:
        return 0
    if r < 0:
        raise ValueError("twist must be nonnegative")
    return sum([(a - k + 1) * max(0, k * r + b + 1) for k in range(a + 1)])


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


def _field_width(z, m):
    """Bits per exponent field for the sections of degree <= m: the largest
    exponent of total degree m, m (1 + max(r, s)), fits, so no column sum
    of degree <= m carries."""
    return (m * (1 + max(z.r, z.s or 0))).bit_length()


def _columns(r, m, width, tag=0):
    """Packed monomials (i, j, k, al, be) of O(m, m) on P(r), k rising, the
    (m + 1)^2 w-free ones first; each run of al rising at fixed (i, j, k)
    is an arithmetic progression."""
    step = (1 << width) - 1
    out = []
    for k in range(m + 1):
        base = m + k * r
        for i in range(m - k + 1):
            p = tag | ((i << width | m - k - i) << width | k) << 2 * width
            out += range(p + base, p + (base << width) + 1, step)
    return out


def fiber_product_h0(z, m):
    """h0_left + h0_right - (m + 1)^2, the dimension of the pairs of
    sections of degree m that agree on S, the right side P(s) on ZRS and
    P^3 on ZR: both restrictions are onto O(m, m) on S (P^3 since
    H^1(O(m - 2)) = 0 on the quadric)."""
    h0_right = comb(m + 3, 3) if z.kind == "zr" else h0_P(z.s, m, m)
    return h0_P(z.r, m, m) + h0_right - (m + 1) ** 2


def glued_basis(z, m, width):
    """Integral basis of the glued sections of degree m on packed columns
    of `width` bits a field, read off the structure of the restriction to
    S: (left singles, right singles, others). The singles are the
    monomials that vanish on S, as bare ints; each other section is
    (left terms, right terms), lists of (column, +-1), per S-monomial in
    turn. In this order they are the sections of the bucketing route.

    A P(r) monomial with k >= 1 vanishes on S, and the w-free one
    (i, j, 0, al, be) is the only left column over (i, j, al, be); it heads
    that S-monomial's sections. On ZRS the one right column over it is the
    same monomial, or (al, be, 0, i, j) with the P^1 factors swapped, so it
    gives one section. No P^3 monomial vanishes on the quadric; over the
    (swapped) S-monomial (i, j, al, be) the P^3 columns are
    (e0, i - e0, al - e0, be - i + e0), e0 rising, so it gives (head, first
    column) and then the right differences (-1, +1). The basis size is
    checked against `fiber_product_h0`. The bucketing route this replaced
    is `bucketed_glued_basis` in `tests/oracles.py`.
    """
    if m < 1:
        raise ValueError("power must be >= 1")
    n = (m + 1) ** 2
    tag = 1 << 5 * width
    left = _columns(z.r, m, width)
    right = _columns(z.s, m, width, tag)[n:] if z.kind == "zrs" else []
    # one P^3 column to the next: e0 up, the middle two exponents down
    step = (1 << 3 * width) - (1 << 2 * width) - (1 << width) + 1
    others = []
    for head, (i, al) in zip(left, product(range(m + 1), repeat=2)):
        j, be = m - i, m - al
        if z.swap:
            i, j, al, be = al, be, i, j
        if z.kind == "zrs":
            col = tag | (i << width | j) << 3 * width | al << width | be
            others.append(([(head, 1)], [(col, 1)]))
            continue
        lo = max(0, i - be)
        start = tag | (((lo << width | i - lo) << width | al - lo) << width
                       | be - i + lo)
        cols = range(start, start + (min(i, al) - lo + 1) * step, step)
        others.append(([(head, 1)], [(cols[0], 1)]))
        others += [([], [(a, -1), (b, 1)]) for a, b in zip(cols, cols[1:])]
    basis = left[n:], right, others
    if sum(map(len, basis)) != fiber_product_h0(z, m):
        raise AssertionError("glued h0 disagrees with the fiber-product "
                             "dimension count")
    return basis


def glued_h0(z, m):
    """dim H^0 of the m-th power of the polarization on the glued 3-fold:
    the size of its glued basis."""
    return sum(map(len, glued_basis(z, m, _field_width(z, m))))


def _product_rank(first, second, bound):
    """Exact rank of the products f * g, f from `first` and g from
    `second`, or each unordered pair of `first` once when `second` is
    None, of bases split as `glued_basis` returns them, on one field width.
    A rank above `bound`, the glued h0 of the target degree, means the
    products left the glued section space.

    `first` must be a degree-1 basis, as every caller's is: each of its
    other sections has at most one term a side. Every coefficient must be
    +-1, each other section of `second` have at most two terms when
    `first` has any, and `second` no part of several terms on a side where
    `first` has a single-term section (a single). Other input raises
    ValueError. At degree 1, i + j = 1 and al + be = 1, so the P^3 run of
    `glued_basis`, e0 from max(0, i - be) to min(i, al), is one value, like
    the one P(s) column of ZRS: b1's other sections are (head, right
    column), and those of every glued basis are (head, right column) or
    ZR's right differences (-1, +1); ZR has no right single, since no P^3
    monomial vanishes on the quadric.

    Left terms multiply left terms and right terms right terms, one int add
    each; the width keeps fields from carrying and the tag keeps the sides
    apart, and across sides a product is zero. A single times a single or a
    one-term part on its side is a unit column: these are per-side sumsets
    of packed ints, one rank each, and every unit column lies in the span
    (the unit pivots of Dumas, Heckenbach, Saunders and Welker, 2003, read
    off the structure). Off them each other product is zero, one +-1 term
    (a half-edge) or two on distinct columns, s_u e_u + s_v e_v: an edge
    of a signed graph on the columns (Zaslavsky, "Signed graphs", 1982). A
    component spans its columns unless it is balanced, with signs sigma
    such that s_u sigma_u + s_v sigma_v = 0 on every edge, which leave one
    direction out. So the rank is the unit count plus the columns touched
    minus the balanced components, read off one union-find: each column
    below a root keeps 2 * its parent + the parity of sigma against it; an
    edge joining two trees hangs one root below the other, and one closing
    an odd cycle, or a half-edge, marks its root unbalanced. A repeated
    product costs two finds. On glued bases no column is dropped, since a
    unit column is a single, k >= 1, times a column of its side, while
    heads and the right columns of ZRS's other sections have k = 0."""
    *s1, o1 = first
    if any(len(part) > 1 for f in o1 for part in f):
        raise ValueError("product rank: the first basis has a part of "
                         "several terms")
    *s2, o2 = first if second is None else second
    units = set()
    for side in (0, 1):
        parts = [g[side] for g in o2]
        if s1[side] and any(len(part) > 1 for part in parts):
            raise ValueError("product rank: a single-term section meets a "
                             "part of several terms")
        ends = s2[side] + [part[0][0] for part in parts if len(part) == 1]
        heads = [f[side][0][0] for f in o1 if f[side]]
        units |= {a + b for a in s1[side] for b in ends}
        units |= {a + b for a in heads for b in s2[side]}
    if o1 and any(len(left) + len(right) > 2 for left, right in o2):
        raise ValueError("product rank: a section of the second basis has "
                         "more than two terms")
    if {c for o in (o1, o2) for f in o for part in f for _, c in part} - {
            1, -1}:
        raise ValueError("product rank: a coefficient is not +-1")
    parent = {}  # a column below a root -> 2 * its parent + the parity
    unbalanced = set()  # roots

    def find(v):  # (root, parity of sigma_v against it), path halving
        parity = 0
        while v in parent:
            x = parent[v]
            p = x >> 1
            if p not in parent:
                return p, parity ^ x & 1
            parent[v] = x = parent[p] ^ x & 1
            parity ^= x & 1
            v = x >> 1
        return v, parity

    pairs = (combinations_with_replacement(o1, 2) if second is None
             else product(o1, o2))
    for (l1, r1), (l2, r2) in pairs:
        root = None  # of the product's first term, until its second
        for f, g in ((l1, l2), (r1, r2)):
            for a, ca in f:
                for b, cb in g:
                    if a + b in units:
                        continue
                    # the term ca cb at w = a + b, with
                    # ca cb sigma_w = (-1)^parity sigma_r
                    r, parity = find(a + b)
                    parity ^= ca != cb
                    if root is None:
                        root, first_parity = r, parity
                        continue
                    if r != root:  # hang r so that the two terms cancel
                        parent[r] = root << 1 | first_parity ^ parity ^ 1
                        if r in unbalanced:
                            unbalanced.remove(r)
                            unbalanced.add(root)
                    elif first_parity == parity:  # an odd cycle
                        unbalanced.add(root)
                    root = None
        if root is not None:  # a half-edge
            unbalanced.add(root)
    # columns touched - components = len(parent), one per hung root
    rank = len(units) + len(parent) + len(unbalanced)
    if rank > bound:
        raise AssertionError("products leave the glued section space")
    return rank


def degree_one_generation(z, m_max):
    """True when multiplication out of degree 1 is onto through m_max. Each
    degree's glued basis is built once, on the field width of m_max; its
    size is the target rank."""
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    width = _field_width(z, m_max)
    b1 = glued_basis(z, 1, width)
    bm = None   # degree 2: each unordered pair of b1 once
    for m in range(2, m_max + 1):
        target = glued_basis(z, m, width)
        n = sum(map(len, target))
        if _product_rank(b1, bm, n) != n:
            return False
        bm = target
    return True


def quadric_kernel_dim(z):
    """dim ker(Sym^2 H^0(L) -> H^0(L^2)): the number of independent
    quadrics through the image of the degree-1 embedding."""
    b1 = glued_basis(z, 1, _field_width(z, 2))
    n = sum(map(len, b1))
    return n * (n + 1) // 2 - _product_rank(b1, None,
                                            fiber_product_h0(z, 2))


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
    """{m: dim H^0 of the m-th power} for m = 1..m_max, read from
    `fiber_product_h0`; no basis is built here. `glued_basis` checks every
    basis it builds against the same count, and a report builds each degree
    of its table in `degree_one_generation`."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    return {m: fiber_product_h0(z, m) for m in range(1, m_max + 1)}
