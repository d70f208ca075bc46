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
`tests/oracles.py`). Its size plus the single count must equal the
fiber-product count `fiber_product_h0`, which the h0 table reads: each
report builds and checks each degree's basis once, in
`degree_one_generation`.

Sections are written as packed integer columns (Monagan and Pearce 2007):
a monomial is one int with its exponents in four fields of one width, the
first exponent highest, and a right column carries a tag bit above them,
so a product column is one int add and the two sides never share one.
`glued_basis` writes only the sections that are not single-term, whose
monomials are w-free: on the left, and on P(s), an S-monomial
(i, j, al, be); on P^3, (e0, e1, e2, e3). Each exponent of degree m is at
most m, so a report through m_max packs every basis on m_max.bit_length()
bits a field and no product up to degree m_max carries. The single-term
sections (the monomials vanishing on S) are only counted, by
`_single_count`, and `_product_rank` ranks the products of the others as
a signed graph by one union-find, unpacking each edge's two terms and
looking up a root only for a column already hung. Every count reads
`h0_P`, one closed form with no loop over the splitting (the clipped sum
it replaced is `oracles.h0_P`).
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
    and each O(k r + b) on P^1 has max(0, k r + b + 1) sections. When
    every twist has k r + b + 1 >= 0, the sum of (a - k + 1)(k r + b + 1)
    is (b + 1) C(a + 2, 2) + r C(a + 2, 3). Otherwise the terms below
    k0 = ceil(-(b + 1) / r), the first twist with sections, are zero
    (all of them when r = 0), and the rest is h0_P(r, a - k0, b + k0 r),
    whose twists all have sections."""
    if r < 0:
        raise ValueError("twist must be nonnegative")
    if b < -1:
        if r == 0:
            return 0
        k0 = -((b + 1) // r)
        a, b = a - k0, b + k0 * r
    if a < 0:
        return 0
    return (b + 1) * comb(a + 2, 2) + r * comb(a + 2, 3)


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


def fiber_product_h0(z, m):
    """h0_left + h0_right - (m + 1)^2, the dimension of the pairs of
    sections of degree m that agree on S, the right side P(s) on ZRS and
    P^3 on ZR: both restrictions are onto O(m, m) on S (P^3 since
    H^1(O(m - 2)) = 0 on the quadric)."""
    h0_right = comb(m + 3, 3) if z.kind == "zr" else h0_P(z.s, m, m)
    return h0_P(z.r, m, m) + h0_right - (m + 1) ** 2


def _single_count(z, m):
    """The single-term sections of degree m, the k >= 1 monomials."""
    twists = (z.r,) if z.kind == "zr" else (z.r, z.s)
    return sum([h0_P(t, m, m) - (m + 1) ** 2 for t in twists])


def _columns(m, width):
    """The (m + 1)^2 packed S-monomials (i, j, al, be) of bidegree (m, m),
    i rising, then al; each run of al at fixed i is an arithmetic
    progression."""
    step = (1 << width) - 1
    out = []
    for i in range(m + 1):
        p = (i << width | m - i) << 2 * width
        out += range(p + m, p + (m << width) + 1, step)
    return out


def glued_basis(z, m, width):
    """The glued sections of degree m that are not single-term, on packed
    columns of `width` bits a field, read off the structure of the
    restriction to S: a list of (left terms, right terms), lists of
    (column, +-1), per S-monomial in turn. With the single-term sections,
    the monomials that vanish on S, in front, they are the sections of the
    bucketing route in its order.

    A P(r) monomial with k >= 1 vanishes on S, and the w-free one
    (i, j, 0, al, be) is the only left column over (i, j, al, be); it heads
    that S-monomial's sections, packed as the S-monomial. On ZRS the one
    right column over it is the same monomial, or (al, be, i, j) with the
    P^1 factors swapped, so it gives one section. No P^3 monomial vanishes
    on the quadric; over the (swapped) S-monomial (i, j, al, be) the P^3
    columns are (e0, i - e0, al - e0, be - i + e0), e0 rising, so it gives
    (head, first column) and then the right differences (-1, +1). With
    `_single_count`, the basis size is checked against `fiber_product_h0`.
    The bucketing route this replaced is `bucketed_glued_basis` in
    `tests/oracles.py`.
    """
    if m < 1:
        raise ValueError("power must be >= 1")
    tag = 1 << 4 * width
    # one P^3 column to the next: e0 up, the middle two exponents down
    step = (1 << 3 * width) - (1 << 2 * width) - (1 << width) + 1
    sections = []
    for head, (i, al) in zip(_columns(m, width),
                             product(range(m + 1), repeat=2)):
        j, be = m - i, m - al
        if z.swap:
            i, j, al, be = al, be, i, j
        if z.kind == "zrs":
            col = tag | ((i << width | j) << width | al) << width | be
            sections.append(([(head, 1)], [(col, 1)]))
            continue
        lo = max(0, i - be)
        start = tag | (((lo << width | i - lo) << width | al - lo) << width
                       | be - i + lo)
        cols = range(start, start + (min(i, al) - lo + 1) * step, step)
        sections.append(([(head, 1)], [(cols[0], 1)]))
        sections += [([], [(a, -1), (b, 1)]) for a, b in zip(cols, cols[1:])]
    if _single_count(z, m) + len(sections) != fiber_product_h0(z, m):
        raise AssertionError("glued h0 disagrees with the fiber-product "
                             "dimension count")
    return sections


def glued_h0(z, m):
    """dim H^0 of the m-th power of the polarization on the glued 3-fold:
    the single-term sections and the size of the rest of its glued
    basis."""
    return _single_count(z, m) + len(glued_basis(z, m, m.bit_length()))


def _product_rank(z, first, second, m):
    """Exact rank of the products f * g of glued sections of `z`, f from
    `first` and g from `second`, or each unordered pair of `first` once
    when `second` is None, with the single-term sections that
    `glued_basis` leaves out counted in both factors; m is the target
    degree. A rank above its glued h0, `fiber_product_h0(z, m)`, means the
    products left the glued section space.

    `first` must be a degree-1 basis, as every caller's is: each section
    one term a side, since at degree 1 (i + j = al + be = 1) a P^3 run of
    `glued_basis` is one column, like ZRS's one P(s) column. Each section
    of `second` must have two terms, as the (head, right column) sections
    and ZR's right differences (-1, +1) of every glued basis do, and no
    part of several terms on a side with single-term sections (singles):
    the left, and the right on ZRS. Every coefficient must be +-1. Other
    input raises ValueError.

    Left terms multiply left terms and right terms right terms, one int
    add each; the field width keeps fields from carrying and the tag keeps
    the sides apart, and across sides a product is zero. A single times a
    single or a one-term part on its side is a k >= 1 monomial of degree
    m, a unit column (the unit pivots of Dumas, Heckenbach, Saunders and
    Welker, 2003), and each such monomial lies in the span: it has
    al + be = m + k r >= r + 1, so it is a degree-1 single w s^al' t^be'
    (al' + be' = r + 1) times a degree-(m - 1) monomial, a lone term of
    `second` (a single, a head, or ZRS's right column). So the singles
    add `_single_count(z, m)` to the rank, and the other products, all
    w-free, meet no unit column.

    Each of those is two +-1 terms, f's one term a side times g's two:
    s_u e_u + s_v e_v, an edge of a signed graph on the columns
    (Zaslavsky, "Signed graphs", 1982). A component spans its columns
    unless it is balanced, with signs sigma such that
    s_u sigma_u + s_v sigma_v = 0 on every edge, which leave one direction
    out. So the rank is the unit count plus the columns touched minus the
    balanced components, read off one union-find: each column below a root
    keeps 2 * its parent + the parity of sigma against it; an edge joining
    two trees hangs one root below the other, and one closing an odd cycle
    marks its root unbalanced. The sumset route this replaced is
    `oracles.sumset_product_rank`."""
    if any(len(left) != 1 or len(right) != 1 for left, right in first):
        raise ValueError("product rank: the first basis has a section not "
                         "of one term a side")
    others = first if second is None else second
    sides = (0,) if z.kind == "zr" else (0, 1)  # those with singles
    if any(len(g[side]) > 1 for g in others for side in sides):
        raise ValueError("product rank: a single-term section meets a "
                         "part of several terms")
    if any(len(left) + len(right) != 2 for left, right in others):
        raise ValueError("product rank: a section of the second basis has "
                         "other than two terms")
    if {c for f in first + others for part in f for _, c in part} - {1, -1}:
        raise ValueError("product rank: a coefficient is not +-1")
    parent = {}  # a column below a root -> 2 * its parent + the parity
    unbalanced = set()  # roots

    def find(v, parity):  # (root, parity xor that of sigma_v against it),
        # path halving
        while v in parent:
            x = parent[v]
            p = x >> 1
            if p not in parent:
                return p, parity ^ x & 1
            parent[v] = x = parent[p] ^ x & 1
            parity ^= x & 1
            v = x >> 1
        return v, parity

    pairs = (combinations_with_replacement(first, 2) if second is None
             else product(first, second))
    for ([(a, ca)], [(b, cb)]), (left, right) in pairs:
        # the edge's terms s_w e_w, each as (root, parity) with
        # s_w sigma_w = (-1)^parity sigma_root: g has one term a side, or,
        # on ZR's right differences, two right terms, both times f's right
        if left:
            [(x, cx)], [(y, cy)] = left, right
        else:
            (x, cx), (y, cy) = right
            a, ca = b, cb
        ru, pu, rv, pv = a + x, ca != cx, b + y, cb != cy
        if ru in parent:  # a column never hung is its own root
            ru, pu = find(ru, pu)
        if rv in parent:
            rv, pv = find(rv, pv)
        if ru != rv:  # hang rv so that the two terms cancel
            parent[rv] = ru << 1 | pu ^ pv ^ 1
            if rv in unbalanced:
                unbalanced.remove(rv)
                unbalanced.add(ru)
        elif pu == pv:  # an odd cycle
            unbalanced.add(ru)
    # columns touched - components = len(parent), one per hung root
    rank = _single_count(z, m) + len(parent) + len(unbalanced)
    if rank > fiber_product_h0(z, m):
        raise AssertionError("products leave the glued section space")
    return rank


def degree_one_generation(z, m_max):
    """True when multiplication out of degree 1 is onto through m_max. Each
    degree's glued basis is built once, on the field width of m_max, and
    checked against the target rank, its glued h0."""
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    width = m_max.bit_length()
    b1 = glued_basis(z, 1, width)
    bm = None   # degree 2: each unordered pair of b1 once
    for m in range(2, m_max + 1):
        target = glued_basis(z, m, width)
        if _product_rank(z, b1, bm, m) != fiber_product_h0(z, m):
            return False
        bm = target
    return True


def quadric_kernel_dim(z):
    """dim ker(Sym^2 H^0(L) -> H^0(L^2)): the number of independent
    quadrics through the image of the degree-1 embedding."""
    n = fiber_product_h0(z, 1)
    return n * (n + 1) // 2 - _product_rank(
        z, glued_basis(z, 1, (2).bit_length()), None, 2)


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
