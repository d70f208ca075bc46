"""Resolution chains for the node x1 x2 = s^m and the class-group bound.

`resolve_local` plays the local rules: for m >= 3 one blow-up of the
singular surface produces two new P^1-bundle divisors and drops the
multiplicity by 2; at m = 2 a final blow-up gives one conic-bundle divisor
and a smooth total space; at m = 1 the locus is already a smooth normal
crossing and the last step blows up the component meeting Z_1.

`build_chain` converts the resulting chain

    E_0 = Z_1, E_1, ..., E_{m-1}, E_m = Z_2

(consecutive members meeting in copies of S; E_1 carries an extra blow-up
along the curve C) into second Betti numbers, cross-checking the closed
formula against the exact rank over Q of the restriction matrix of the
chain, built and ranked as sparse integer rows (`lattice.sparse_rank`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from . import lattice

PLAIN = "plain"       # x1 x2 = s^m
TWISTED = "twisted"   # x1 x2 = s^m x3

END_COMPONENT = "end_component"
P1_BUNDLE_OVER_S = "p1_bundle_over_s"
P1_BUNDLE_BLOWN_ALONG_C = "p1_bundle_blown_along_c"
CONIC_BUNDLE_BLOWN = "conic_bundle_blown"
Z2_BLOWN_ALONG_C = "z2_blown_along_c"

SMOOTH = "smooth"


class AssumptionViolated(ValueError):
    """A stated rank/surjectivity hypothesis fails for the given input."""


@dataclass(frozen=True)
class LocalModel:
    """Node x1 x2 = s^multiplicity (optionally times x3) along a surface."""

    multiplicity: int
    variant: str = PLAIN

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if self.variant not in (PLAIN, TWISTED):
            raise ValueError("variant must be 'plain' or 'twisted'")


def local_model_trace(m, variant=PLAIN):
    """Multiplicity sequence m, m-2, ... down to 2 or 1; variant is kept."""
    out = []
    model = LocalModel(m, variant)
    while True:
        out.append(model)
        if model.multiplicity <= 2:
            return out
        model = LocalModel(model.multiplicity - 2, variant)


def resolve_local(model):
    """Blow-up steps resolving the local model.

    Each step is (multiplicity before the step, rule, exceptional divisors
    added); the list ends with the marker ("smooth").  The exceptional
    divisors added over the whole run total m - 1.
    """
    if isinstance(model, int):
        model = LocalModel(model)
    steps = []
    mult = model.multiplicity
    while mult >= 3:
        steps.append((mult, "blowup_intersection_surface", 2))
        mult -= 2
    if mult == 2:
        steps.append((2, "blowup_intersection_surface", 1))
    else:
        steps.append((1, "blowup_component_meeting_z1", 0))
    steps.append((SMOOTH,))
    return steps


def exceptional_count(m):
    """Number of exceptional divisors in the resolution of x1 x2 = s^m."""
    if m < 1:
        raise ValueError("multiplicity must be positive")
    return sum(step[2] for step in resolve_local(LocalModel(m))[:-1])


@dataclass(frozen=True)
class ChainMember:
    kind: str
    h2: int


def chain_members(m, h2_z1, h2_s, h2_c, h2_z2):
    """The chain E_0 = Z_1, ..., E_m with second Betti numbers.

    E_1 is the member carrying the blow-up along C: a blown P^1-bundle for
    m >= 3, the conic bundle for m = 2, and Z_2 itself blown along C when
    m = 1.  The remaining interior members are plain P^1-bundles over S.
    """
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


@dataclass
class ChainReport:
    multiplicity: int
    members: list
    intersection_count: int
    h2_total: int
    h2_crosscheck: int
    class_rank_bound: int
    bound_clamped: bool = False
    trace: list = field(default_factory=list)

    def to_json(self):
        return json.dumps({
            "multiplicity": self.multiplicity,
            "members": [{"kind": e.kind, "h2": e.h2} for e in self.members],
            "intersections": self.intersection_count,
            "h2_total": self.h2_total,
            "h2_crosscheck": self.h2_crosscheck,
            "class_rank_bound": self.class_rank_bound,
            "bound_clamped": self.bound_clamped,
        })


def _restriction_rows(members, m, h2_s, seed=0):
    """Rows of the joint restriction map (sum over chain members of H^2)
    -> (sum over the m intersection surfaces of H^2), as sparse
    {column: int} dicts.

    Each member E_{i+1} restricts onto the surface to its left with an
    identity pullback block (bundle pullback, or the surjectivity
    assumption on Z_2); the restriction from the left member is filled
    with bounded random integers drawn from `seed`, row by row.  The
    triangular identity pattern makes the matrix full row rank whatever
    the random entries are.
    """
    rng = random.Random(seed)
    col_off = [0]
    for e in members:
        col_off.append(col_off[-1] + e.h2)
    rows = []
    for i in range(m):           # surface between members i and i + 1
        left = range(col_off[i], col_off[i + 1])
        right = col_off[i + 1]
        for k in range(h2_s):
            row = {}
            for c in left:       # left member: generic restriction
                x = rng.randrange(-3, 4)
                if x:
                    row[c] = x
            row[right + k] = 1   # right member: identity pullback block
            rows.append(row)
    return rows


def build_chain(m, h2_z1, h2_s, h2_c, h2_z2,
                assume_h1_s_zero=True, assume_z2_surjective=True, seed=0):
    """Second Betti number of the chain union and the class-rank bound.

    Closed formula h^2(Z_1) + h^2(Z_2) - h^2(S) + h^2(C) + (m - 1),
    cross-checked against the exact restriction-matrix rank; the bound
    on the class-group rank of the contracted cone is h2_total - (m + 1).
    """
    if min(h2_z1, h2_z2, h2_s, h2_c) < 0:
        raise ValueError("Betti numbers must be nonnegative")
    if m < 1:
        raise ValueError("multiplicity must be positive")
    if not (assume_h1_s_zero and assume_z2_surjective):
        raise AssumptionViolated(
            "the Betti formula needs H^1(S) = 0 and a surjective "
            "restriction from Z_2 to S")
    if h2_z2 < h2_s:
        raise AssumptionViolated(
            "restriction from Z_2 cannot be onto: h2_z2 < h2_s")
    members = chain_members(m, h2_z1, h2_s, h2_c, h2_z2)
    formula = h2_z1 + h2_z2 - h2_s + h2_c + (m - 1)
    crosscheck = sum(e.h2 for e in members) - lattice.sparse_rank(
        _restriction_rows(members, m, h2_s, seed))
    if crosscheck != formula:
        raise AssumptionViolated(
            f"Betti formula {formula} disagrees with matrix computation "
            f"{crosscheck}")
    bound = formula - (m + 1)
    return ChainReport(
        multiplicity=m,
        members=members,
        intersection_count=m,
        h2_total=formula,
        h2_crosscheck=crosscheck,
        class_rank_bound=max(0, bound),
        bound_clamped=bound < 0,
        trace=resolve_local(LocalModel(m)),
    )


def class_rank_bound(h2_total, component_count):
    """h2_total - component_count, floored at zero.

    Returns (bound, clamped)."""
    bound = h2_total - component_count
    return max(0, bound), bound < 0
