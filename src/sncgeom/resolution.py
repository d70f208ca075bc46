"""Resolution chains for the node x1 x2 = s^m and the class-group bound.

`resolve_local` plays the local rules: for m >= 3 one blow-up of the
singular surface produces two new P^1-bundle divisors and drops the
multiplicity by 2; at m = 2 a final blow-up gives one conic-bundle divisor
and a smooth total space; at m = 1 the locus is already a smooth normal
crossing and the last step blows up the component meeting Z_1.

`build_chain` converts the resulting chain

    E_0 = Z_1, E_1, ..., E_{m-1}, E_m = Z_2

(consecutive members meeting in copies of S; E_1 carries an extra blow-up
along the curve C) into second Betti numbers by two routes that share no
code: the Betti numbers of the chain members, and h^2 of Z_1 glued to Z_2
along S plus the exceptional divisors counted by `resolve_local`.
"""

from __future__ import annotations

from dataclasses import dataclass

END_COMPONENT = "end_component"
P1_BUNDLE_OVER_S = "p1_bundle_over_s"
P1_BUNDLE_BLOWN_ALONG_C = "p1_bundle_blown_along_c"
CONIC_BUNDLE_BLOWN = "conic_bundle_blown"
Z2_BLOWN_ALONG_C = "z2_blown_along_c"

SMOOTH = "smooth"


class AssumptionViolated(ValueError):
    """A stated rank/surjectivity hypothesis fails for the given input."""


def resolve_local(m):
    """Blow-up steps resolving the node x1 x2 = s^m, m >= 1.

    Each step is (multiplicity before the step, rule, exceptional divisors
    added); the list ends with the marker ("smooth").  The exceptional
    divisors added over the whole run total m - 1.
    """
    if m < 1:
        raise ValueError("multiplicity must be positive")
    steps = []
    while m >= 3:
        steps.append((m, "blowup_intersection_surface", 2))
        m -= 2
    if m == 2:
        steps.append((2, "blowup_intersection_surface", 1))
    else:
        steps.append((1, "blowup_component_meeting_z1", 0))
    steps.append((SMOOTH,))
    return steps


@dataclass(frozen=True)
class ChainMember:
    kind: str
    h2: int


def chain_members(m, h2_z1, h2_s, h2_c, h2_z2):
    """The chain E_0 = Z_1, ..., E_m with second Betti numbers.

    E_1 is the member carrying the blow-up along C: a blown P^1-bundle for
    m >= 3, the conic bundle for m = 2, and Z_2 itself blown along C when
    m = 1.  The remaining interior members are plain P^1-bundles over S,
    one frozen member shared m - 2 times in a list that is new per call.
    """
    if m < 1:
        raise ValueError("multiplicity must be positive")
    members = [ChainMember(END_COMPONENT, h2_z1)]
    if m == 1:
        members.append(ChainMember(Z2_BLOWN_ALONG_C, h2_z2 + h2_c))
        return members
    first = CONIC_BUNDLE_BLOWN if m == 2 else P1_BUNDLE_BLOWN_ALONG_C
    members.append(ChainMember(first, h2_s + 1 + h2_c))
    members += [ChainMember(P1_BUNDLE_OVER_S, h2_s + 1)] * (m - 2)
    members.append(ChainMember(END_COMPONENT, h2_z2))
    return members


@dataclass
class ChainReport:
    multiplicity: int
    members: list
    h2_total: int
    h2_crosscheck: int
    class_rank_bound: int
    bound_clamped: bool
    trace: list


def build_chain(m, h2_z1, h2_s, h2_c, h2_z2, seed=0):
    """Second Betti number of the chain union and the class-rank bound.

    Two routes to h^2 = h^2(Z_1) + h^2(Z_2) - h^2(S) + h^2(C) + (m - 1):

    - `h2_crosscheck`, Mayer-Vietoris over the chain: the sum of h^2 over
      `chain_members` minus the rank of the restriction to the m copies of
      S.  That rank is m h^2(S) with no computation: each copy of S but
      the last is a section of the P^1-bundle (or conic bundle) to its
      right, so pulling back onto it is onto; onto the last copy, the
      restriction from Z_2 (blown along C when m = 1) is onto by
      assumption.
    - `h2_total`: h^2(Z_1 u_S Z_2) = h^2(Z_1) + h^2(Z_2) - h^2(S) (by
      Mayer-Vietoris, since H^1(S) = 0), plus h^2(C) from the blow-up along
      C, plus one class per exceptional divisor of `resolve_local`, which
      never looks at the chain.

    They agree exactly when the chain and the local blow-up trace agree on
    the exceptional members; otherwise AssumptionViolated is raised.  The
    bound on the class-group rank of the contracted cone is
    h2_total - (m + 1).  `seed` is accepted and ignored: nothing is
    sampled.
    """
    if min(h2_z1, h2_z2, h2_s, h2_c) < 0:
        raise ValueError("Betti numbers must be nonnegative")
    if m < 1:
        raise ValueError("multiplicity must be positive")
    if h2_z2 < h2_s:
        raise AssumptionViolated(
            "restriction from Z_2 cannot be onto: h2_z2 < h2_s")
    members = chain_members(m, h2_z1, h2_s, h2_c, h2_z2)
    trace = resolve_local(m)
    exceptional = sum(step[2] for step in trace[:-1])
    h2_total = h2_z1 + h2_z2 - h2_s + h2_c + exceptional
    crosscheck = sum(e.h2 for e in members) - m * h2_s
    if crosscheck != h2_total:
        raise AssumptionViolated(
            f"chain members give h2 = {crosscheck}, the local blow-ups "
            f"{h2_total}")
    bound, clamped = class_rank_bound(h2_total, m + 1)
    return ChainReport(
        multiplicity=m,
        members=members,
        h2_total=h2_total,
        h2_crosscheck=crosscheck,
        class_rank_bound=bound,
        bound_clamped=clamped,
        trace=trace,
    )


def class_rank_bound(h2_total, component_count):
    """h2_total - component_count, floored at zero.

    Returns (bound, clamped)."""
    bound = h2_total - component_count
    return max(0, bound), bound < 0
