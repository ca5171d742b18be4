"""Four-mode linear cluster preparation and entanglement certification.

The cluster is built from four squeezed sources: phase-quiet a1 and a4 on
the outer rails and amplitude-quiet a2 and a3 in the middle. A 1:4 splitter
first mixes a2 and a3 with a pi/2 phase offset into a bright and a dim arm;
two 50:50 splitters then mix a1 into the bright arm (giving b1, b2) and a4,
with a pi/2 offset, into the dim arm (giving b3, b4). :func:`build_cluster`
states this network as code, and :func:`nullifiers` the four joint
quadratures that carry the linear-cluster correlations certified below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .algebra import ModePair, QuadExpr, SeedKind, _check_r, beamsplitter, squeezed_mode


@dataclass(frozen=True)
class ClusterState:
    """The four cluster modes."""

    b1: ModePair
    b2: ModePair
    b3: ModePair
    b4: ModePair

    @property
    def modes(self) -> tuple[ModePair, ModePair, ModePair, ModePair]:
        return (self.b1, self.b2, self.b3, self.b4)


def build_cluster() -> ClusterState:
    """Run the preparation network on four fresh sources; return the cluster modes."""
    a1 = squeezed_mode(SeedKind.PHASE_QUIET, "a1")
    a2 = squeezed_mode(SeedKind.AMPLITUDE_QUIET, "a2")
    a3 = squeezed_mode(SeedKind.AMPLITUDE_QUIET, "a3")
    a4 = squeezed_mode(SeedKind.PHASE_QUIET, "a4")
    bright, dim = beamsplitter(a2, a3, 0.8, math.pi / 2)
    b1, b2 = beamsplitter(bright, a1, 0.5)
    b3, b4 = beamsplitter(dim, a4, 0.5, math.pi / 2)
    return ClusterState(b1, b2, b3, b4)


def nullifiers(cluster: ClusterState) -> tuple[QuadExpr, ...]:
    """The four joint quadratures whose variances vanish for infinite squeezing."""
    b1, b2, b3, b4 = cluster.modes
    return (b1.y - b2.y, b1.x + b2.x + b3.x, -b2.y + b3.y + b4.y, b3.x - b4.x)


def nullifier_variances(cluster: ClusterState, r: float) -> tuple[float, ...]:
    """Variances of the four nullifiers at squeezing parameter r."""
    _check_r(r)
    return tuple(n.variance(r) for n in nullifiers(cluster))


#: Upper bound on each pairwise variance sum of the full-inseparability witness
#: (van Loock and Furusawa 2003): sums below it suffice, but are not needed, for the
#: state to be fully inseparable.
INSEPARABILITY_BOUND = 4.0


@dataclass(frozen=True)
class InseparabilityReport:
    """Outcome of the three pairwise variance-sum conditions."""

    lhs: tuple[float, float, float]
    satisfied: tuple[bool, bool, bool]

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied)


def inseparability_check(cluster: ClusterState, r: float) -> InseparabilityReport:
    """Evaluate the three variance-sum conditions at squeezing r."""
    v1, v2, v3, v4 = nullifier_variances(cluster, r)
    lhs = (v2 + v1, v4 + v3, v2 + v3)
    return InseparabilityReport(lhs=lhs, satisfied=tuple(v < INSEPARABILITY_BOUND for v in lhs))


@functools.cache
def inseparability_threshold() -> float:
    """Smallest squeezing at which all three conditions hold.

    Every nullifier is built from quiet seeds only, so each pair sum is its
    r=0 value times e^{-2r}. All three hold once the largest sum drops below
    the bound: r* = ln(max lhs(0) / bound) / 2, or 0 if they hold at r=0.
    The cluster is fixed, so the value is computed once per process.
    """
    report = inseparability_check(build_cluster(), 0.0)
    return max(0.0, 0.5 * math.log(max(report.lhs) / INSEPARABILITY_BOUND))
