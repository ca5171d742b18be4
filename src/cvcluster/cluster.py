"""Four-mode linear cluster preparation and entanglement certification.

The cluster is built from four squeezed sources: two phase-quiet modes on
the outer rails and two amplitude-quiet modes in the middle. A 1:4 splitter
first mixes the amplitude-quiet pair with a pi/2 phase offset; two 50:50
splitters then attach one phase-quiet source to each arm. The resulting
modes b1..b4 carry the linear-cluster correlations certified below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .algebra import Axis, ModePair, QuadExpr, SeedKind, _check_r, beamsplitter, squeezed_mode


@dataclass(frozen=True)
class BeamsplitterSpec:
    """One splitter of the preparation network, acting on mode slots.

    The first output replaces slot ``mode_a``, the second slot ``mode_b``.
    """

    mode_a: int
    mode_b: int
    transmittance: float
    phase_diff: float


#: Source kinds occupying slots 0..3 before the network runs.
SOURCE_KINDS = (
    SeedKind.PHASE_QUIET,
    SeedKind.AMPLITUDE_QUIET,
    SeedKind.AMPLITUDE_QUIET,
    SeedKind.PHASE_QUIET,
)

SOURCE_LABELS = ("a1", "a2", "a3", "a4")

#: The preparation network. Slot bookkeeping: the 1:4 splitter leaves the
#: bright arm in slot 1 and the dim arm in slot 2; the 50:50 splitters then
#: overwrite slots (1, 0) and (2, 3).
CLUSTER_NETWORK = (
    BeamsplitterSpec(1, 2, 0.8, math.pi / 2),
    BeamsplitterSpec(1, 0, 0.5, 0.0),
    BeamsplitterSpec(2, 3, 0.5, math.pi / 2),
)

#: Which cluster mode each slot holds after the network runs.
SLOT_MODES = ("b2", "b1", "b3", "b4")


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

    def mode(self, name: str) -> ModePair:
        if name not in SLOT_MODES:
            raise ValueError(f"unknown cluster mode {name!r}")
        return getattr(self, name)


def build_cluster() -> ClusterState:
    """Run the preparation network on four fresh sources; return the cluster modes."""
    slots = [squeezed_mode(kind, label) for kind, label in zip(SOURCE_KINDS, SOURCE_LABELS)]
    for spec in CLUSTER_NETWORK:
        out_a, out_b = beamsplitter(
            slots[spec.mode_a], slots[spec.mode_b], spec.transmittance, spec.phase_diff
        )
        slots[spec.mode_a] = out_a
        slots[spec.mode_b] = out_b
    return ClusterState(**dict(zip(SLOT_MODES, slots)))


#: Joint quadratures whose variances vanish for infinite squeezing, written
#: as (mode, axis, sign) triples.
NULLIFIER_TERMS = (
    (("b1", Axis.Y, +1.0), ("b2", Axis.Y, -1.0)),
    (("b1", Axis.X, +1.0), ("b2", Axis.X, +1.0), ("b3", Axis.X, +1.0)),
    (("b2", Axis.Y, -1.0), ("b3", Axis.Y, +1.0), ("b4", Axis.Y, +1.0)),
    (("b3", Axis.X, +1.0), ("b4", Axis.X, -1.0)),
)


def nullifiers(cluster: ClusterState) -> tuple[QuadExpr, ...]:
    """The four joint quadratures that certify the cluster correlations."""
    return tuple(
        sum(sign * getattr(cluster.mode(name), axis.value) for name, axis, sign in combo)
        for combo in NULLIFIER_TERMS
    )


def nullifier_variances(cluster: ClusterState, r: float) -> tuple[float, ...]:
    """Variances of the four nullifiers at squeezing parameter r."""
    _check_r(r)
    return tuple(n.variance(r) for n in nullifiers(cluster))


#: Upper bound that each pairwise variance sum must stay below for the
#: state to be fully inseparable.
INSEPARABILITY_BOUND = 4.0

#: Nullifier index pairs whose variances are summed in the three conditions.
_PAIR_INDICES = ((1, 0), (3, 2), (1, 2))


@dataclass(frozen=True)
class InseparabilityReport:
    """Outcome of the three pairwise variance-sum conditions."""

    lhs: tuple[float, float, float]
    bound: float
    satisfied: tuple[bool, bool, bool]
    margin: tuple[float, float, float]

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied)


def inseparability_check(cluster: ClusterState, r: float) -> InseparabilityReport:
    """Evaluate the three variance-sum conditions at squeezing r."""
    variances = nullifier_variances(cluster, r)
    lhs = tuple(variances[i] + variances[j] for i, j in _PAIR_INDICES)
    satisfied = tuple(v < INSEPARABILITY_BOUND for v in lhs)
    margin = tuple(INSEPARABILITY_BOUND - v for v in lhs)
    return InseparabilityReport(lhs=lhs, bound=INSEPARABILITY_BOUND,
                                satisfied=satisfied, margin=margin)


@functools.cache
def inseparability_threshold() -> float:
    """Smallest squeezing at which all three conditions hold.

    Every nullifier is built from quiet seeds only, so each pair sum is its
    r=0 value times e^{-2r}. All three hold once the largest sum drops below
    the bound: r* = ln(max lhs(0) / bound) / 2, or 0 if they hold at r=0.
    The cluster is fixed, so the value is computed once per process.
    """
    report = inseparability_check(build_cluster(), 0.0)
    return max(0.0, 0.5 * math.log(max(report.lhs) / report.bound))
