"""Linear algebra over optical quadrature observables.

Every observable handled by this package is a first-order combination of
independent Gaussian seed variables: the quadratures of the squeezed sources
feeding the preparation network, and of any externally supplied input
signals. A :class:`QuadExpr` stores the coefficient of each seed plus a
deterministic constant, so means, variances and covariances are exact sums
rather than numerical estimates.

Sources come from :func:`squeezed_mode` and :func:`input_mode`, each call a
pair of fresh seeds. Terms are keyed by the :class:`SeedVar` objects, which
compare by identity, so expressions over separately made sources combine
freely and their seeds are independent.

Conventions used throughout:

* the amplitude quadrature is ``x``, the phase quadrature is ``y``;
* the vacuum (shot-noise) variance is normalized to 1;
* a phase-quiet source has ``Var(x) = e^{+2r}`` and ``Var(y) = e^{-2r}``,
  an amplitude-quiet source the opposite.

Squeezed-seed variances are never stored; they are evaluated from the
squeezing parameter ``r`` on demand, so one expression can be interrogated
at any squeezing level.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

#: Coefficients below this magnitude are dropped after every operation.
PRUNE_TOL = 1e-12


class Axis(enum.Enum):
    """Which quadrature of a mode a seed variable belongs to."""

    X = "x"
    Y = "y"


class SeedKind(enum.Enum):
    """How a seed variable's variance is determined."""

    PHASE_QUIET = "phase-quiet"
    AMPLITUDE_QUIET = "amplitude-quiet"
    EXTERNAL = "external"


def _check_r(r: float) -> None:
    if r < 0:
        raise ValueError("squeezing parameter r must be >= 0")


def squeezed_variance(kind: SeedKind, axis: Axis, r: float) -> float:
    """Variance of one squeezed-source quadrature at squeezing parameter r."""
    _check_r(r)
    if kind is SeedKind.EXTERNAL:
        raise ValueError("external seeds carry their own variance")
    quiet = (kind is SeedKind.PHASE_QUIET) == (axis is Axis.Y)
    return math.exp(-2.0 * r) if quiet else math.exp(2.0 * r)


@dataclass(frozen=True, eq=False)
class SeedVar:
    """One independent Gaussian seed variable.

    Seeds compare and hash by identity, so an expression's terms are keyed
    by the seed objects themselves; ``id`` is only a name. External seeds
    carry a caller-supplied mean and variance; squeezed seeds have zero mean
    and an r-dependent variance given by :func:`squeezed_variance`.
    """

    id: str
    axis: Axis
    kind: SeedKind
    mean: float = 0.0
    variance: float | None = None

    def __post_init__(self) -> None:
        if self.kind is SeedKind.EXTERNAL:
            if self.variance is None or self.variance < 0:
                raise ValueError("external seed needs a variance >= 0")
        elif self.variance is not None:
            raise ValueError("squeezed seeds must not store a variance")

    def variance_at(self, r: float) -> float:
        if self.kind is SeedKind.EXTERNAL:
            _check_r(r)
            return float(self.variance)  # type: ignore[arg-type]
        return squeezed_variance(self.kind, self.axis, r)


class QuadExpr:
    """A quadrature observable: ``sum(coeff * seed) + constant``.

    Instances are immutable; every operation returns a new expression with
    coefficients below :data:`PRUNE_TOL` dropped.
    """

    __slots__ = ("_terms", "_constant")

    def __init__(
        self,
        terms: Mapping[SeedVar, float] | None = None,
        constant: float = 0.0,
    ) -> None:
        pruned = {
            seed: float(c) for seed, c in (terms or {}).items() if abs(c) >= PRUNE_TOL
        }
        object.__setattr__(self, "_terms", pruned)
        object.__setattr__(self, "_constant", float(constant))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadExpr is immutable")

    @property
    def terms(self) -> Mapping[SeedVar, float]:
        return MappingProxyType(self._terms)

    @property
    def constant(self) -> float:
        return self._constant

    def coefficient(self, seed_id: str, axis: Axis | str) -> float:
        """Coefficient of the seed named ``seed_id`` on ``axis`` (0 if absent)."""
        axis = Axis(axis)
        return next((c for seed, c in self._terms.items()
                     if seed.id == seed_id and seed.axis is axis), 0.0)

    # arithmetic ----------------------------------------------------------

    def __add__(self, other: "QuadExpr | float | int") -> "QuadExpr":
        if isinstance(other, QuadExpr):
            terms = dict(self._terms)
            for seed, c in other._terms.items():
                terms[seed] = terms.get(seed, 0.0) + c
            return QuadExpr(terms, self._constant + other._constant)
        if isinstance(other, (int, float)):
            return QuadExpr(self._terms, self._constant + float(other))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "QuadExpr":
        return QuadExpr({s: -c for s, c in self._terms.items()}, -self._constant)

    def __sub__(self, other: "QuadExpr | float | int") -> "QuadExpr":
        if isinstance(other, QuadExpr):
            return self + (-other)
        if isinstance(other, (int, float)):
            return self + (-float(other))
        return NotImplemented

    def __rsub__(self, other: "float | int") -> "QuadExpr":
        return (-self) + other

    def __mul__(self, scalar: "float | int") -> "QuadExpr":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        s = float(scalar)
        return QuadExpr({seed: s * c for seed, c in self._terms.items()}, s * self._constant)

    __rmul__ = __mul__

    # statistics ----------------------------------------------------------

    def mean(self) -> float:
        """Expectation value; squeezed seeds contribute nothing."""
        total = self._constant
        for seed, c in self._terms.items():
            total += c * seed.mean
        return total

    def covariance(self, other: "QuadExpr", r: float) -> float:
        """Covariance with another expression at squeezing parameter r.

        Seeds are mutually independent, so only shared seeds contribute.
        """
        small, large = self._terms, other._terms
        if len(large) < len(small):
            small, large = large, small
        total = 0.0
        for seed, c1 in small.items():
            c2 = large.get(seed)
            if c2 is not None:
                total += c1 * c2 * seed.variance_at(r)
        return total

    def variance(self, r: float) -> float:
        return self.covariance(self, r)


@dataclass(frozen=True)
class ModePair:
    """The amplitude/phase quadrature pair of one optical mode."""

    x: QuadExpr
    y: QuadExpr


def _pair(x: SeedVar, y: SeedVar) -> ModePair:
    return ModePair(QuadExpr({x: 1.0}), QuadExpr({y: 1.0}))


def squeezed_mode(kind: SeedKind, label: str) -> ModePair:
    """A fresh squeezed source named ``label``, as its quadrature pair."""
    if kind is SeedKind.EXTERNAL:
        raise ValueError("use input_mode() for external signals")
    return _pair(SeedVar(label, Axis.X, kind), SeedVar(label, Axis.Y, kind))


def input_mode(
    label: str,
    mean_x: float = 0.0,
    mean_y: float = 0.0,
    var_x: float = 1.0,
    var_y: float = 1.0,
) -> ModePair:
    """A fresh external input signal named ``label`` with the given moments."""
    return _pair(SeedVar(label, Axis.X, SeedKind.EXTERNAL, float(mean_x), float(var_x)),
                 SeedVar(label, Axis.Y, SeedKind.EXTERNAL, float(mean_y), float(var_y)))


def splitter_matrix(transmittance: float, phase_diff: float = 0.0) -> tuple[tuple, ...]:
    """The 4x4 beamsplitter map on ``(a.x, a.y, b.x, b.y)``.

    ``phase_diff`` is applied as a phase-space rotation R of the second input
    before the real orthogonal mixing; the rows are the output quadratures
    ``(out1.x, out1.y, out2.x, out2.y)``::

        out1 = sqrt(t) * a + sqrt(1-t) * R(phase) b
        out2 = sqrt(1-t) * a - sqrt(t) * R(phase) b

    The map is symplectic for any transmittance and phase.
    """
    if not 0.0 < transmittance < 1.0:
        raise ValueError("transmittance must lie strictly between 0 and 1")
    t, rr = math.sqrt(transmittance), math.sqrt(1.0 - transmittance)
    c, s = math.cos(phase_diff), math.sin(phase_diff)
    return ((t, 0.0, rr * c, -rr * s),
            (0.0, t, rr * s, rr * c),
            (rr, 0.0, -t * c, t * s),
            (0.0, rr, -t * s, -t * c))


def beamsplitter(
    a: ModePair,
    b: ModePair,
    transmittance: float,
    phase_diff: float = 0.0,
) -> tuple[ModePair, ModePair]:
    """Mix two modes by the rows of :func:`splitter_matrix`.

    The outputs stay exact linear forms in the input seeds. Matrix entries
    below :data:`PRUNE_TOL`, such as cos(pi/2), are skipped.
    """
    matrix = splitter_matrix(transmittance, phase_diff)
    quads = (a.x, a.y, b.x, b.y)
    out = []
    for row in matrix:
        terms: dict[SeedVar, float] = {}
        constant = 0.0
        for m, quad in zip(row, quads):
            if abs(m) >= PRUNE_TOL:
                for seed, c in quad._terms.items():
                    terms[seed] = terms.get(seed, 0.0) + m * c
                constant += m * quad._constant
        out.append(QuadExpr(terms, constant))
    return ModePair(*out[:2]), ModePair(*out[2:])


def rotate_quadrature(mode: ModePair, angle: float) -> QuadExpr:
    """Observable measured by a homodyne detector at the given phase.

    Returns ``y*sin(angle) + x*cos(angle)``; angle 0 gives the amplitude
    quadrature, pi/2 the phase quadrature.
    """
    return math.sin(angle) * mode.y + math.cos(angle) * mode.x
