"""Measurement-plus-feedforward logic gates on the four-mode cluster.

Each gate couples its input signal(s) to cluster modes on 50:50 splitters,
measures a commuting set of quadratures with homodyne detectors, and adds
the scaled photocurrents back onto the surviving modes. Because every
measured quadrature is itself a linear form in the seeds, feedforward is
plain expression arithmetic and the output statistics stay closed-form.

Gates are pure functions of their parameters and the squeezing parameter r.
Each call builds a fresh cluster, so results never share state. Every output
mode's Gaussian moments, means and 2x2 covariance, are one :class:`ModeStats`
record, evaluated from the expressions by :func:`mode_moments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .algebra import ModePair, _check_r, beamsplitter, input_mode, rotate_quadrature
from .cluster import ClusterState, build_cluster

#: Fixed feedforward gains of the displacement gate. The first detector's
#: photocurrent (plus the displacement offset s0) is added with gain +sqrt(2),
#: the second's (minus s1) with gain -sqrt(2); this makes the input signal
#: reappear in the output with unit coefficient.
G0 = math.sqrt(2.0)
G1 = -math.sqrt(2.0)

#: Feedforward gain magnitude used by the controlled-X scheme.
CX_GAIN = math.sqrt(2.0)

#: Distinguishability criterion -> number of standard deviations between
#: the two output distributions.
CRITERION_SIGMAS = {95: 2.0, 99: 3.0}

_OPTIMAL = "optimal"


def _check_variance(name: str, value: float) -> None:
    if not value > 0 or not math.isfinite(value):
        raise ValueError(f"{name} must be > 0")


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class ModeStats:
    """Gaussian moments of one mode: the (x, y) means and the 2x2 covariance."""

    mean_x: float
    mean_y: float
    var_x: float
    var_y: float
    cov_xy: float


def mode_moments(mode: ModePair, r: float) -> ModeStats:
    """Evaluate a mode's Gaussian moments at squeezing parameter r."""
    return ModeStats(mode.x.mean(), mode.y.mean(), mode.x.variance(r), mode.y.variance(r),
                     mode.x.covariance(mode.y, r))


@dataclass(frozen=True)
class GateResult:
    """Output observables of a gate plus their evaluated statistics.

    ``modes`` maps an output name (``out``, or ``target``/``control``) to
    its quadrature pair; ``stats`` holds the matching moments, evaluated
    directly from the expressions; ``meta`` records the gains and angles the
    gate resolved from its parameters.
    """

    modes: Mapping[str, ModePair]
    stats: Mapping[str, ModeStats]
    meta: Mapping[str, float]


def _couple(r: float, *inputs: tuple) -> tuple[ClusterState, list]:
    """Build a fresh cluster and split each input signal with its cluster mode.

    An input is ``(mode, label, mean_x, mean_y, var_x, var_y)``; it is mixed
    with its cluster mode, which takes the first port, on a 50:50 splitter.
    """
    _check_r(r)
    cluster = build_cluster()
    return cluster, [
        beamsplitter(cluster.mode(mode), input_mode(*source), 0.5, 0.0)
        for mode, *source in inputs
    ]


def _result(r: float, modes: dict[str, ModePair], meta: dict[str, float]) -> GateResult:
    """The output modes with their moments evaluated at r."""
    stats = {name: mode_moments(mode, r) for name, mode in modes.items()}
    return GateResult(modes=modes, stats=stats, meta=meta)


# --------------------------------------------------------------------------
# displacement gate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DisplacementParams:
    """Phase-space displacement gate settings.

    ``s0``/``s1`` are the amplitude/phase displacements added to the two
    feedforward photocurrents. ``g2``/``g3`` are the residual-noise gains on
    the third and fourth detectors; the string ``"optimal"`` resolves to the
    variance-minimizing value at gate time. The remaining fields describe
    the Gaussian input signal.
    """

    s0: float = 0.0
    s1: float = 0.0
    g2: float | str = _OPTIMAL
    g3: float | str = _OPTIMAL
    mean_x: float = 0.0
    mean_y: float = 0.0
    var_x: float = 1.0
    var_y: float = 1.0

    def __post_init__(self) -> None:
        _check_variance("var_x", self.var_x)
        _check_variance("var_y", self.var_y)
        for name in ("s0", "s1", "mean_x", "mean_y"):
            _check_finite(name, getattr(self, name))
        for name in ("g2", "g3"):
            g = getattr(self, name)
            if isinstance(g, str) and g != _OPTIMAL:
                raise ValueError(f"{name} must be a number or 'optimal'")
            if isinstance(g, (int, float)) and not math.isfinite(g):
                raise ValueError(f"{name} must be finite")


def optimal_gain(r: float) -> float:
    """Residual-noise gain minimizing the displacement-gate output variance.

    ``g = 3(e^{2r} - e^{-2r}) / (2e^{-2r} + 3e^{2r})``; 0 at r=0, -> 1 for
    large r.
    """
    _check_r(r)
    up = math.exp(2.0 * r)
    down = math.exp(-2.0 * r)
    return 3.0 * (up - down) / (2.0 * down + 3.0 * up)


def displacement_output_variance(r: float, gain: float, v_in: float = 1.0) -> float:
    """Output variance of one quadrature at an explicit residual gain.

    ``((3+2g)^2/10) e^{-2r} + ((1-g)^2/10) e^{2r} + e^{-2r}/2
    + ((1-g)^2/2) e^{2r} + v_in``.
    """
    _check_r(r)
    up = math.exp(2.0 * r)
    down = math.exp(-2.0 * r)
    g = float(gain)
    return (
        (3.0 + 2.0 * g) ** 2 / 10.0 * down
        + (1.0 - g) ** 2 / 10.0 * up
        + 0.5 * down
        + (1.0 - g) ** 2 / 2.0 * up
        + v_in
    )


def optimal_displacement_variance(r: float, v_in: float = 1.0) -> float:
    """Output variance at the optimal residual gain.

    ``(e^{-2r} + 9 e^{2r}) / (2 + 3 e^{4r}) + v_in``; equals 2 + v_in at
    r=0 and tends to v_in for large r.
    """
    _check_r(r)
    up = math.exp(2.0 * r)
    down = math.exp(-2.0 * r)
    return (down + 9.0 * up) / (2.0 + 3.0 * up * up) + v_in


def displacement_gate(params: DisplacementParams, r: float) -> GateResult:
    """Displace the input by (sqrt(2) s0, sqrt(2) s1) in phase space.

    The input couples to cluster mode b1 on a 50:50 splitter; the split
    outputs' amplitude and phase are measured, offset by s0/-s1, and fed
    onto b4 with the fixed gains. Two more detectors on b2 and b3 cancel
    residual cluster noise with gains g2/g3.
    """
    g2, g3 = (optimal_gain(r) if g == _OPTIMAL else float(g) for g in (params.g2, params.g3))
    cluster, [(c1, c2)] = _couple(
        r, ("b1", "in", params.mean_x, params.mean_y, params.var_x, params.var_y)
    )
    x_out = cluster.b4.x + G0 * (c1.x + params.s0) + g2 * cluster.b2.x
    y_out = cluster.b4.y + G1 * (c2.y - params.s1) + g3 * cluster.b3.y
    return _result(r, {"out": ModePair(x=x_out, y=y_out)}, {"g2": g2, "g3": g3})


def min_distinguishable_displacement(
    r: float,
    var_x: float = 1.0,
    var_y: float = 1.0,
    criterion: int = 99,
) -> tuple[float, float]:
    """Smallest displacements resolvable against the output noise.

    Two output distributions are called distinct when their means differ by
    ``k`` output standard deviations (k=3 for the 99% criterion, k=2 for
    95%), so ``s_min = (k/sqrt(2)) * sigma_out`` with the optimal-gain
    output variance.
    """
    _check_r(r)
    _check_variance("var_x", var_x)
    _check_variance("var_y", var_y)
    try:
        k = CRITERION_SIGMAS[criterion]
    except KeyError:
        raise ValueError("criterion must be 95 or 99") from None
    added = optimal_displacement_variance(r, 0.0)
    s0 = k / math.sqrt(2.0) * math.sqrt(added + var_x)
    s1 = k / math.sqrt(2.0) * math.sqrt(added + var_y)
    return s0, s1


def fidelity_from_variances(var_x: float, var_y: float) -> float:
    """Overlap fidelity of a unit-gain Gaussian channel for coherent inputs."""
    _check_variance("var_x", var_x)
    _check_variance("var_y", var_y)
    return 2.0 / math.sqrt((1.0 + var_x) * (1.0 + var_y))


def identity_fidelity(r: float) -> float:
    """Best-case fidelity of propagating a coherent state through the gate.

    Uses the optimal-gain output variances with a coherent input; 0.5 at
    r=0 (the classical bound) and -> 1 with increasing squeezing.
    """
    v = optimal_displacement_variance(r, 1.0)
    return fidelity_from_variances(v, v)


# --------------------------------------------------------------------------
# squeezing gate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SqueezerParams:
    """Squeezing gate settings.

    ``theta`` is the detection angle of the first homodyne detector; the
    gate squeezes by ``-tan(theta)`` with rescale ``cos(theta)``. The other
    fields describe the Gaussian input signal.
    """

    theta: float = 0.0
    mean_x: float = 0.0
    mean_y: float = 0.0
    var_x: float = 1.0
    var_y: float = 1.0

    def __post_init__(self) -> None:
        _check_variance("var_x", self.var_x)
        _check_variance("var_y", self.var_y)
        for name in ("theta", "mean_x", "mean_y"):
            _check_finite(name, getattr(self, name))
        if abs(math.cos(self.theta)) <= 1e-9:
            raise ValueError("theta too close to pi/2: rescale 1/cos(theta) diverges")

    @property
    def tan_theta(self) -> float:
        return math.tan(self.theta)

    @classmethod
    def from_tan(cls, tan_theta: float, **kwargs: float) -> "SqueezerParams":
        return cls(theta=math.atan(tan_theta), **kwargs)


def squeezer_gate(params: SqueezerParams, r: float) -> GateResult:
    """Apply the tunable squeezing gate to the input signal.

    The input couples to b1 as in the displacement gate. The first detector
    measures the c1 quadrature rotated by theta and feeds forward with gain
    sqrt(2)/cos(theta); the second measures the c2 phase and feeds forward
    with gains -sqrt(2)*tan(theta) onto the amplitude and -sqrt(2) onto the
    phase; b2 and b3 are added at unit gain. The output amplitude keeps a
    ``+2 tan(theta)`` cross-coupling from the input phase (recorded in
    ``meta["cross_coefficient"]``), which shears the output:
    ``stats["out"].cov_xy`` is ``2 tan(theta) var_y``.
    """
    tan_t = params.tan_theta
    cluster, [(c1, c2)] = _couple(
        r, ("b1", "in", params.mean_x, params.mean_y, params.var_x, params.var_y)
    )
    hd1 = rotate_quadrature(c1, params.theta)
    x_out = (
        cluster.b4.x
        + (G0 / math.cos(params.theta)) * hd1
        + cluster.b2.x
        - G0 * tan_t * c2.y
    )
    y_out = cluster.b4.y - G0 * c2.y + cluster.b3.y
    return _result(r, {"out": ModePair(x=x_out, y=y_out)}, {
        "theta": params.theta, "tan_theta": tan_t, "rescale": math.cos(params.theta),
        "squeeze_parameter": -tan_t, "cross_coefficient": x_out.coefficient("in", "y"),
    })


def rotated_output_variance(params: SqueezerParams, r: float, phi: float) -> float:
    """Variance of the squeezer output quadrature rotated by phi.

    ``3 e^{-2r} + cos^2(phi) var_x + (2 tan(theta) cos(phi) + sin(phi))^2
    var_y``; pi-periodic in phi.
    """
    return rotated_output_variances(params, r, (phi,))[0]


def rotated_output_variances(params: SqueezerParams, r: float,
                             phis: Iterable[float]) -> list[float]:
    """:func:`rotated_output_variance` at each phi, with r checked and the
    phi-free terms computed once."""
    _check_r(r)
    noise, t2 = 3.0 * math.exp(-2.0 * r), 2.0 * params.tan_theta
    vx, vy = params.var_x, params.var_y
    return [noise + c * c * vx + (t2 * c + s) ** 2 * vy
            for c, s in ((math.cos(phi), math.sin(phi)) for phi in phis)]


def _phi_noise(phi: float, tan_theta: float) -> float:
    # coherent-input part of the rotated variance
    c = math.cos(phi)
    s = math.sin(phi)
    return c * c + (2.0 * tan_theta * c + s) ** 2


def _squeezing_tan(theta: float) -> float:
    t = math.tan(theta)
    if abs(t) < 1e-12:
        raise ValueError("tan(theta)=0: variance is flat, no squeezing direction")
    return t


def optimal_detection_angle(theta: float) -> tuple[float, float]:
    """Angle minimizing the rotated output variance, and its noise floor.

    Solves ``tan(2 phi) tan(theta) = 1`` and picks the minimizing branch in
    [0, pi). Returns ``(phi_opt, 1/tan(phi_opt)^2)``; the second value is
    the coherent-input noise at phi_opt, below 1 whenever tan(theta) != 0.
    """
    t = _squeezing_tan(theta)
    double = math.atan2(1.0, t)
    candidates = (0.5 * double, 0.5 * (double + math.pi))
    phi = min(candidates, key=lambda p: _phi_noise(p, t))
    return phi, math.tan(phi) ** -2


def squeezing_threshold(theta: float) -> float:
    """Squeezing needed before the optimal output quadrature beats shot noise.

    Solves ``3 e^{-2r} + noise_floor = 1`` for the coherent-input minimum
    variance: ``r* = ln(3 / (1 - noise_floor)) / 2``. Since ``1 -
    noise_floor = 2|t| / (sqrt(1 + t^2) + |t|)`` with t = tan(theta), this
    is ``r* = ln(1.5 (1 + sqrt(1 + t^-2))) / 2``, which does not cancel as
    t -> 0. Raises for tan(theta)=0, where the output never drops below
    shot noise.
    """
    t = _squeezing_tan(theta)
    return 0.5 * math.log(1.5 * (1.0 + math.sqrt(1.0 + t ** -2)))


# --------------------------------------------------------------------------
# controlled-X gate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CxParams:
    """Controlled-X gate settings.

    ``s_c``/``s_t`` are the control and target amplitude means; the four
    variances describe the two Gaussian inputs (phase means are zero).
    """

    s_c: float = 0.0
    s_t: float = 0.0
    var_cx: float = 1.0
    var_cy: float = 1.0
    var_tx: float = 1.0
    var_ty: float = 1.0

    def __post_init__(self) -> None:
        for name in ("var_cx", "var_cy", "var_tx", "var_ty"):
            _check_variance(name, getattr(self, name))
        for name in ("s_c", "s_t"):
            _check_finite(name, getattr(self, name))


def controlled_x_gate(params: CxParams, r: float) -> GateResult:
    """Two-mode controlled-X: the target amplitude acquires -s_c.

    The target couples to b2 and the control to b3 on 50:50 splitters. Four
    detectors measure the split amplitudes and phases; feedforward with
    gains +/- sqrt(2) writes the target output onto b1 and the control
    output onto b4. Output moments: target mean (s_t - s_c, 0), variances
    ``(3e^{-2r} + var_cx + var_tx, 2e^{-2r} + var_ty)``; control mean
    (s_c, 0), variances ``(2e^{-2r} + var_cx, 3e^{-2r} + var_cy + var_ty)``.
    """
    cluster, [(t1, t2), (c2, c1)] = _couple(
        r,
        ("b2", "t", params.s_t, 0.0, params.var_tx, params.var_ty),
        ("b3", "c", params.s_c, 0.0, params.var_cx, params.var_cy),
    )
    target = ModePair(
        x=cluster.b1.x + CX_GAIN * t1.x + CX_GAIN * c1.x,
        y=cluster.b1.y - CX_GAIN * t2.y,
    )
    control = ModePair(
        x=cluster.b4.x - CX_GAIN * c1.x,
        y=cluster.b4.y - CX_GAIN * t2.y + CX_GAIN * c2.y,
    )
    return _result(r, {"target": target, "control": control}, {})


def cx_output_moments(params: CxParams, r: float) -> dict[str, ModeStats]:
    """Closed-form output moments of the controlled-X gate."""
    _check_r(r)
    down = math.exp(-2.0 * r)
    return {
        "target": ModeStats(
            mean_x=params.s_t - params.s_c,
            mean_y=0.0,
            var_x=3.0 * down + params.var_cx + params.var_tx,
            var_y=2.0 * down + params.var_ty,
            cov_xy=0.0,
        ),
        "control": ModeStats(
            mean_x=params.s_c,
            mean_y=0.0,
            var_x=2.0 * down + params.var_cx,
            var_y=3.0 * down + params.var_cy + params.var_ty,
            cov_xy=0.0,
        ),
    }
