"""Gaussian state analysis and the reference curve/surface datasets.

Wigner functions are evaluated on rectangular phase-space grids from a
mode's :class:`~cvcluster.gates.ModeStats` record. The ``fig*_dataset``
builders assemble the exact datasets behind the package's reference figures,
each a :class:`~cvcluster.io.CurveDataset`:

* fig3: minimum distinguishable displacements over (r, r') for squeezed
  inputs with variance ``e^{-2r'}`` in the displaced quadrature;
* fig4: coherent-state propagation fidelity versus r;
* fig5: squeezer output variance versus detection angle phi for several
  ``tan(theta)`` at fixed r;
* fig6: the same versus phi for several r at fixed ``tan(theta)``, with a
  shot-noise reference column;
* fig8: Wigner grids of the controlled-X inputs and outputs.

All builders are deterministic functions of their arguments.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

import numpy as np

from .gates import (
    CxParams,
    ModeStats,
    SqueezerParams,
    cx_output_moments,
    identity_fidelity,
    min_distinguishable_displacement,
    rotated_output_variances,
)
from .io import CurveDataset


def wigner(moments: ModeStats, x_grid: np.ndarray, y_grid: np.ndarray) -> np.ndarray:
    """Wigner function on the outer product of two strictly increasing grids.

    Returns ``W[i, j] = W(x_grid[i], y_grid[j])`` with the normalization
    ``W = exp(-(v-mu)^T cov^{-1} (v-mu) / 2) / (2 pi sqrt(det cov))``, so a
    vacuum state peaks at ``1/(2 pi)`` and the grid integral is 1. Raises
    ``ValueError`` unless the covariance is positive definite, and
    ``OverflowError`` when the quadratic form overflows on the grid, instead
    of returning zeros there. The quadratic form, its ``exp`` and the
    normalization are computed in place in the one returned array, with the
    float operations of ``exp(-0.5 * quad) / (2 pi sqrt(det))`` in its order.
    The last bits of the values still follow numpy's ``exp``, whose SIMD
    kernel is chosen per CPU at import, so they can differ between hosts.
    """
    x = np.asarray(x_grid, dtype=float)
    y = np.asarray(y_grid, dtype=float)
    for name, g in (("x_grid", x), ("y_grid", y)):
        if g.ndim != 1 or g.size < 1:
            raise ValueError(f"{name} must be a non-empty 1-d array")
        if g.size > 1 and not np.all(np.diff(g) > 0):
            raise ValueError(f"{name} must be strictly increasing")
    det = moments.var_x * moments.var_y - moments.cov_xy * moments.cov_xy
    if not (moments.var_x > 0 and det > 0):
        raise ValueError("covariance must be positive definite")
    inv00 = moments.var_y / det
    inv11 = moments.var_x / det
    inv01 = -moments.cov_xy / det
    with np.errstate(over="ignore", invalid="ignore"):
        dx = (x - moments.mean_x)[:, None]
        dy = (y - moments.mean_y)[None, :]
        w = 2.0 * inv01 * dx * dy  # the quadratic form, then W, in this one buffer
        np.add(inv00 * dx * dx, w, out=w)
        w += inv11 * dy * dy
    if not np.all(np.isfinite(w)):
        raise OverflowError("Wigner quadratic form is not finite")
    w *= -0.5
    np.exp(w, out=w)
    w /= 2.0 * math.pi * math.sqrt(det)
    return w


def _as_grid(name: str, grid: Iterable[float]) -> np.ndarray:
    arr = np.asarray(list(grid), dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def fig3_dataset(
    r_grid: Iterable[float],
    rprime_grid: Iterable[float],
    criterion: int = 99,
) -> CurveDataset:
    """Minimum distinguishable displacement surface over (r, r').

    The input is squeezed by r' in the displaced quadrature, so each
    surface uses input variance ``e^{-2r'}``. Rows are emitted row-major
    with r as the outer loop.
    """
    rs = _as_grid("r_grid", r_grid)
    rps = _as_grid("rprime_grid", rprime_grid)
    rows = []
    for r in rs:
        for rp in rps:
            v_in = math.exp(-2.0 * rp)
            s0, s1 = min_distinguishable_displacement(r, v_in, v_in, criterion)
            rows.append((r, rp, s0, s1))
    return CurveDataset(
        tag="fig3",
        columns=("r", "r_prime", "s0_min", "s1_min"),
        values=np.array(rows),
        meta={"criterion": criterion,
              "r_grid": [float(rs[0]), float(rs[-1]), int(rs.size)],
              "rprime_grid": [float(rps[0]), float(rps[-1]), int(rps.size)]},
    )


def fig4_dataset(r_grid: Iterable[float]) -> CurveDataset:
    """Coherent-state propagation fidelity versus squeezing."""
    rs = _as_grid("r_grid", r_grid)
    rows = [(r, identity_fidelity(r)) for r in rs]
    return CurveDataset(
        tag="fig4",
        columns=("r", "fidelity"),
        values=np.array(rows),
        meta={"input": "coherent", "gains": "optimal"},
    )


def _label(value: float) -> str:
    return format(value, "g")


def _phi_curves(
    tag: str, phi_grid: Iterable[float], key: str, values: Iterable[float], column: str,
    curve: Callable[[float], tuple[SqueezerParams, float]], meta: dict, snl: bool = False,
) -> CurveDataset:
    """Squeezer output variance versus phi, one column per entry of ``values``.

    ``curve(value)`` gives a column's (params, r); ``snl`` adds shot noise.
    """
    phis = _as_grid("phi_grid", phi_grid)
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError(f"{key} must be non-empty")
    grid, params = phis.tolist(), [curve(v) for v in vals]
    curves = [rotated_output_variances(p, r, grid) for p, r in params]
    names = [f"{column}_{_label(v)}" for v in vals] + ["snl"] * snl
    return CurveDataset(tag=tag, columns=("phi", *names),
                        values=np.column_stack([phis, *curves] + [np.ones_like(phis)] * snl),
                        meta={**meta, key: vals, "input": "coherent"})


def fig5_dataset(
    phi_grid: Iterable[float],
    tan_thetas: Iterable[float] = (0.0, 1.0, 2.0, 5.0),
    r: float = 2.0,
) -> CurveDataset:
    """Squeezer output variance versus phi for several tan(theta)."""
    return _phi_curves("fig5", phi_grid, "tan_thetas", tan_thetas, "v_tantheta",
                       lambda t: (SqueezerParams.from_tan(t), r), {"r": r})


def fig6_dataset(
    phi_grid: Iterable[float],
    r_values: Iterable[float] = (0.3, 0.55, 0.6, 1.15),
    tan_theta: float = 2.0,
) -> CurveDataset:
    """Squeezer output variance versus phi for several r, plus shot noise."""
    return _phi_curves("fig6", phi_grid, "r_values", r_values, "v_r",
                       lambda r: (SqueezerParams.from_tan(tan_theta), r),
                       {"tan_theta": tan_theta}, snl=True)


def _centered_grid(mean: float, var: float, points: int, span: float) -> np.ndarray:
    half = span * math.sqrt(var)
    if not math.isfinite((mean + half) - (mean - half)):
        raise OverflowError("Wigner grid width is not finite")
    return np.linspace(mean - half, mean + half, points)


def _wigner_panel(
    name: str, moments: ModeStats, points: int, span: float, extra_meta: dict
) -> Callable[[], CurveDataset]:
    """The panel's builder, once its grids increase and its Wigner function stays finite."""
    x = _centered_grid(moments.mean_x, moments.var_x, points, span)
    y = _centered_grid(moments.mean_y, moments.var_y, points, span)
    for xs, ys in ((x, y[[0, -1]]), (x[[0, -1]], y)):  # whole axes; the form peaks at corners
        wigner(moments, xs, ys)
    meta = {
        "panel": name,
        "mean": [float(moments.mean_x), float(moments.mean_y)],
        "var": [moments.var_x, moments.var_y],
        "grid_points": points,
        "span_sigmas": span,
        **extra_meta,
    }

    def build() -> CurveDataset:
        return CurveDataset(tag="fig8", columns=("x", "y", "w"), meta=meta,
                            arrays=(x[:, None], y[None, :], wigner(moments, x, y)))

    return build


def _fig8_panels(
    r_values: Iterable[float] = (1.0, 3.0), grid_points: int = 201, span: float = 5.0,
    caption_reading: str = "stddev", s_c: float = 1.0, s_t: float = 2.0,
) -> dict[str, Callable[[], CurveDataset]]:
    """:func:`fig8_dataset`'s panels as builders, every panel checked before any is built."""
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if span <= 0:
        raise ValueError("span must be > 0")
    if caption_reading == "stddev":
        vx, vy = math.exp(-2.0), math.exp(2.0)
    elif caption_reading == "variance":
        vx, vy = math.exp(-1.0), math.exp(1.0)
    else:
        raise ValueError("caption_reading must be 'stddev' or 'variance'")
    rs = [float(r) for r in r_values]
    if not rs:
        raise ValueError("r_values must be non-empty")
    if len({_label(r) for r in rs}) < len(rs):
        raise ValueError("r_values must differ in their panel labels (format 'g')")
    common = {"caption_reading": caption_reading, "s_c": s_c, "s_t": s_t}
    panels = {}
    for name, mean in (("input_control", s_c), ("input_target", s_t)):
        panels[name] = _wigner_panel(name, ModeStats(mean, 0.0, vx, vy, 0.0), grid_points,
                                     span, common)
    params = CxParams(s_c=s_c, s_t=s_t, var_cx=vx, var_cy=vy, var_tx=vx, var_ty=vy)
    for r in rs:
        moments = cx_output_moments(params, r)
        for mode in ("control", "target"):
            name = f"output_{mode}_r{_label(r)}"
            panels[name] = _wigner_panel(name, moments[mode], grid_points, span,
                                         dict(common, r=r))
    return panels


def fig8_dataset(
    r_values: Iterable[float] = (1.0, 3.0),
    grid_points: int = 201,
    span: float = 5.0,
    caption_reading: str = "stddev",
    s_c: float = 1.0,
    s_t: float = 2.0,
) -> Mapping[str, CurveDataset]:
    """Wigner grids of the controlled-X inputs and outputs.

    Inputs are amplitude-squeezed states displaced to ``s_c``/``s_t``. Their
    quoted spreads ``e^{-1}``/``e`` are read as standard deviations by
    default (variances ``e^{-2}``/``e^{2}``); pass
    ``caption_reading="variance"`` for the literal-variance reading. One
    panel per input plus control/target outputs at each r, every grid
    centered on its mean and spanning ``span`` standard deviations.
    """
    panels = _fig8_panels(r_values, grid_points, span, caption_reading, s_c, s_t)
    return {name: build() for name, build in panels.items()}
