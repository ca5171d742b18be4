"""Three routes to the same moments agree over the whole squeezing range.

The expression algebra, the closed forms and the covariance-matrix route are
compared on a fixed grid of r in [0, 50], where the anti-squeezed seeds
reach e^{100}: a coefficient residue that failed to cancel would show up
there long before it shows at the few r values of the golden transcripts.
"""

import math

import numpy as np
import pytest

from cvcluster import (
    CxParams,
    DisplacementParams,
    SqueezerParams,
    build_cluster,
    controlled_x_gate,
    cx_output_moments,
    displacement_gate,
    displacement_output_variance,
    optimal_displacement_variance,
    optimal_gain,
    rotate_quadrature,
    rotated_output_variance,
    squeezer_gate,
)
from cvcluster.algebra import splitter_matrix

from reference import NETWORK, SLOT_MODES, covariance_propagate, splitter_symplectic

R_GRID = np.linspace(0.0, 50.0, 51)
REL = 1e-12
STATS = ("mean_x", "mean_y", "var_x", "var_y")


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


@pytest.mark.parametrize("gain", [0.0, 0.3, 1.0, "optimal"])
@pytest.mark.parametrize("var_x,var_y", [(1.0, 1.0), (0.25, 3.0)])
def test_displacement_variance(gain, var_x, var_y):
    params = DisplacementParams(g2=gain, g3=gain, var_x=var_x, var_y=var_y)
    for r in R_GRID:
        stats = displacement_gate(params, r).stats["out"]
        g = optimal_gain(r) if gain == "optimal" else gain
        for got, v_in in ((stats.var_x, var_x), (stats.var_y, var_y)):
            wants = [displacement_output_variance(r, g, v_in)]
            if gain == "optimal":
                wants.append(optimal_displacement_variance(r, v_in))
            for want in wants:
                assert rel_err(got, want) <= REL, (r, got, want)


@pytest.mark.parametrize("tan_theta", [-2.0, 0.0, 0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("var_x,var_y", [(1.0, 1.0), (0.25, 3.0)])
def test_squeezer_rotated_variance(tan_theta, var_x, var_y):
    params = SqueezerParams.from_tan(tan_theta, var_x=var_x, var_y=var_y)
    for r in R_GRID:
        out = squeezer_gate(params, r).modes["out"]
        for phi in (0.0, 0.4, math.pi / 4, 1.2, math.pi / 2, 2.5):
            got = rotate_quadrature(out, phi).variance(r)
            want = rotated_output_variance(params, r, phi)
            assert rel_err(got, want) <= REL, (r, phi, got, want)


@pytest.mark.parametrize("params", [
    CxParams(),
    CxParams(s_c=1.0, s_t=2.0, var_cx=math.exp(-2.0), var_cy=math.exp(2.0),
             var_tx=math.exp(-2.0), var_ty=math.exp(2.0)),
    CxParams(s_c=-0.5, s_t=3.0, var_cx=0.3, var_cy=1.7, var_tx=2.2, var_ty=0.4),
])
def test_cx_moments(params):
    for r in R_GRID:
        stats = controlled_x_gate(params, r).stats
        for mode, want in cx_output_moments(params, r).items():
            for name in STATS:
                got, expected = getattr(stats[mode], name), getattr(want, name)
                assert rel_err(got, expected) <= REL, (r, mode, name, got, expected)


def test_covariance_route():
    cluster = build_cluster()
    modes = [getattr(cluster, name) for name in SLOT_MODES]
    quads = [q for mode in modes for q in (mode.x, mode.y)]
    for r in R_GRID:
        route = covariance_propagate(NETWORK, r)
        algebra = np.array([[a.covariance(b, r) for b in quads] for a in quads])
        scale = np.sqrt(np.outer(np.diag(algebra), np.diag(algebra)))
        worst = float(np.max(np.abs(route - algebra) / scale))
        assert worst <= REL, (r, worst)


@pytest.mark.parametrize("transmittance", [0.01, 0.2, 0.5, 0.8, 0.99])
def test_route_splitter_matches_algebra(transmittance):
    # the route builds its splitter from generators, the algebra writes it out
    for phase in np.linspace(-2.0 * math.pi, 2.0 * math.pi, 17):
        got = splitter_symplectic(transmittance, phase)
        want = np.array(splitter_matrix(transmittance, phase))
        assert np.max(np.abs(got - want)) <= 1e-12, (transmittance, phase)
