"""Covariance-matrix route: the reference the tests check the algebra against.

Not part of the package. The route pushes the 8x8 source covariance matrix
through the preparation network as explicit symplectic matrices (Weedbrook
et al., Rev. Mod. Phys. 84, 621 (2012)). It shares
:func:`~cvcluster.algebra.splitter_matrix` with the expression algebra, so it
checks the algebra's moment sums but not the splitter itself; the
hand-derived cluster coefficients (``CLUSTER_COEFFS`` in ``test_cluster.py``)
and the Monte-Carlo route anchor that.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from cvcluster.algebra import Axis, splitter_matrix, squeezed_variance
from cvcluster.cluster import NULLIFIER_TERMS, SLOT_MODES, SOURCE_KINDS, BeamsplitterSpec

_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def beamsplitter_symplectic(spec: BeamsplitterSpec) -> np.ndarray:
    """The splitter block placed at the spec's two slots of the 8-vector."""
    slots = [2 * spec.mode_a, 2 * spec.mode_a + 1, 2 * spec.mode_b, 2 * spec.mode_b + 1]
    mat = np.eye(2 * len(SOURCE_KINDS))
    mat[np.ix_(slots, slots)] = splitter_matrix(spec.transmittance, spec.phase_diff)
    return mat


def covariance_propagate(
    network: Sequence[BeamsplitterSpec | np.ndarray],
    r: float,
) -> np.ndarray:
    """Push the diagonal source covariance (x before y per slot) through a network.

    Steps are :class:`BeamsplitterSpec` or raw 8x8 matrices, each checked
    against the symplectic form first. ``squeezed_variance`` rejects r < 0.
    """
    diag = []
    for kind in SOURCE_KINDS:
        diag.append(squeezed_variance(kind, Axis.X, r))
        diag.append(squeezed_variance(kind, Axis.Y, r))
    sigma = np.diag(diag)
    j = np.kron(np.eye(len(SOURCE_KINDS)), _J2)
    for step in network:
        mat = step if isinstance(step, np.ndarray) else beamsplitter_symplectic(step)
        if mat.shape != sigma.shape:
            raise ValueError("transform has wrong shape")
        if not np.allclose(mat @ j @ mat.T, j, atol=1e-9):
            raise ValueError("non-symplectic transform supplied")
        sigma = mat @ sigma @ mat.T
    return sigma


def nullifier_slot_vectors() -> np.ndarray:
    """Nullifier coefficient rows over ``(x_slot0, y_slot0, ..., y_slot3)``."""
    slot_of = {name: i for i, name in enumerate(SLOT_MODES)}
    rows = np.zeros((len(NULLIFIER_TERMS), 8))
    for i, combo in enumerate(NULLIFIER_TERMS):
        for name, axis, sign in combo:
            offset = 0 if axis is Axis.X else 1
            rows[i, 2 * slot_of[name] + offset] = sign
    return rows
