"""Covariance-matrix route: the reference the tests check the algebra against.

Not part of the package. The route pushes the 8x8 source covariance matrix
through the preparation network as explicit symplectic matrices (Weedbrook
et al., Rev. Mod. Phys. 84, 621 (2012)). It states the network, the source
kinds, the slot map and the nullifiers itself, and builds each splitter from
its generators with a matrix exponential, so it shares no table and no
splitter with :func:`cvcluster.build_cluster`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from cvcluster.algebra import Axis, SeedKind, squeezed_variance

#: Source kinds of slots 0..3, which hold a1..a4 before the network runs.
SOURCE_KINDS = (
    SeedKind.PHASE_QUIET,
    SeedKind.AMPLITUDE_QUIET,
    SeedKind.AMPLITUDE_QUIET,
    SeedKind.PHASE_QUIET,
)

#: The preparation network as ``(slot_a, slot_b, transmittance, phase)``
#: splitters; the first output replaces ``slot_a``, the second ``slot_b``.
#: The 1:4 splitter leaves the bright arm in slot 1 and the dim arm in slot 2;
#: the 50:50 splitters then overwrite slots (1, 0) and (2, 3).
NETWORK = (
    (1, 2, 0.8, math.pi / 2),
    (1, 0, 0.5, 0.0),
    (2, 3, 0.5, math.pi / 2),
)

#: Which cluster mode each slot holds after the network runs.
SLOT_MODES = ("b2", "b1", "b3", "b4")

#: Nullifier coefficient rows over ``(x_slot0, y_slot0, ..., x_slot3, y_slot3)``:
#: b1.y - b2.y, b1.x + b2.x + b3.x, -b2.y + b3.y + b4.y and b3.x - b4.x.
NULLIFIER_ROWS = (
    (0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
    (1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0),
    (0.0, -1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0),
    (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0),
)

_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
#: Generator of the real orthogonal mixing of modes a and b on ``(a.x, a.y, b.x, b.y)``.
_MIX = np.kron(_J2, np.eye(2))
#: Generator of a phase-space rotation of mode b alone.
_ROTATE_B = np.kron(np.diag([0.0, 1.0]), -_J2)


def splitter_symplectic(transmittance: float, phase_diff: float) -> np.ndarray:
    """The 4x4 splitter map on ``(a.x, a.y, b.x, b.y)``, built from generators.

    Mode b is rotated by ``phase_diff``, the pair is mixed by the angle whose
    cosine is sqrt(transmittance), and the second output is rotated by pi,
    the sign the reflection gives it.
    """
    angle = math.atan2(math.sqrt(1.0 - transmittance), math.sqrt(transmittance))
    return expm(math.pi * _ROTATE_B) @ expm(angle * _MIX) @ expm(phase_diff * _ROTATE_B)


def beamsplitter_symplectic(step: tuple[int, int, float, float]) -> np.ndarray:
    """One :data:`NETWORK` splitter placed at its two slots of the 8-vector."""
    slot_a, slot_b, transmittance, phase_diff = step
    slots = [2 * slot_a, 2 * slot_a + 1, 2 * slot_b, 2 * slot_b + 1]
    mat = np.eye(2 * len(SOURCE_KINDS))
    mat[np.ix_(slots, slots)] = splitter_symplectic(transmittance, phase_diff)
    return mat


def covariance_propagate(
    network: Sequence[tuple[int, int, float, float] | np.ndarray],
    r: float,
) -> np.ndarray:
    """Push the diagonal source covariance (x before y per slot) through a network.

    Steps are :data:`NETWORK` splitters or raw 8x8 matrices, each checked
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
