"""Two-qubit polarization states and entanglement witnesses.

Basis order is |HH>, |HV>, |VH>, |VV>.  Analyzer settings are angles in the
linear-polarization (equatorial) plane; the +-1 observable of a setting theta
is ``cos(2 theta) sigma_z + sin(2 theta) sigma_x``.
"""
from __future__ import annotations

import math

import numpy as np

from .ranges import UNIT

#: numerical tolerance for unitarity / hermiticity / eigenvalue checks
TAU_NUM = 1e-10
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def check_density_matrix(m: np.ndarray) -> None:
    """Raise ValueError unless m is Hermitian, PSD and of unit trace, each
    within TAU_NUM."""
    herm = np.max(np.abs(m - m.conj().T))
    if herm > TAU_NUM:
        raise ValueError(f"not Hermitian: max asymmetry {herm:.3g}")
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > TAU_NUM:
        raise ValueError(f"trace {tr:.12g} not within {TAU_NUM} of 1")
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -TAU_NUM:
        raise ValueError(f"negative eigenvalue {lo:.3g}")


class TwoQubitDensity:
    """4x4 polarization density matrix (Hermitian, unit trace, PSD)."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.shape != (4, 4):
            raise ValueError("expected a 4x4 matrix")
        check_density_matrix(self.matrix)


#: lab analyzer settings (a1, a2, b1, b2) of the CHSH test, in degrees; optimal
#: for the |HH> + |VV> Bell state
CHSH_SETTINGS_DEG = (45.0, 0.0, 22.5, 67.5)
CHSH_SETTINGS = tuple(math.radians(d) for d in CHSH_SETTINGS_DEG)


def observable(theta: float) -> np.ndarray:
    return math.cos(2 * theta) * SIGMA_Z + math.sin(2 * theta) * SIGMA_X


def bell_state() -> TwoQubitDensity:
    """Projector onto (|HH> + |VV>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return TwoQubitDensity(np.outer(v, v.conj()))


def werner_state(w: float) -> TwoQubitDensity:
    """w |psi><psi| + (1 - w) I/4 with |psi> the Bell state above."""
    UNIT.check(w, "w")
    return TwoQubitDensity(w * bell_state().matrix + (1.0 - w) * np.eye(4) / 4.0)


def correlator(rho: TwoQubitDensity, a: float, b: float) -> float:
    """E(a, b) = Tr[rho A(a) x B(b)] for +-1 equatorial observables."""
    ab = np.kron(observable(a), observable(b))
    return float(np.real(np.trace(rho.matrix @ ab)))


def chsh(corr) -> float:
    """S = |E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2)| at ``CHSH_SETTINGS``,
    with ``corr(a, b)`` the correlator E at analyzer angles in radians."""
    a1, a2, b1, b2 = CHSH_SETTINGS
    return abs(corr(a1, b1) + corr(a1, b2) + corr(a2, b1) - corr(a2, b2))


def correlation_matrix(rho: TwoQubitDensity) -> np.ndarray:
    """3x3 matrix t_ij = Tr[rho sigma_i x sigma_j], (x, y, z) order."""
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    t = np.empty((3, 3))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            t[i, j] = np.real(np.trace(rho.matrix @ np.kron(si, sj)))
    return t


def chsh_maximum(rho: TwoQubitDensity) -> float:
    """Largest attainable S over all settings: 2 sqrt(t1^2 + t2^2).

    t1 >= t2 are the two largest singular values of the correlation matrix.
    """
    sv = np.linalg.svd(correlation_matrix(rho), compute_uv=False)
    return 2.0 * math.sqrt(sv[0] ** 2 + sv[1] ** 2)


def ppt_min_eigenvalue(rho: TwoQubitDensity) -> float:
    """Minimum eigenvalue of the partial transpose over the second qubit."""
    r = rho.matrix.reshape(2, 2, 2, 2)
    pt = r.transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(pt)[0])


def concurrence(rho: TwoQubitDensity) -> float:
    """Wootters concurrence.

    Spin-flip rho~ = (sy x sy) rho* (sy x sy); with sqrt-eigenvalues of
    rho rho~ sorted decreasingly, C = max(0, l1 - l2 - l3 - l4).
    """
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    rho_tilde = yy @ rho.matrix.conj() @ yy
    ev = np.linalg.eigvals(rho.matrix @ rho_tilde)
    lam = np.sort(np.sqrt(np.clip(np.real(ev), 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def state_fidelity(rho: TwoQubitDensity, sigma: TwoQubitDensity) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    w, v = np.linalg.eigh(rho.matrix)
    sq = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sq @ sigma.matrix @ sq
    iw = np.linalg.eigvalsh(inner)
    return float(np.sum(np.sqrt(np.clip(iw, 0.0, None))) ** 2)

