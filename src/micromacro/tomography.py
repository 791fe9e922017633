"""Tomography simulation and maximum-likelihood reconstruction.

The default scheme measures 6 analyzer states per side (H, V, D, A, R, L),
i.e. 36 setting pairs with four +-1 x +-1 outcomes each — an overcomplete,
informationally complete set for two qubits.

The reconstruction uses numpy alone: fixed-point steps rho <- R rho R
(Rehacek et al., PRA 75, 042108 (2007)) from I/4, then Newton steps on the
factor T of rho = T T^dag / tr(T T^dag), each kept only if
tr(R(rho_new) (rho_new - rho)) > 0, which by concavity proves ascent.  The
result is certified by max(lambda_max(R) - 1, max|R rho - rho|) <= GRAD_TOL,
an upper bound on the per-shot log-likelihood gap to the maximum.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .polarization import TwoQubitDensity

_S2 = 1 / np.sqrt(2)
ANALYZER_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([_S2, _S2], dtype=complex),
    "A": np.array([_S2, -_S2], dtype=complex),
    "R": np.array([_S2, 1j * _S2], dtype=complex),
    "L": np.array([_S2, -1j * _S2], dtype=complex),
}

DEFAULT_SETTING_PAIRS = tuple(
    (a, b) for a in "HVDARL" for b in "HVDARL"
)


class RankDeficiencyError(ValueError):
    """The record does not determine the state (under-complete settings)."""


class ConvergenceError(RuntimeError):
    """Likelihood ascent hit the iteration cap before reaching the gradient target."""


@dataclass(frozen=True)
class TomographyRecord:
    """Counts for each setting pair.

    ``counts[k]`` is a 2x2 array for setting pair ``pairs[k]``, indexed by
    (outcome on side A, outcome on side B) with 0 = +1 (projection onto the
    analyzer ket) and 1 = -1 (orthogonal port).
    """

    pairs: tuple
    counts: np.ndarray
    shots_per_pair: int

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.shape != (len(self.pairs), 2, 2):
            raise ValueError("counts must have shape (n_pairs, 2, 2)")
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")
        if np.any(c.sum(axis=(1, 2)) != self.shots_per_pair):
            raise ValueError("each pair's counts must sum to shots_per_pair")
        object.__setattr__(self, "counts", c)


def _outcome_projectors(label: str):
    ket = ANALYZER_KETS[label]
    p = np.outer(ket, ket.conj())
    return p, np.eye(2) - p


@cache
def _projector_stack(pairs: tuple) -> np.ndarray:
    """Outcome projectors of the setting pairs, four per pair in the order
    (+,+), (+,-), (-,+), (-,-); shape (4 * len(pairs), 4, 4), read-only."""
    stack = np.stack([np.kron(ka, kb) for a, b in pairs
                      for ka in _outcome_projectors(a)
                      for kb in _outcome_projectors(b)])
    stack.flags.writeable = False
    return stack


def born_probabilities(rho: TwoQubitDensity, pair) -> np.ndarray:
    """2x2 outcome probabilities for one setting pair."""
    q = np.array([np.real(np.trace(rho.matrix @ pi))
                  for pi in _projector_stack((tuple(pair),))])
    q = np.clip(q, 0.0, None)
    return (q / q.sum()).reshape(2, 2)


def simulate_tomography(rho: TwoQubitDensity, setting_pairs=DEFAULT_SETTING_PAIRS,
                        shots: int = 10_000, rng_seed: int = 0) -> TomographyRecord:
    """Multinomial outcome counts per setting pair, reproducible for a seed.

    Each pair draws from its own generator spawned off the master seed, so
    results do not depend on evaluation order.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    streams = np.random.SeedSequence(rng_seed).spawn(len(setting_pairs))
    counts = np.empty((len(setting_pairs), 2, 2), dtype=np.int64)
    for k, (pair, ss) in enumerate(zip(setting_pairs, streams)):
        q = born_probabilities(rho, pair).reshape(-1)
        rng = np.random.default_rng(ss)
        counts[k] = rng.multinomial(shots, q).reshape(2, 2)
    return TomographyRecord(tuple(setting_pairs), counts, shots)


#: plain R rho R steps from I/4 before the first Newton step
WARMUP_STEPS = 30
#: halvings of a Newton step before an R rho R step replaces it
MAX_HALVINGS = 10
#: steps in all before ConvergenceError
MAX_STEPS = 4000
#: certificate bound on the per-shot log-likelihood gap to the maximum
GRAD_TOL = 1e-9


def _real(m: np.ndarray) -> np.ndarray:
    """Complex (..., 4, 4) -> real (..., 32): real parts, then imaginary parts."""
    flat = m.reshape(*m.shape[:-2], 16)
    return np.concatenate([flat.real, flat.imag], axis=-1)


def reconstruct_mle(record: TomographyRecord) -> TwoQubitDensity:
    """Maximum-likelihood state estimate, constrained PSD/unit-trace.

    rho = T T^dag / tr(T T^dag) with T a full complex 4x4 factor, so the
    constraints hold by construction and the support is free to rotate.
    After WARMUP_STEPS steps rho <- R rho R / tr from I/4, each step is a
    Newton step on the 32 real entries of T, restricted to the Hessian's
    eigen-directions of curvature below -1e-10 max|eig|, where the quadratic
    model has a maximum (the scale T -> c T is flat).  The step is kept only
    if every observed outcome keeps q > 0 and tr(R(rho_new) (rho_new - rho))
    > 0: the log-likelihood is concave on the segment from rho to rho_new,
    so the step ascends, and no two likelihood values, which sit below float
    resolution near the optimum, are compared.  Otherwise it is halved, up
    to MAX_HALVINGS times, and then replaced by an R rho R step.  Every
    second step checks the certificate max(lambda_max(R) - 1, max|R rho -
    rho|), with R = sum_k (c_k / q_k) Pi_k / N, which bounds the per-shot
    log-likelihood gap to the maximum; ConvergenceError is raised if it is
    still above GRAD_TOL after MAX_STEPS steps in all.
    """
    if np.any(record.counts.sum(axis=(1, 2)) == 0):
        raise RankDeficiencyError("a setting pair has no counts at all")
    pis = _projector_stack(tuple(map(tuple, record.pairs)))
    # informational completeness: the projectors must span all 16 operator dims
    rank = np.linalg.matrix_rank(pis.reshape(len(pis), 16), tol=1e-9)
    if rank < 16:
        raise RankDeficiencyError(f"projector set spans {rank} < 16 dims")
    counts = record.counts.reshape(-1)
    seen = counts > 0                    # unobserved outcomes add nothing to the likelihood
    pis = pis[seen]
    freqs = counts[seen] / counts.sum()
    rows = pis.reshape(len(pis), 16).conj()
    eye = np.eye(4)

    def born(t):                         # q_k = tr(Pi_k T T^dag) for tr(T T^dag) = 1
        return np.real(rows @ (t @ t.conj().T).ravel())

    def unit(t):
        return t / np.linalg.norm(t)

    t = eye / 2
    q = born(t)
    gap = np.inf
    for step in range(MAX_STEPS):
        r_op = np.tensordot(freqs / q, pis, 1)
        if step >= WARMUP_STEPS and step % 2 == 0:
            rho = t @ t.conj().T
            gap = max(np.linalg.eigvalsh(r_op)[-1] - 1.0, np.max(np.abs(r_op @ rho - rho)))
            if gap <= GRAD_TOL:
                break
        t_next = unit(r_op @ t)
        if step >= WARMUP_STEPS:
            # gradient and Hessian of the per-shot log-likelihood in T
            a = r_op - eye
            hess = 2 * np.block([[np.kron(a.real, eye), -np.kron(a.imag, eye)],
                                 [np.kron(a.imag, eye), np.kron(a.real, eye)]])
            jac = 2 * _real(pis @ t)     # d q_k / d T
            hess -= jac.T @ (jac * (freqs / q ** 2)[:, None])
            hess += 4 * np.outer(_real(t), _real(t))
            lam, vec = np.linalg.eigh(hess)
            up = lam < -1e-10 * np.max(np.abs(lam))
            x = -vec[:, up] @ ((vec[:, up].T @ _real(2 * a @ t)) / lam[up])
            dt = (x[:16] + 1j * x[16:]).reshape(4, 4)
            for _ in range(MAX_HALVINGS):
                t_new = unit(t + dt)
                q_new = born(t_new)
                # freqs @ (dq / q_new) = tr(R(rho_new) (rho_new - rho)); strict,
                # so that a zero step (no direction to ascend) is not taken
                if np.all(q_new > 0) and freqs @ ((q_new - q) / q_new) > 0:
                    t_next = t_new
                    break
                dt = dt / 2
        t = t_next
        q = born(t)
    else:
        raise ConvergenceError(
            f"optimality residual {gap:.3g} > {GRAD_TOL} after {MAX_STEPS} steps")
    rho = t @ t.conj().T
    rho = (rho + rho.conj().T) / 2
    return TwoQubitDensity(rho / np.real(np.trace(rho)))
