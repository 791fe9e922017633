"""Tomography simulation and maximum-likelihood reconstruction.

The scheme measures 6 analyzer states per side (H, V, D, A, R, L), i.e.
36 setting pairs with four +-1 x +-1 outcomes each — an overcomplete,
informationally complete set for two qubits.

The reconstruction uses numpy alone: fixed-point steps rho <- R rho R
(Rehacek et al., PRA 75, 042108 (2007)) from I/4, then Newton steps on the
factor T of rho = T T^dag / tr(T T^dag), each kept only if
tr(R(rho_new) (rho_new - rho)) > 0, which by concavity proves ascent.  The
result is certified by max(lambda_max(R) - 1, max|R rho - rho|) <= GRAD_TOL,
an upper bound on the per-shot log-likelihood gap to the maximum.
"""
from __future__ import annotations

import numbers
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

SETTING_PAIRS = tuple((a, b) for a in "HVDARL" for b in "HVDARL")


class ConvergenceError(RuntimeError):
    """Likelihood ascent hit the iteration cap before reaching the gradient target."""


def _outcome_projectors(label: str):
    ket = ANALYZER_KETS[label]
    p = np.outer(ket, ket.conj())
    return p, np.eye(2) - p


@cache
def _projector_stack() -> np.ndarray:
    """Outcome projectors of SETTING_PAIRS, four per pair in the order
    (+,+), (+,-), (-,+), (-,-); shape (144, 4, 4), read-only, built on first use."""
    stack = np.stack([np.kron(ka, kb) for a, b in SETTING_PAIRS
                      for ka in _outcome_projectors(a)
                      for kb in _outcome_projectors(b)])
    stack.flags.writeable = False
    return stack


def _born_probabilities(rho: np.ndarray) -> np.ndarray:
    """tr(rho Pi) of every projector of ``_projector_stack``, clipped at 0,
    one row of four per setting pair: one stacked product and one batched
    trace, bit for bit the same operations as a loop over the projectors."""
    born = np.real(np.trace(rho @ _projector_stack(), axis1=1, axis2=2))
    return np.clip(born, 0.0, None).reshape(len(SETTING_PAIRS), 4)


def simulate_tomography(rho: TwoQubitDensity, shots: int = 10_000,
                        rng_seed: int = 0) -> np.ndarray:
    """Multinomial outcome counts per setting pair, reproducible for a seed.

    ``counts[k]`` is the 2x2 array of setting pair ``SETTING_PAIRS[k]``,
    indexed by (outcome on side A, outcome on side B) with 0 = +1 (projection
    onto the analyzer ket) and 1 = -1 (orthogonal port); shape (36, 2, 2).
    All 36 rows come from one ``multinomial`` draw on one generator seeded
    with ``rng_seed``.
    """
    if not (isinstance(shots, numbers.Integral) and shots >= 1):
        raise ValueError(f"shots={shots!r} must be an integer >= 1")
    q = _born_probabilities(rho.matrix)
    rng = np.random.default_rng(rng_seed)
    return rng.multinomial(shots, q / q.sum(axis=1, keepdims=True)).reshape(-1, 2, 2)


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


def reconstruct_mle(counts: np.ndarray) -> TwoQubitDensity:
    """Maximum-likelihood state estimate from the (36, 2, 2) counts of
    ``simulate_tomography``, constrained PSD/unit-trace.

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
    still above GRAD_TOL after MAX_STEPS steps in all.  Counts that are not
    finite non-negative integers with a positive total raise ValueError
    before any step.
    """
    if np.shape(counts) != (len(SETTING_PAIRS), 2, 2):
        raise ValueError(f"counts must have shape ({len(SETTING_PAIRS)}, 2, 2)")
    counts = np.reshape(counts, -1)
    if not np.all(np.isfinite(counts)):
        raise ValueError("counts must be finite")
    if np.any(counts < 0) or np.any(counts != np.round(counts)):
        raise ValueError("counts must be non-negative integers")
    total = counts.sum()
    if not total > 0:
        raise ValueError("counts must have a positive total")
    seen = counts > 0                    # unobserved outcomes add nothing to the likelihood
    pis = _projector_stack()[seen]
    freqs = counts[seen] / total
    flat = pis.reshape(len(pis), 16)
    rows = flat.conj()
    eye = np.eye(4)

    def born(t):                         # q_k = tr(Pi_k T T^dag) for tr(T T^dag) = 1
        return np.real(rows @ (t @ t.conj().T).ravel())

    def unit(t):
        return t / np.linalg.norm(t)

    t = eye / 2
    q = born(t)
    gap = np.inf
    for step in range(MAX_STEPS):
        r_op = np.dot((freqs / q)[None], flat).reshape(4, 4)  # np.tensordot's product
        if step >= WARMUP_STEPS and step % 2 == 0:
            rho = t @ t.conj().T
            gap = max(np.linalg.eigvalsh(r_op)[-1] - 1.0, np.max(np.abs(r_op @ rho - rho)))
            if gap <= GRAD_TOL:
                break
        t_next = unit(r_op @ t)
        if step >= WARMUP_STEPS:
            # gradient and Hessian of the per-shot log-likelihood in T
            a = r_op - eye
            hess = 2 * np.kron(np.block([[a.real, -a.imag], [a.imag, a.real]]), eye)
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
