"""Truncated photon-number-space state algebra.

States live on one or more bosonic modes, each truncated at a caller-chosen
photon number ``n_max``.  The caller owns the truncation choice; constructors
validate the probability mass lost to the cutoff and fail loudly instead of
silently clipping tails.  Everything in this module is a pure function over
immutable values.

Displaced states have closed forms: D(alpha)|0> = |alpha> and
D(alpha)|1> = (a^dag - alpha*)|alpha>, whose amplitudes are
c_n (n/alpha - alpha*) with c_n those of |alpha>.  No model path builds a
displacement matrix; ``displacement_operator`` remains for the consistency
checks.  The Fock-space unitaries that are built (splitters, displacements)
come from one exponential of a skew-Hermitian generator, ``_expm_skew``,
which diagonalises it with ``eigh``; the module needs numpy only.

Beam-splitter sign convention (fixed once, used everywhere): a transmittance-T
splitter maps coherent amplitudes ``(a, b) -> (sqrt(T) a + sqrt(1-T) b,
-sqrt(1-T) a + sqrt(T) b)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

#: numerical tolerance for unitarity / hermiticity / eigenvalue checks
TAU_NUM = 1e-10
#: acceptable probability mass lost to photon-number truncation
TAU_TRUNC = 1e-8


class TruncationError(ValueError):
    """The requested state does not fit in the truncated space."""


@dataclass(frozen=True)
class TruncatedState:
    """Pure state on photon-number-truncated modes.

    ``amplitudes`` carries one axis per mode, every axis of length
    ``n_max + 1``.  Construction enforces that the squared norm is within
    ``TAU_TRUNC`` of one, so a norm deficit from an overly small ``n_max``
    surfaces immediately.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim < 1 or amp.shape[0] < 2:
            raise ValueError("truncation level n_max must be >= 1")
        if any(s != amp.shape[0] for s in amp.shape):
            raise ValueError("all modes must share one truncation level")
        object.__setattr__(self, "amplitudes", amp)
        nrm2 = float(np.sum(np.abs(amp) ** 2))
        if not (1.0 - TAU_TRUNC) <= nrm2 <= (1.0 + TAU_TRUNC):
            raise TruncationError(
                f"squared norm {nrm2:.12g} outside [1 - {TAU_TRUNC}, 1]; "
                "increase n_max or renormalize the input"
            )

    @property
    def n_max(self) -> int:
        return self.amplitudes.shape[0] - 1

    @property
    def n_modes(self) -> int:
        return self.amplitudes.ndim

    def density(self) -> "DensityOperator":
        v = self.amplitudes.reshape(-1)
        return DensityOperator(np.outer(v, v.conj()), self.n_max, self.n_modes)


def check_density_matrix(m: np.ndarray, trace_tol: float) -> None:
    """Raise ValueError unless m is Hermitian, PSD (both within TAU_NUM) and
    has unit trace within ``trace_tol``."""
    herm = np.max(np.abs(m - m.conj().T))
    if herm > TAU_NUM:
        raise ValueError(f"not Hermitian: max asymmetry {herm:.3g}")
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr:.12g} not within {trace_tol} of 1")
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -TAU_NUM:
        raise ValueError(f"negative eigenvalue {lo:.3g}")


class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator on the truncated space.

    For ``n_modes > 1`` the matrix acts on the flattened tensor basis in row-major
    mode order (last mode fastest).
    """

    def __init__(self, matrix, n_max: int, n_modes: int = 1, check: bool = True):
        self.matrix = np.asarray(matrix, dtype=complex)
        self.n_max = int(n_max)
        self.n_modes = int(n_modes)
        d = (self.n_max + 1) ** self.n_modes
        if self.matrix.shape != (d, d):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({d}, {d})")
        if check:
            self._validate()

    def _validate(self):
        check_density_matrix(self.matrix, TAU_TRUNC)

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()


@dataclass(frozen=True)
class ModeTransform:
    """Linear-optics transform: a k x k unitary acting on mode operators."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("mode matrix must be square")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if dev > TAU_NUM:
            raise ValueError(f"mode matrix not unitary: deviation {dev:.3g}")

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0]

    def apply_to_amplitudes(self, alphas) -> np.ndarray:
        """Image of coherent amplitudes under the transform."""
        return self.matrix @ np.asarray(alphas, dtype=complex)

    def fock_unitary(self, n_max: int) -> np.ndarray:
        """Unitary on the full truncated Fock space.

        Built as ``exp(sum_ij G_ij a_i^dag a_j)`` with ``G = log(S)`` taken
        from the eigendecomposition of S; the generator is skew-Hermitian
        even after truncation, so the result is exactly unitary
        (photon-number flow above n_max is reflected, not lost — callers
        keep support comfortably below the cutoff).
        """
        key = (self.matrix.tobytes(), n_max)
        cached = _FOCK_UNITARY_CACHE.get(key)
        if cached is not None:
            return cached
        k = self.n_modes
        phases, vecs = np.linalg.eig(self.matrix)
        gen_modes = (vecs * (1j * np.angle(phases))) @ np.linalg.inv(vecs)
        a = annihilation(n_max)
        d = n_max + 1
        eye = np.eye(d)
        gen = np.zeros((d**k, d**k), dtype=complex)
        for i in range(k):
            for j in range(k):
                if gen_modes[i, j] == 0:
                    continue
                ops = [eye] * k
                ops[j] = a
                ops[i] = a.T @ ops[i]  # a_i^dag a_j; a^dag a when i == j
                gen += gen_modes[i, j] * reduce(np.kron, ops)
        u = _expm_skew(gen)
        if len(_FOCK_UNITARY_CACHE) > 32:
            _FOCK_UNITARY_CACHE.clear()
        _FOCK_UNITARY_CACHE[key] = u
        return u


_FOCK_UNITARY_CACHE: dict = {}


def _expm_skew(gen: np.ndarray) -> np.ndarray:
    """exp(gen) for skew-Hermitian gen: with 1j gen = V diag(lam) V^dag,
    exp(gen) = V diag(exp(-1j lam)) V^dag, unitary to rounding."""
    lam, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * lam)) @ v.conj().T


@dataclass(frozen=True)
class ClickDetector:
    """Non-photon-number-resolving detector: efficiency and dark-count probability."""

    eta_d: float
    p_dc: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta_d <= 1.0:
            raise ValueError("eta_d must be in [0, 1]")
        if not 0.0 <= self.p_dc < 1.0:
            raise ValueError("p_dc must be in [0, 1)")


def annihilation(n_max: int) -> np.ndarray:
    """Single-mode annihilation operator, a|n> = sqrt(n)|n-1>."""
    a = np.zeros((n_max + 1, n_max + 1))
    n = np.arange(1, n_max + 1)
    a[n - 1, n] = np.sqrt(n)
    return a


def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Coefficients e^{-|a|^2/2} a^n / sqrt(n!), computed in log space."""
    if alpha == 0:
        c = np.zeros(n_max + 1, dtype=complex)
        c[0] = 1.0
        return c
    n = np.arange(n_max + 1)
    logmag = (-abs(alpha) ** 2 / 2 + n * math.log(abs(alpha))
              - 0.5 * log_factorials(n_max))
    phase = np.exp(1j * n * np.angle(alpha))
    return np.exp(logmag) * phase


def log_factorials(n_max: int) -> np.ndarray:
    """log(n!) for n = 0..n_max."""
    return np.array([math.lgamma(n + 1.0) for n in range(n_max + 1)])


def poisson_pmf(mean: float, n_max: int) -> np.ndarray:
    """Poisson(mean) probabilities of n = 0..n_max, evaluated in log form."""
    if mean == 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    n = np.arange(n_max + 1)
    return np.exp(-mean + n * math.log(mean) - log_factorials(n_max))


def poisson_tail_mass(mean: float, n_max: int) -> float:
    """Probability mass of a Poisson(mean) above n_max (log-domain partial sum)."""
    return max(0.0, 1.0 - float(np.sum(poisson_pmf(mean, n_max))))


def coherent_state(alpha: complex, n_max: int) -> TruncatedState:
    """Coherent state |alpha> on a single truncated mode.

    Parameters
    ----------
    alpha : complex
        Displacement amplitude; mean photon number is ``|alpha|**2``.
    n_max : int
        Truncation level.  Must hold the Poisson tail: mass beyond ``n_max``
        has to stay below ``TAU_TRUNC`` (guideline
        ``n_max >= |alpha|**2 + 6|alpha| + 10``).

    Raises
    ------
    TruncationError
        If the tail mass beyond ``n_max`` is not negligible.
    """
    tail = poisson_tail_mass(abs(alpha) ** 2, n_max)
    if tail > TAU_TRUNC:
        raise TruncationError(
            f"coherent tail mass {tail:.3g} beyond n_max={n_max} exceeds "
            f"{TAU_TRUNC}; need n_max >= |alpha|^2 + 6|alpha| + 10 = "
            f"{abs(alpha) ** 2 + 6 * abs(alpha) + 10:.1f}"
        )
    return TruncatedState(coherent_amplitudes(alpha, n_max))


def displacement_operator(alpha: complex, n_max: int) -> np.ndarray:
    """Matrix of D(alpha) = exp(alpha a^dag - alpha* a) on the truncated space.

    Dense reference for the closed forms; unitary within TAU_NUM on the
    low-photon-number block, so the caller must leave margin between the
    input state's support plus ``|alpha|**2`` and ``n_max``.
    """
    tail = poisson_tail_mass(abs(alpha) ** 2, n_max)
    if tail > TAU_TRUNC:
        raise TruncationError(
            f"displacement alpha={alpha} too large for n_max={n_max} "
            f"(vacuum-image tail mass {tail:.3g})"
        )
    a = annihilation(n_max)
    return _expm_skew(alpha * a.conj().T - np.conj(alpha) * a)


def displaced_single_photon(alpha: complex, n_max: int) -> TruncatedState:
    """D(alpha)|1> = (a^dag - alpha*)|alpha>, amplitudes c_n (n/alpha - alpha*).

    Evaluated as sqrt(n) c_{n-1} - alpha* c_n (c_n n / alpha = sqrt(n) c_{n-1}),
    which needs no division, so any complex alpha works and alpha = 0 gives
    |1>.  Raises TruncationError when the mass beyond ``n_max`` exceeds
    ``TAU_TRUNC``.
    """
    c = coherent_amplitudes(alpha, n_max)
    vec = -np.conj(alpha) * c
    vec[1:] += np.sqrt(np.arange(1, n_max + 1)) * c[:-1]
    return TruncatedState(vec)


def beam_splitter(transmittance: float) -> ModeTransform:
    """Two-mode beam splitter with the module-level sign convention."""
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError("transmittance must be in [0, 1]")
    t = math.sqrt(transmittance)
    r = math.sqrt(1.0 - transmittance)
    return ModeTransform(np.array([[t, r], [-r, t]]))


def apply_transform(mt: ModeTransform, state: TruncatedState) -> TruncatedState:
    """Apply a mode transform to a pure multimode state."""
    if state.n_modes != mt.n_modes:
        raise ValueError(f"state has {state.n_modes} modes, transform {mt.n_modes}")
    u = mt.fock_unitary(state.n_max)
    v = u @ state.amplitudes.reshape(-1)
    return TruncatedState(v.reshape(state.amplitudes.shape))


def loss_channel(eta: float, rho: DensityOperator) -> DensityOperator:
    """Pure-loss (binomial damping) channel with transmission eta on one mode.

    Kraus operators K_k |n> = sqrt(C(n,k) eta^{n-k} (1-eta)^k) |n-k>; coherent
    states map to |sqrt(eta) alpha> and the trace is preserved.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    if rho.n_modes != 1:
        raise ValueError("loss_channel acts on a single mode")
    d = rho.n_max + 1
    lf = log_factorials(rho.n_max)
    out = np.zeros_like(rho.matrix)
    # log-binomial weights, guarded for eta = 0 or 1
    for k in range(d):
        kk = np.zeros((d, d))
        src = np.arange(k, d)
        if eta == 0.0:
            w = np.where(src == k, 1.0, 0.0)
        elif eta == 1.0:
            w = np.where(k == 0, np.ones_like(src, dtype=float), 0.0)
        else:
            logw = 0.5 * (
                lf[src] - lf[k] - lf[src - k]
                + (src - k) * math.log(eta) + k * math.log(1 - eta)
            )
            w = np.exp(logw)
        kk[src - k, src] = w
        out += kk @ rho.matrix @ kk.T
        if eta == 1.0 and k == 0:
            break
    return DensityOperator(out, rho.n_max, 1)


def photon_number_distribution(state) -> np.ndarray:
    """p_n = <n|rho|n> (joint tensor of outcome probabilities for multimode input)."""
    if isinstance(state, TruncatedState):
        return np.abs(state.amplitudes) ** 2
    if isinstance(state, DensityOperator):
        d = state.n_max + 1
        return state.diagonal().reshape((d,) * state.n_modes)
    raise TypeError("expected TruncatedState or DensityOperator")


def no_click_probability(det: ClickDetector, state) -> float:
    """Tr[(1 - p_dc)(1 - eta_d)^{n} rho] for a single-mode state."""
    p = photon_number_distribution(state)
    if p.ndim != 1:
        raise ValueError("no_click_probability acts on a single mode")
    weights = (1.0 - det.eta_d) ** np.arange(p.size)
    return float((1.0 - det.p_dc) * np.dot(weights, p))


def click_probability(det: ClickDetector, state) -> float:
    return 1.0 - no_click_probability(det, state)


def thermal_state(nbar: float, n_max: int) -> DensityOperator:
    """Thermal (Bose-Einstein) state with mean photon number nbar."""
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    n = np.arange(n_max + 1)
    if nbar == 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
    else:
        x = nbar / (1.0 + nbar)
        p = x**n / (1.0 + nbar)
        tail = x ** (n_max + 1)
        if tail > TAU_TRUNC:
            raise TruncationError(
                f"thermal tail {tail:.3g} beyond n_max={n_max} exceeds {TAU_TRUNC}"
            )
    return DensityOperator(np.diag(p.astype(complex)), n_max, 1)


def tensor_states(a: TruncatedState, b: TruncatedState) -> TruncatedState:
    """Tensor product of two pure states (modes of `a` first)."""
    if a.n_max != b.n_max:
        raise ValueError("operands must share a truncation level")
    return TruncatedState(np.multiply.outer(a.amplitudes, b.amplitudes))
