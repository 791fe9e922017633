import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammaln
from scipy.stats import binom, poisson

from micromacro import fock, hom, macro, ranges
from references import (ModeTransform, annihilation, beam_splitter, coherent_density,
                        coherent_state, dense_coincidence, displacement_operator,
                        loss_channel, thermal_dist)


def test_coherent_state_photon_statistics():
    alpha = 1.3
    p = np.abs(fock.coherent_amplitudes(alpha, 40)) ** 2
    expected = poisson.pmf(np.arange(41), alpha**2)
    assert np.max(np.abs(p - expected)) < 1e-12


@pytest.mark.parametrize("build", [fock.coherent_amplitudes, macro.macro_components],
                         ids=["coherent_amplitudes", "macro_components"])
def test_amplitudes_refuse_a_negative_or_complex_alpha(build):
    # the amplitudes are sqrt(Poisson(alpha^2)), real and nonnegative, so the
    # sign of a negative alpha and the phase of a complex one would be lost
    with pytest.raises(ValueError, match=r"alpha=-1.0 must be >= 0"):
        build(-1.0, 40)
    with pytest.raises(TypeError):
        build(0.6 + 0.8j, 40)


def test_displaced_single_photon_rejects_a_short_cutoff():
    # at |alpha|^2 = 47 and n_max = 95, D(alpha)|1> loses 1.32e-8 > TAU_TRUNC,
    # while both macro components keep their mass within 1e-8, so this check
    # is the only one that catches the cutoff
    alpha, n_max = math.sqrt(47.0), 95
    zero = fock.coherent_amplitudes(alpha, n_max)
    with pytest.raises(fock.TruncationError, match="increase n_max"):
        fock.displaced_single_photon(alpha, zero)
    one = fock.displaced_single_photon(alpha, fock.coherent_amplitudes(alpha, n_max + 1))[:-1]
    for sign in (1.0, -1.0):
        deficit = 1.0 - float(np.sum(np.abs(zero + sign * one) ** 2)) / 2.0
        assert 0.0 < deficit < fock.TAU_TRUNC
    wide = fock.coherent_amplitudes(alpha, n_max + 5)
    assert fock.displaced_single_photon(alpha, wide).shape == (n_max + 6,)


def test_coherent_state_rejects_small_cutoff():
    # |4> has mass 0.19 at or below n = 12, so the cutoff sits below the bulk
    # of the state and every state built on it is refused
    mass = float(np.sum(np.abs(fock.coherent_amplitudes(4.0, 12)) ** 2))
    assert abs(mass - poisson.cdf(12, 16.0)) < 1e-12
    with pytest.raises(fock.TruncationError):
        fock.displaced_single_photon(4.0, fock.coherent_amplitudes(4.0, 12))
    with pytest.raises(fock.TruncationError):
        macro.macro_components(4.0, 12)


def test_truncated_state_rejects_norm_deficit():
    v = np.zeros(5)
    v[0] = 0.999 ** 2  # total probability 0.998, outside the tolerance band
    with pytest.raises(fock.TruncationError):
        macro.MacroComponentPair(v, v, 0.0)
    v[0] = 1.0 - fock.TAU_TRUNC / 2  # inside the band
    macro.MacroComponentPair(v, v, 0.0)


def test_displacement_inverse_on_low_levels():
    n_max, block = 60, 30
    prod = displacement_operator(0.8, n_max) @ displacement_operator(-0.8, n_max)
    resid = np.abs(prod - np.eye(n_max + 1))[:block, :block]
    assert resid.max() < 1e-10


@given(st.floats(0.1, 2.2))
@settings(max_examples=40, deadline=None)
def test_displaced_photon_number_distribution(alpha):
    # |<n|D(a)|1>|^2 = e^{-a^2} a^{2(n-1)} (n - a^2)^2 / n!
    n_max = 40
    p = np.abs(fock.displaced_single_photon(alpha, fock.coherent_amplitudes(alpha, n_max))) ** 2
    lam = alpha**2
    n = np.arange(n_max + 1)
    logw = -lam + (n - 1) * math.log(lam) - gammaln(n + 1)
    expected = np.exp(logw) * (n - lam) ** 2
    assert np.max(np.abs(p - expected)) < 1e-10


@given(st.floats(0.0, 3.0))
@example(0.0)
@settings(max_examples=60, deadline=None)
def test_displaced_single_photon_matches_dense_displacement(alpha):
    # reference: the column D(alpha)|1> of the dense matrix; |1> at alpha = 0
    n_max = 60
    got = fock.displaced_single_photon(alpha, fock.coherent_amplitudes(alpha, n_max))
    ref = displacement_operator(alpha, n_max)[:, 1]
    assert np.max(np.abs(got - ref)) < 1e-10


@given(st.builds(lambda r, phi: r * complex(math.cos(phi), math.sin(phi)),
                 st.floats(0.0, 3.0), st.floats(-math.pi, math.pi)))
@example(0j)
@example(3.0 + 0j)
@settings(max_examples=60, deadline=None)
def test_displacement_operator_matches_expm(alpha):
    n_max = 40
    a = annihilation(n_max)
    ref = expm(alpha * a.T - np.conj(alpha) * a)
    assert np.max(np.abs(displacement_operator(alpha, n_max) - ref)) < 1e-12


@given(st.floats(0.0, 1.0), st.integers(1, 10))
@example(0.0, 10)
@example(0.5, 10)
@example(1.0, 10)
@example(1.0 - 1e-15, 10)
@settings(max_examples=60, deadline=None)
def test_fock_unitary_matches_expm(transmittance, n_max):
    # S = [[t, r], [-r, t]] is a rotation by theta = atan2(r, t), so
    # log S = theta [[0, 1], [-1, 0]] and the Fock-space generator is
    # theta (a^dag (x) a - a (x) a^dag)
    theta = math.atan2(math.sqrt(1.0 - transmittance), math.sqrt(transmittance))
    a = annihilation(n_max)
    ref = expm(theta * (np.kron(a.T, a) - np.kron(a, a.T)))
    u = beam_splitter(transmittance).fock_unitary(n_max)
    assert np.max(np.abs(u - ref)) < 1e-12


@given(st.integers(1, 10))
@example(6)
@settings(max_examples=20, deadline=None)
def test_splitter_blocks_match_dense_reference(n_max):
    # the dense truncated 50/50 unitary is block diagonal in N = n_a + n_b,
    # and its blocks are the production ones; mode a is the leading index
    dense = beam_splitter(0.5).fock_unitary(n_max)
    d = n_max + 1
    blocks = np.zeros_like(dense)
    for total, (n_a, u, _) in enumerate(fock.splitter_blocks(n_max)):
        idx = n_a * d + total - n_a
        blocks[np.ix_(idx, idx)] = u
    assert np.max(np.abs(blocks - dense)) < 1e-13


@pytest.mark.parametrize("n_max", [1, 6, 12])
def test_splitter_block_weights_are_the_squared_blocks(n_max):
    blocks = fock.splitter_blocks(n_max)
    assert fock.splitter_blocks(n_max) is blocks  # cached per cutoff
    for n_a, u, w in blocks:
        assert w.tobytes() == (np.abs(u) ** 2).tobytes()
        assert not (n_a.flags.writeable or u.flags.writeable or w.flags.writeable)


@given(st.floats(0.0, 200.0), st.integers(0, 300))
@example(0.0, 5)
@settings(max_examples=60, deadline=None)
def test_poisson_pmf_matches_scipy(mean, n_max):
    ref = poisson.pmf(np.arange(n_max + 1), mean)
    assert np.max(np.abs(fock.poisson_pmf(mean, n_max) - ref)) < 1e-13


def test_log_factorials_match_gammaln():
    ref = gammaln(np.arange(501) + 1)
    assert np.max(np.abs(fock.log_factorials(500) - ref) / (1.0 + ref)) < 1e-15


@pytest.mark.parametrize("orders", [(500, 7, 5000, 0), (0, 5000), (500, 600, 7)])
def test_log_factorials_table_is_bit_identical_and_built_once(monkeypatch, orders):
    # a fresh table grown in these request orders holds exactly the lgamma
    # list, its views are read-only, and a repeated request computes nothing
    monkeypatch.setattr(fock, "_log_factorial_table", np.empty(0))
    for n_max in orders:
        got = fock.log_factorials(n_max)
        assert got.tobytes() == np.array([math.lgamma(n + 1.0)
                                          for n in range(n_max + 1)]).tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got.flags.writeable = True
    assert fock._log_factorial_table.size <= 2 * (max(orders) + 1)
    calls = []
    lgamma = math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or lgamma(x))
    for n_max in orders:
        fock.log_factorials(n_max)
    assert calls == []


@pytest.mark.parametrize("call, match", [
    (lambda: fock.poisson_pmf(-1.0, 3), r"mean=-1.0 must be >= 0"),
    (lambda: fock.poisson_pmf(math.nan, 3), "mean=nan must be finite"),
    (lambda: fock.poisson_pmf(math.inf, 3), "mean=inf must be finite"),
    (lambda: fock.poisson_pmf(2.0, -1), "n_max=-1 must be an integer >= 0"),
    (lambda: fock.poisson_pmf(0.0, -1), "n_max=-1 must be an integer >= 0"),
    (lambda: fock.poisson_pmf(2.0, 3.0), "n_max=3.0 must be an integer >= 0"),
    (lambda: fock.log_factorials(-5), "n_max=-5 must be an integer >= 0"),
    (lambda: fock.log_factorials(2.5), "n_max=2.5 must be an integer >= 0"),
], ids=["mean_negative", "mean_nan", "mean_inf", "n_max_negative", "n_max_negative_at_0",
        "n_max_float", "log_factorials_negative", "log_factorials_float"])
def test_poisson_inputs_are_rejected_by_name(call, match):
    # these raised "math domain error" or returned NaNs, [] or a wrong prefix
    with pytest.raises(ValueError, match=match):
        call()


def test_beam_splitter_unitary_on_fock_space():
    u = beam_splitter(0.37).fock_unitary(10)
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12


def test_beam_splitter_keeps_coherent_states_coherent():
    trans = 0.7
    a, b = 0.9, -0.4 + 0.3j
    n_max = 18
    state_in = np.kron(coherent_state(a, n_max), coherent_state(b, n_max))
    out = beam_splitter(trans).fock_unitary(n_max) @ state_in
    t, r = math.sqrt(trans), math.sqrt(1 - trans)
    expected = np.multiply.outer(coherent_state(t * a + r * b, n_max),
                                 coherent_state(-r * a + t * b, n_max))
    assert np.max(np.abs(out - expected.reshape(-1))) < 1e-8


def test_mode_transform_rejects_nonunitary():
    with pytest.raises(ValueError):
        ModeTransform(np.array([[1.0, 0.1], [0.0, 1.0]]))


# the loss channel is a test reference (references.py); these pin it to its
# closed forms before test_macro compares the lossy mixture with it

def test_loss_channel_damps_coherent_amplitude():
    eta = 0.42
    out = loss_channel(eta, coherent_density(1.1, 25))
    expected = coherent_density(math.sqrt(eta) * 1.1, 25)
    assert np.max(np.abs(out - expected)) < 1e-10


def test_loss_channel_binomial_statistics():
    n, eta, n_max = 6, 0.3, 9
    rho = np.zeros((n_max + 1, n_max + 1))
    rho[n, n] = 1.0
    out = loss_channel(eta, rho)
    expected = binom.pmf(np.arange(n_max + 1), n, eta)
    assert np.max(np.abs(np.diag(out) - expected)) < 1e-12


def test_loss_channel_edge_transmissions():
    rho = coherent_density(0.9, 20)
    vac = np.diag(loss_channel(0.0, rho))
    assert abs(vac[0] - 1.0) < 1e-12
    full = loss_channel(1.0, rho)
    assert np.max(np.abs(full - rho)) < 1e-14


def test_click_detector_on_coherent_state():
    # coherent inputs leave the 50/50 splitter as coherent states
    # (a + b)/sqrt2 and (b - a)/sqrt2, each clicking with probability
    # 1 - (1 - p_dc) exp(-eta_d |amplitude|^2), independently
    det = ranges.ClickDetector(0.33, 0.01)
    n_max = 18

    def click_product(a, b):
        return math.prod(1.0 - (1.0 - det.p_dc) * math.exp(-det.eta_d * abs(x) ** 2 / 2.0)
                         for x in (a + b, b - a))

    # vacuum and a coherent state carry no relative phase: production blocks
    b = 0.3 - 0.5j
    vac = np.zeros(n_max + 1)
    vac[0] = 1.0
    coinc = hom.coincidence_from_joint(vac, fock.poisson_pmf(abs(b) ** 2, n_max), det)
    assert abs(coinc - click_product(0.0, b)) < 1e-10
    # two coherent inputs interfere by their phase: the dense reference splitter
    c = np.kron(coherent_state(0.8, n_max), coherent_state(b, n_max))
    assert abs(dense_coincidence(np.outer(c, c.conj()), n_max, det)
               - click_product(0.8, b)) < 1e-10
    dark = hom.coincidence_from_joint(vac, vac, det)
    assert abs(dark - det.p_dc**2) < 1e-15


def test_thermal_state_mean_and_loss():
    nbar, n_max = 0.7, 80
    rho = np.diag(thermal_dist(nbar, n_max))
    mean = float(np.dot(np.arange(n_max + 1), np.diag(rho)))
    assert abs(mean - nbar) < 1e-10
    eta = 0.25
    cooled = loss_channel(eta, rho)
    expected = np.diag(thermal_dist(eta * nbar, n_max))
    assert np.max(np.abs(cooled - expected)) < 1e-10
