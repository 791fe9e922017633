import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import binom

from micromacro import hom
from micromacro.fock import ClickDetector, coherent_amplitudes, poisson_pmf
from oracles import hom_visibility_truncated
from references import (classical_reference_visibility, dense_output_diagonal,
                        overlap_ratio)


def test_expected_visibility_frozen_value():
    v = hom.hom_visibility(hom.HomParams())
    assert abs(v - 0.841390) < 1e-4


def test_two_single_photons_never_coincide():
    one = np.zeros(5)
    one[1] = 1.0
    c = hom.coincidence_from_joint(one, one, ClickDetector(1.0, 0.0))
    assert abs(c) < 1e-12


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8).filter(lambda w: sum(w) > 0),
       st.floats(0.0, 0.6), st.floats(-math.pi, math.pi))
@example([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.012, 0.0)
@settings(max_examples=40, deadline=None)
def test_output_distribution_matches_dense_splitter(weights, mean, phase):
    # diag(q) (x) |b><b| through the dense splitter: whatever the phase of b,
    # diag(U rho U^dag) is the block sum over q and the Poisson weights of b
    n_max = len(weights) - 1
    q = np.array(weights) / sum(weights)
    c = coherent_amplitudes(math.sqrt(mean) * cmath.exp(1j * phase), n_max)
    ref = dense_output_diagonal(np.kron(np.diag(q), np.outer(c, c.conj())), n_max)
    got = hom.output_distribution(q, poisson_pmf(mean, n_max))
    assert np.max(np.abs(got - ref)) < 1e-13


def test_visibility_matches_40_digit_oracle():
    # the default mu grid and mu* = 0.012; the no-click form cancels to about
    # 2e-12 of V at mu = 0.001, so an error of 1e-11 there fails
    params = hom.HomParams()
    det = params.detector
    for mu in [*np.linspace(0.001, 0.2, 25), 0.012]:
        v = hom.hom_visibility(replace(params, mu_csp=float(mu)))
        ref = hom_visibility_truncated(float(mu), params.p_pair, params.eta_h, det.eta_d,
                                       det.p_dc, params.xi, hom.N_MAX, hom.HERALD_KMAX)
        assert abs(v / float(ref) - 1.0) < 5e-12, mu


def test_visibility_has_interior_maximum():
    params = hom.HomParams()
    mu = np.linspace(0.001, 0.2, 25)
    v = hom.hom_visibility_curve(mu, params)
    k = int(np.argmax(v))
    assert 0 < k < mu.size - 1
    assert v[k] > v[0] and v[k] > v[-1]


def test_classical_reference_approaches_one_half():
    det = ClickDetector(0.5, 0.0)
    v = classical_reference_visibility(1e-4, 1e-4, det)
    assert abs(v - 0.5) < 2e-3
    # the heralded source beats any classical pair at the same detector
    assert hom.hom_visibility(hom.HomParams()) > v + 0.2


def test_heralded_distribution_properties():
    q = hom.heralded_signal_dist(0.005, 0.19)
    assert abs(q.sum() - 1.0) < 1e-12
    assert np.all(q >= 0.0)
    # lossless heralding of a weak source is almost purely single-photon
    q_ideal = hom.heralded_signal_dist(1e-4, 1.0)
    assert q_ideal[1] > 0.99


def test_temporal_overlap_window_dependence():
    profiles = hom.TemporalProfiles()
    assert hom.temporal_overlap(profiles, 0.01) > 0.9999
    assert abs(hom.temporal_overlap(profiles, 3.0) - 0.870867) < 1e-5
    windows = np.linspace(0.5, 8.0, 16)
    xi = np.array([hom.temporal_overlap(profiles, w) for w in windows])
    assert np.all(np.diff(xi) < 0.0)
    assert xi[-1] < 0.96


def quad_overlap(profiles, window):
    """The window overlap by adaptive quadrature (the replaced reference)."""
    s = profiles.csp_fwhm / (2.0 * math.sqrt(math.log(2.0)))
    tau = profiles.hsp_tau_c
    half = window / 2.0

    def integral(f):
        return quad(f, -half, half, points=[0.0], epsabs=0.0, epsrel=1e-13)[0]

    num = integral(lambda t: math.exp(-t**2 / (2.0 * s**2) - abs(t) / tau)) ** 2
    den = integral(lambda t: math.exp(-t**2 / s**2)) \
        * integral(lambda t: math.exp(-2.0 * abs(t) / tau))
    return num / den


@given(st.floats(0.5, 6.0))
@example(0.5)
@example(6.0)
@settings(max_examples=60, deadline=None)
def test_temporal_overlap_matches_quadrature(window):
    profiles = hom.TemporalProfiles()
    assert abs(hom.temporal_overlap(profiles, window) - quad_overlap(profiles, window)) \
        < 1e-12


@pytest.mark.parametrize("tau_c", [0.005, 0.0169, 0.0171, 0.3, 50.0])
def test_temporal_overlap_across_erfcx_branches(tau_c):
    # a = s / (sqrt2 tau) crosses 25 between tau_c = 0.0169 and 0.0171 ns
    profiles = hom.TemporalProfiles(hsp_tau_c=tau_c)
    for window in (0.5, 3.0, 6.0):
        assert abs(hom.temporal_overlap(profiles, window)
                   - quad_overlap(profiles, window)) < 1e-12


def test_erfcx_is_continuous_at_the_switch():
    below = hom._erfcx(np.nextafter(25.0, 0.0))
    assert abs(hom._erfcx(25.0) / below - 1.0) < 1e-12


# scipy's binom.pmf raises OverflowError for p below about 1e-307, and below
# p ~ 1e-70 it is off by up to 7e-14 where the exact (1 - p)^n rounds to 1
@given(st.integers(0, 30), st.floats(1e-300, 1.0) | st.just(0.0))
@example(4, 0.19)
@settings(max_examples=60, deadline=None)
def test_binomial_pmf_matches_scipy(n, p):
    ref = binom.pmf(np.arange(n + 1), n, p)
    assert np.max(np.abs(hom.binomial_pmf(n, p) - ref)) < 1e-13


def test_overlap_vs_window_scales_expected_visibility():
    profiles = hom.TemporalProfiles()
    xi, v_m = hom.overlap_vs_window(profiles, [1.0, 3.0], v_e=0.85)
    assert np.allclose(v_m, 0.85 * xi)


def test_overlap_ratio():
    assert overlap_ratio(0.74, 0.85) == 0.74 / 0.85
    with pytest.raises(ValueError):
        overlap_ratio(0.9, 0.85)
    with pytest.raises(ValueError):
        overlap_ratio(0.0, 0.85)
    with pytest.raises(ValueError):
        overlap_ratio(0.9, 1.05)


def test_visibility_undefined_without_detection():
    params = hom.HomParams(detector=ClickDetector(0.0, 0.0))
    with pytest.raises(hom.UndefinedVisibilityError):
        hom.hom_visibility(params)
    with pytest.raises(hom.UndefinedVisibilityError):
        classical_reference_visibility(1e-4, 1e-4, ClickDetector(0.0, 0.0))


def test_partial_mode_match_interpolates():
    params = hom.HomParams()
    v_full = hom.hom_visibility(params)
    v_half = hom.hom_visibility(replace(params, xi=0.5))
    assert 0.0 < v_half < v_full


def test_parameter_validation():
    with pytest.raises(ValueError):
        hom.HomParams(xi=1.5)
    for p_pair in (0.0, 1.0):  # at 0 no pair is heralded: 0/0 in the weights
        with pytest.raises(ValueError):
            hom.HomParams(p_pair=p_pair)
    with pytest.raises(ValueError):
        hom.TemporalProfiles(csp_fwhm=-1.0)
    with pytest.raises(ValueError):
        hom.temporal_overlap(hom.TemporalProfiles(), 0.0)
