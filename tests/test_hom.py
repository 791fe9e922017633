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
from micromacro.fock import poisson_pmf
from micromacro.ranges import ClickDetector
from oracles import hom_visibility_truncated, hom_visibility_untruncated
from oracles import temporal_overlap as oracle_overlap
from references import (classical_reference_visibility, coherent_state,
                        dense_output_diagonal, overlap_ratio)


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
    c = coherent_state(math.sqrt(mean) * cmath.exp(1j * phase), n_max)
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


@pytest.mark.parametrize("mu, p_pair, eta_d, p_dc, xi", [
    (0.012, 0.005, 0.5, 0.0, 1.0),
    (0.2, 0.005, 0.3, 0.0, 1.0),
    (0.05, 0.005, 0.5, 1e-3, 1.0),
    (0.1, 0.005, 0.8, 0.0, 0.6),
    (0.2, 0.05, 0.3, 1e-4, 0.8),
])
def test_untruncated_oracle_meets_the_block_sum(mu, p_pair, eta_d, p_dc, xi):
    # two 40-digit models: the Laguerre form with its herald in closed form,
    # and the splitter blocks at 16 photons and 16 pairs.  At mu = 0.2 and
    # eta_d = 0.3 they differ by 9.4e-25; a cutoff of 10 is off by 1.6e-13
    ref = hom_visibility_truncated(mu, p_pair, 0.19, eta_d, p_dc, xi, 16, 16)
    assert abs(hom_visibility_untruncated(mu, p_pair, 0.19, eta_d, p_dc, xi) / ref - 1) < 1e-12


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2, hom in closed form: N_MAX = 6 photons and HERALD_KMAX = 4 "
    "pairs cut the model, so V misses the untruncated oracle by up to 1.84e-6 "
    "relative (mu = 0.001, eta_d = 0.3)"))
def test_visibility_matches_the_untruncated_oracle():
    # the 75 (eta_d, mu) points of the benchmark's hom sweep
    params = hom.HomParams()
    gaps = []
    for eta_d in (0.3, 0.5, 0.8):
        for mu in np.linspace(0.001, 0.2, 25):
            v = hom.hom_visibility(replace(params, mu_csp=float(mu),
                                           detector=ClickDetector(eta_d, 0.0)))
            ref = hom_visibility_untruncated(float(mu), params.p_pair, params.eta_h,
                                             eta_d, 0.0, params.xi)
            gaps.append(abs(v / float(ref) - 1.0))
    assert max(gaps) < 1e-10


def test_visibility_has_interior_maximum():
    params = hom.HomParams()
    mu = np.linspace(0.001, 0.2, 25)
    v = [hom.hom_visibility(replace(params, mu_csp=float(m))) for m in mu]
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


# from the bound WINDOW up; the worst of 2,001 log-spaced windows to 0.1 ns
# was 9.6e-13, at 1.052e-3 ns, against a 40-digit quadrature
@given(st.floats(hom.WINDOW.lo, 6.0))
@example(hom.WINDOW.lo)
@example(1.0519618738232225e-3)
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


@pytest.mark.parametrize("csp_fwhm", [1e8, 1e150])
def test_temporal_overlap_of_a_wide_csp(csp_fwhm):
    # s >> w: e^(a^2 - b^2) taken as a difference of squares read 1.92 at
    # 1e8 and 0.0 at 1e150; the exponent -d (2a + d) keeps every digit
    profiles = hom.TemporalProfiles(csp_fwhm=csp_fwhm)
    assert abs(hom.temporal_overlap(profiles, 0.5) - quad_overlap(profiles, 0.5)) < 1e-12


@pytest.mark.parametrize("tau_c", [5e-324, 1e-310, 1e-200])
def test_temporal_overlap_takes_its_limit_at_a_vanishing_coherence_time(tau_c):
    # xi -> 0 with tau_c (xi = 8.5e-100 at 1e-100 and w = 0.5); at a
    # subnormal tau_c both gh^2 and gg * hh underflow, and 0 / 0 raised
    # ZeroDivisionError
    profiles = hom.TemporalProfiles(hsp_tau_c=tau_c)
    for window in (1e-3, 0.5, 3.0, 6.0):
        assert hom.temporal_overlap(profiles, window) == 0.0
    assert 0.0 < hom.temporal_overlap(hom.TemporalProfiles(hsp_tau_c=1e-100), 0.5) < 1e-99


@pytest.mark.parametrize("window, bound", [(1e-3, 2e-11), (1e-2, 2e-11), (0.5, 1e-12)])
def test_temporal_overlap_of_a_wide_csp_against_the_oracle(window, bound):
    # a CSP wide against the window loses more digits to the erfcx
    # difference: at csp_fwhm = 100 it is off by 1.6e-11, 1.5e-11 and 5.1e-13,
    # against 3.2e-13, 3.8e-14 and 6.7e-16 at the default profiles
    want = oracle_overlap(100.0, hom.TemporalProfiles().hsp_tau_c, window)
    got = hom.temporal_overlap(hom.TemporalProfiles(csp_fwhm=100.0), window)
    assert abs(got - float(want)) <= bound, (got, want)


def test_temporal_overlap_is_a_probability_down_to_the_window_bound():
    # below WINDOW the erfcx difference read 1.369 at 1e-15 ns and raised
    # ZeroDivisionError at 1e-200
    profiles = hom.TemporalProfiles()
    xi = [hom.temporal_overlap(profiles, float(w))
          for w in np.geomspace(hom.WINDOW.lo, 1e3, 601)]
    assert 0.0 <= min(xi) and max(xi) <= 1.0


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
    for window in (0.0, 1e-4, math.nextafter(hom.WINDOW.lo, 0.0), 1e-200, 1e-300):
        with pytest.raises(ValueError, match=f"^window={window} must be >= 0.001$"):
            hom.temporal_overlap(hom.TemporalProfiles(), window)
