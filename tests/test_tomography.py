import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micromacro import polarization as pol
from micromacro import tomography as tomo
from references import (born_probabilities, reference_mle, tomography_fit,
                        tomography_projectors)


def test_projector_stack_is_complete():
    # each setting pair's four outcome projectors resolve the identity, so
    # its Born probabilities sum to 1, and the 144 projectors span all 16
    # operator dimensions: the fixed scheme determines every two-qubit state
    stack = tomo._projector_stack()
    assert np.allclose(stack, tomography_projectors(), rtol=0.0, atol=1e-15)
    pairs = stack.reshape(len(tomo.SETTING_PAIRS), 4, 4, 4)
    assert np.allclose(pairs.sum(axis=1), np.eye(4), rtol=0.0, atol=1e-15)
    assert np.linalg.matrix_rank(stack.reshape(len(stack), 16), tol=1e-9) == 16


def test_simulated_counts_reproducible():
    rho = pol.werner_state(0.94)
    counts1 = tomo.simulate_tomography(rho, shots=500, rng_seed=11)
    counts2 = tomo.simulate_tomography(rho, shots=500, rng_seed=11)
    counts3 = tomo.simulate_tomography(rho, shots=500, rng_seed=12)
    assert counts1.shape == (len(tomo.SETTING_PAIRS), 2, 2)
    assert np.array_equal(counts1, counts2)
    assert not np.array_equal(counts1, counts3)
    assert np.all(counts1.sum(axis=(1, 2)) == 500)
    with pytest.raises(ValueError, match=r"shape \(36, 2, 2\)"):
        tomo.reconstruct_mle(counts1[:6])


def test_round_trip_reconstruction():
    rho = pol.werner_state(0.94)
    counts = tomo.simulate_tomography(rho, shots=20_000, rng_seed=5)
    est = tomo.reconstruct_mle(counts)
    assert pol.state_fidelity(rho, est) >= 0.995
    # reconstruction respects the state constraints by construction
    assert abs(np.real(np.trace(est.matrix)) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(est.matrix)[0] > -1e-10


def test_pure_state_boundary_reconstruction():
    # rank-1 target: the optimum sits on the state-set boundary and still
    # has to satisfy the optimality-residual contract
    rho = pol.bell_state()
    counts = tomo.simulate_tomography(rho, shots=5_000, rng_seed=2)
    est = tomo.reconstruct_mle(counts)
    assert pol.state_fidelity(rho, est) >= 0.999


@settings(max_examples=40, deadline=None)
@given(w=st.floats(0.0, 0.99), shots=st.sampled_from([100, 1000, 20_000]),
       rng_seed=st.integers(0, 2**32 - 1))
def test_mle_matches_the_scipy_reference(w, shots, rng_seed):
    # the Newton ascent certifies on every count array, and wherever the
    # L-BFGS-B fit certifies too, its likelihood is no lower than the fit's
    # beyond the certificate bound
    counts = tomo.simulate_tomography(pol.werner_state(w), shots=shots, rng_seed=rng_seed)
    cert, ll = tomography_fit(counts, tomo.reconstruct_mle(counts).matrix)
    assert cert <= 1e-9
    try:
        ref = reference_mle(counts)
    except tomo.ConvergenceError:
        return
    assert ll >= tomography_fit(counts, ref.matrix)[1] - 1e-9


@pytest.mark.parametrize("rng_seed", [12, 13, 15, 20, 40, 52])
def test_near_pure_state_certifies(rng_seed):
    # the L-BFGS-B fit and its R rho R polish (references.reference_mle)
    # raise ConvergenceError on these counts
    counts = tomo.simulate_tomography(pol.werner_state(0.999), shots=100_000,
                                      rng_seed=rng_seed)
    start = time.perf_counter()
    est = tomo.reconstruct_mle(counts)
    elapsed = time.perf_counter() - start
    assert tomography_fit(counts, est.matrix)[0] <= 1e-9
    assert elapsed < 0.25


def _random_density(rng) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def test_batched_born_probabilities_match_the_per_projector_loop():
    # one stacked product and one batched trace run the loop's operations
    # on every projector, so the probabilities agree to the last bit
    rng = np.random.default_rng(2024)
    states = [pol.werner_state(w).matrix for w in np.linspace(0.0, 1.0, 11)]
    states += [_random_density(rng) for _ in range(40)]
    for rho in states:
        assert tomo._born_probabilities(rho).tobytes() == born_probabilities(rho).tobytes()


@pytest.mark.parametrize("shots", [0, -3, 1.5, 2.0, "100"])
def test_simulate_tomography_rejects_bad_shots(shots):
    with pytest.raises(ValueError, match="shots=.* must be an integer >= 1"):
        tomo.simulate_tomography(pol.werner_state(0.94), shots=shots)


@pytest.mark.parametrize("fill, match", [
    (0, "positive total"),
    (-1, "non-negative integers"),
    (0.5, "non-negative integers"),
    (np.nan, "finite"),
    (np.inf, "finite"),
])
def test_reconstruct_mle_rejects_bad_counts(fill, match):
    # all-zero counts, and one bad entry among good ones otherwise
    counts = tomo.simulate_tomography(pol.werner_state(0.94), shots=500, rng_seed=3)
    counts = np.zeros(counts.shape) if fill == 0 else counts.astype(float)
    counts[4, 1, 0] = fill
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # fails before any step warns
        with pytest.raises(ValueError, match=match):
            tomo.reconstruct_mle(counts)
