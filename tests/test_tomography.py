import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micromacro import polarization as pol
from micromacro import tomography as tomo
from references import reference_mle, tomography_fit


def test_born_probabilities_normalized():
    rho = pol.werner_state(0.8)
    for pair in tomo.DEFAULT_SETTING_PAIRS:
        q = tomo.born_probabilities(rho, pair)
        assert q.shape == (2, 2)
        assert np.all(q >= -1e-15)
        assert abs(q.sum() - 1.0) < 1e-12


def test_simulated_counts_reproducible():
    rho = pol.werner_state(0.94)
    rec1 = tomo.simulate_tomography(rho, shots=500, rng_seed=11)
    rec2 = tomo.simulate_tomography(rho, shots=500, rng_seed=11)
    rec3 = tomo.simulate_tomography(rho, shots=500, rng_seed=12)
    assert np.array_equal(rec1.counts, rec2.counts)
    assert not np.array_equal(rec1.counts, rec3.counts)
    assert rec1.counts.sum() == 500 * len(tomo.DEFAULT_SETTING_PAIRS)


def test_round_trip_reconstruction():
    rho = pol.werner_state(0.94)
    record = tomo.simulate_tomography(rho, shots=20_000, rng_seed=5)
    est = tomo.reconstruct_mle(record)
    assert pol.state_fidelity(rho, est) >= 0.995
    # reconstruction respects the state constraints by construction
    assert abs(np.real(np.trace(est.matrix)) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(est.matrix)[0] > -1e-10


def test_pure_state_boundary_reconstruction():
    # rank-1 target: the optimum sits on the state-set boundary and still
    # has to satisfy the optimality-residual contract
    rho = pol.bell_state()
    record = tomo.simulate_tomography(rho, shots=5_000, rng_seed=2)
    est = tomo.reconstruct_mle(record)
    assert pol.state_fidelity(rho, est) >= 0.999


def test_zero_count_pair_rejected():
    record = tomo.simulate_tomography(pol.werner_state(0.9), shots=100, rng_seed=0)
    record.counts[7] = 0
    with pytest.raises(tomo.RankDeficiencyError):
        tomo.reconstruct_mle(record)


def test_incomplete_setting_set_rejected():
    pairs = tuple(p for p in tomo.DEFAULT_SETTING_PAIRS if p[0] == "H")
    record = tomo.simulate_tomography(pol.werner_state(0.9), setting_pairs=pairs,
                                      shots=1_000, rng_seed=0)
    with pytest.raises(tomo.RankDeficiencyError):
        tomo.reconstruct_mle(record)


@settings(max_examples=40, deadline=None)
@given(w=st.floats(0.0, 0.99), shots=st.sampled_from([100, 1000, 20_000]),
       rng_seed=st.integers(0, 2**32 - 1))
def test_mle_matches_the_scipy_reference(w, shots, rng_seed):
    # the Newton ascent certifies on every record, and wherever the L-BFGS-B
    # fit certifies too, its likelihood is no lower than the fit's beyond
    # the certificate bound
    record = tomo.simulate_tomography(pol.werner_state(w), shots=shots, rng_seed=rng_seed)
    cert, ll = tomography_fit(record, tomo.reconstruct_mle(record).matrix)
    assert cert <= 1e-9
    try:
        ref = reference_mle(record)
    except tomo.ConvergenceError:
        return
    assert ll >= tomography_fit(record, ref.matrix)[1] - 1e-9


@pytest.mark.parametrize("rng_seed", [12, 13, 15, 20, 40, 52])
def test_near_pure_state_certifies(rng_seed):
    # the L-BFGS-B fit and its R rho R polish (references.reference_mle)
    # raise ConvergenceError on these records
    record = tomo.simulate_tomography(pol.werner_state(0.999), shots=100_000,
                                      rng_seed=rng_seed)
    start = time.perf_counter()
    est = tomo.reconstruct_mle(record)
    elapsed = time.perf_counter() - start
    assert tomography_fit(record, est.matrix)[0] <= 1e-9
    assert elapsed < 0.25
