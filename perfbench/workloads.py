"""The two warm, in-process workloads and their output checks.

Each workload is a fixed list of operations in a fixed order.  The
benchmark seed sets the random streams of the sampled operations; the grids
are fixed, so closed-form outputs can be checked against the values stored
in ``reference.json``.  The order is not shuffled by seed: on a 2-vCPU VM
one seed's shuffle ran sweep_mix passes 8% slower than another's, which
would read as run-to-run noise.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from common import SE_MULTIPLE, TOMO_SD_MULTIPLE, close
from micromacro import fock, hom, macro, noise, polarization, spdc, tomography

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# ---- size_scan inputs ----
PG_BETA_SQ = tuple(float(b) for b in np.geomspace(2.0, 300.0, 30))
SIZE_BETA_SQ = (10.0, 47.0, 150.0, 300.0)
SIZE_TARGET = 2.0 / 3.0
SIZE_TOL = 1e-3                      # sigma_max bisection tolerance
LOSSY_BETA_SQ = (47.0, 150.0)
LOSSY_SIGMAS = tuple(float(s) for s in np.linspace(0.0, 8.0, 9))

# ---- sweep_mix inputs ----
BAND_ALPHA_SQ = tuple(float(a) for a in np.linspace(0.0, 100.0, 41))
BAND_SAMPLES = 1000
GRID_DEG = (0.0, 22.5, 45.0, 67.5)
ORACLE_POINTS = tuple((45.0, tb) for tb in GRID_DEG)
ORACLE_SAMPLES = 200_000
CHSH_GAMMAS = tuple(float(g) for g in np.linspace(0.0, 4.0, 81))
HOM_ETA_D = (0.3, 0.5, 0.8)
HOM_MU = tuple(float(m) for m in np.linspace(0.001, 0.2, 25))
OVERLAP_WINDOWS = tuple(float(w) for w in np.linspace(0.5, 6.0, 23))
OVERLAP_V_E = 0.85
TOMO_W = (1.0, 0.94, 0.7)
TOMO_SEEDS_PER_W = 3
TOMO_SHOTS = 100_000
#: near-pure case kept out of the operations: reconstruct_mle raises
#: ConvergenceError on a share of seeds there; the traced run counts it
NEAR_PURE_W = 0.999
NEAR_PURE_RECONSTRUCTIONS = 8


@dataclass(frozen=True)
class Op:
    name: str                           # unique; keys reference.json
    kind: str                           # selects the output check
    run: Callable[[], object]
    extract: Callable[[object], list]   # plain numbers from the raw result


def _floats(x) -> list:
    return [float(v) for v in np.ravel(x)]


def _seed(seed: int, *stream: int) -> int:
    """A 32-bit seed for one random stream of one benchmark seed."""
    return int(np.random.SeedSequence([seed % 2**31, *stream]).generate_state(1)[0])


def _pg_point(beta_sq: float) -> float:
    pair = macro.macro_components(math.sqrt(beta_sq), macro.default_n_max(beta_sq + 1.0))
    return macro.guessing_probability(pair, 0.0)


def size_scan_ops(seed: int) -> list[Op]:
    """Dense displacement matrices and the smoothing loop (macro, fock)."""
    del seed  # closed forms only: no random stream
    params = noise.ExperimentParams()
    ops = [Op(f"pg[{b:.6g}]", "closed", lambda b=b: _pg_point(b), _floats)
           for b in PG_BETA_SQ]
    ops += [Op(f"size_analysis[{b:.6g}]", "size",
               lambda b=b: macro.size_analysis(math.sqrt(b), SIZE_TARGET),
               lambda r: [r.p_g, r.sigma_max, r.n_eff])
            for b in SIZE_BETA_SQ]
    ops += [Op(f"lossy[{b:.6g}]", "closed",
               lambda b=b: macro.lossy_mixture_guessing(
                   math.sqrt(b / params.eta_abs), params.eta_h, params.eta_abs,
                   LOSSY_SIGMAS),
               _floats)
            for b in LOSSY_BETA_SQ]
    return ops


def _tomo(w: float, rng_seed: int):
    rho = polarization.werner_state(w)
    est = tomography.reconstruct_mle(
        tomography.simulate_tomography(rho, shots=TOMO_SHOTS, rng_seed=rng_seed))
    return rho, est


def _infidelity(pair) -> list:
    rho, est = pair
    return [1.0 - polarization.state_fidelity(rho, est)]


def sweep_mix_ops(seed: int) -> list[Op]:
    """Many small calls: bands, joints, oracle, CHSH, hom, overlap, tomography."""
    params = noise.ExperimentParams()
    dparams = spdc.DetailedParams()
    band_seed = _seed(seed, 1)
    ops = [Op(f"band[{i}]", "band",
              lambda a=a, i=i: noise.witness_band_point(a, params, BAND_SAMPLES,
                                                        band_seed, i),
              _floats)
           for i, a in enumerate(BAND_ALPHA_SQ)]
    ops += [Op(f"joint[{ta:g},{tb:g}]", "closed",
               lambda ta=ta, tb=tb: spdc.joint_probabilities(
                   math.radians(ta), math.radians(tb), dparams),
               lambda j: _floats(j.as_array()))
            for ta in GRID_DEG for tb in GRID_DEG]
    ops += [Op(f"oracle[{ta:g},{tb:g}]", "oracle",
               lambda ta=ta, tb=tb, k=k: spdc.monte_carlo_oracle(
                   math.radians(ta), math.radians(tb), dparams, ORACLE_SAMPLES,
                   _seed(seed, 2, k)),
               lambda e: _floats(e.joints.as_array()) + _floats(e.errors.as_array()))
            for k, (ta, tb) in enumerate(ORACLE_POINTS)]
    ops.append(Op("chsh_curve", "closed",
                  lambda: spdc.detailed_chsh_curve(CHSH_GAMMAS, dparams), _floats))
    ops += [Op(f"hom[{eta:g},{mu:.6g}]", "closed",
               lambda eta=eta, mu=mu: hom.hom_visibility(hom.HomParams(
                   mu_csp=mu, detector=fock.ClickDetector(eta, 0.0))),
               _floats)
            for eta in HOM_ETA_D for mu in HOM_MU]
    ops.append(Op("overlap", "closed",
                  lambda: hom.overlap_vs_window(hom.TemporalProfiles(),
                                                OVERLAP_WINDOWS, OVERLAP_V_E),
                  lambda r: _floats(r[0])))
    ops += [Op(f"tomo[{w:g}]#{j}", "tomo",
               lambda w=w, s=_seed(seed, 3, k, j): _tomo(w, s), _infidelity)
            for k, w in enumerate(TOMO_W) for j in range(TOMO_SEEDS_PER_W)]
    return ops


BUILDERS = {"size_scan": size_scan_ops, "sweep_mix": sweep_mix_ops}


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's operations, with the seed's random streams.

    ``tiny`` keeps the first operation of each group (the name up to ``[``
    or ``#``), for the harness self-check.
    """
    ops = BUILDERS[workload](seed)
    if tiny:
        groups = {}
        for op in ops:
            groups.setdefault(op.name.split("[")[0].split("#")[0], op)
        ops = list(groups.values())
    return ops


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _rel_mismatch(got, want) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} values, reference has {len(want)}"
    for k, (g, w) in enumerate(zip(got, want)):
        if not close(g, w):
            return f"value {k}: {g!r} vs reference {w!r}"
    return None


def check(op: Op, raw, ref: dict, obs: dict) -> str | None:
    """None when the output matches the reference, else why it does not.

    ``obs`` collects observed figures that the traced run reports
    (the oracle's largest deviation in standard errors).
    """
    got = op.extract(raw)
    if not all(math.isfinite(v) for v in got):
        return f"non-finite output {got}"
    want = ref[op.name]
    if op.kind == "closed":
        return _rel_mismatch(got, want)
    if op.kind == "size":
        p_g, s_max, n_eff = got
        if _rel_mismatch([p_g], [want[0]]):
            return f"p_g {p_g!r} vs reference {want[0]!r}"
        if abs(s_max - want[1]) > SIZE_TOL:
            return f"sigma_max {s_max!r} vs reference {want[1]!r} (tol {SIZE_TOL})"
        if n_eff != want[2]:
            return f"n_eff {n_eff} vs reference {want[2]}"
        return None
    if op.kind == "band":
        mean, sd = want
        for g, m, s in zip(got, mean, sd):
            if abs(g - m) > SE_MULTIPLE * s + 1e-15:
                return f"band {got} vs reference {mean} +- {SE_MULTIPLE} x {sd}"
        return None
    if op.kind == "oracle":
        value, se = got[:4], got[4:]
        dev = max(abs(v - a) / s for v, a, s in zip(value, want, se))
        obs["oracle_max_dev_se"] = max(obs.get("oracle_max_dev_se", 0.0), dev)
        if dev > SE_MULTIPLE:
            return f"oracle {value} is {dev:.2f} se from the closed form {want}"
        return None
    if op.kind == "tomo":
        mean, sd = want
        if got[0] > mean + TOMO_SD_MULTIPLE * sd:
            return (f"infidelity {got[0]:.3g} above {mean:.3g} + "
                    f"{TOMO_SD_MULTIPLE} x {sd:.3g}")
        return None
    raise ValueError(f"unknown check kind {op.kind!r}")


def near_pure_failures(seed: int) -> int:
    """ConvergenceError count over NEAR_PURE_RECONSTRUCTIONS at NEAR_PURE_W."""
    failures = 0
    for j in range(NEAR_PURE_RECONSTRUCTIONS):
        try:
            _tomo(NEAR_PURE_W, _seed(seed, 4, j))
        except tomography.ConvergenceError:
            failures += 1
    return failures
