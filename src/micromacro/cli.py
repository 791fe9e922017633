"""Command-line entry point: reproducible CSV (and optional SVG) outputs.

``main`` loads the config, computes, renders and writes, in that order.  Each
``cmd_*`` imports the physics modules it calls, so a run loads no other, maps
``(cfg, seed, meta)`` to its tables and chart specs, and touches neither the
arguments nor the filesystem; ``_write`` renders every file before it writes
the first, so a run that fails at any stage writes nothing.

Every table is stamped with the resolved-config hash, the master seed and the
command, so rerunning a command with the same inputs rewrites identical bytes.
Exit status: 0 on success, 1 on a failed run or failed validation, 2 on usage
errors (from argparse).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import SCHEMA, RunConfig
from .ranges import GRID_DEG
from .svgplot import line_chart
from .tables import ResultTable

#: fixed comparison points measured on the reference setup
REFERENCE_POINTS = {
    "alpha_sq": (0.0, 13.3, 42.0, 86.0),
    "quantity": ("chsh_s", "chsh_s", "chsh_s", "ppt_min_eig"),
    "value": (2.59, 2.099, 1.65, -0.055),
    "tolerance": (0.10, 0.12, 0.10, 0.015),
}


def _point_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def _load(args) -> tuple[RunConfig, int, dict]:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig.defaults()
    seed = args.seed if args.seed is not None else cfg["run.seed"]
    meta = {"config_sha256": cfg.sha256(), "seed": seed, "command": args.command}
    return cfg, seed, meta


def _write(args, tables, charts) -> None:
    """Render the tables and, with ``--svg``, the charts; then write them all.

    A chart spec is ``(name, x, series, title, xlabel, ylabel)``.
    """
    files = [(f"{table.name}.csv", table.to_csv_text()) for table in tables]
    for name, *chart in (charts if args.svg else ()):
        try:
            files.append((f"{name}.svg", line_chart(*chart)))
        except ValueError as exc:
            raise ValueError(f"{name}.svg: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    for name, text in files:
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {path}")


# ---- subcommands: (cfg, seed, meta) -> (tables, chart specs) ----

def cmd_curves(cfg, seed, meta):
    from . import noise
    params = cfg.noise_params()
    grid = np.linspace(cfg["curves.alpha_sq_min"], cfg["curves.alpha_sq_max"],
                       cfg["curves.points"])
    curve = noise.predict_witness_curves(grid, params, cfg["curves.band_samples"], seed)

    table = ResultTable("witness_curves", {
        "alpha_sq": grid, "excitations": curve.excitations, "chsh_s": curve.s,
        "chsh_s_band": curve.band_s, "ppt_min_eig": curve.ppt, "ppt_band": curve.band_ppt,
        "concurrence": curve.concurrence, "concurrence_band": curve.band_concurrence,
    }, meta)

    note = "reference measurements, fixed comparison targets"
    ref = ResultTable("reference_points", REFERENCE_POINTS, dict(meta, note=note))

    chart = ("witness_curves", grid,
             {"S": curve.s,
              "S+band": curve.s + curve.band_s, "S-band": curve.s - curve.band_s},
             "CHSH witness vs displacement size", "alpha_sq", "S")
    return [table, ref], [chart]


def cmd_size(cfg, seed, meta):
    from . import macro
    nparams = cfg.noise_params()
    grid = np.linspace(cfg["size.beta_sq_min"], cfg["size.beta_sq_max"],
                       cfg["size.points"])
    pg = [macro.window_guessing_probability(float(b), 0.0) for b in grid]
    table = ResultTable("size_curve", {"beta_sq": grid, "p_g_ideal": pg}, meta)

    star = cfg["size.beta_sq_star"]
    target = cfg["size.target_p_g"]
    result = macro.size_analysis(math.sqrt(star), target)
    alpha_in = math.sqrt(star / nparams.eta_abs)
    pg_mix = macro.lossy_mixture_guessing(alpha_in, nparams.eta_h,
                                          nparams.eta_abs, [0.0])[0]
    summary = ResultTable.key_value(
        "size_summary",
        {"p_g_ideal": result.p_g, "sigma_max": result.sigma_max, "n_eff": result.n_eff,
         "p_g_mixture_sigma0": pg_mix},
        dict(meta, beta_sq_star=format(star, ".12g"), target_p_g=format(target, ".12g")))

    chart = ("size_curve", grid, {"P_g": pg},
             "Ideal guessing probability vs stored size", "beta_sq", "P_g")
    return [table, summary], [chart]


def cmd_hom(cfg, seed, meta):
    from . import hom
    params = cfg.hom_params()
    v_e = hom.hom_visibility(params)
    mu_grid = np.linspace(cfg["hom.mu_min"], cfg["hom.mu_max"], cfg["hom.points"])
    vis = [hom.hom_visibility(replace(params, mu_csp=float(m))) for m in mu_grid]
    table = ResultTable("hom_visibility", {"mu": mu_grid, "visibility": vis}, meta)

    profiles = cfg.temporal_profiles()
    windows = np.linspace(cfg["hom.window_min"], cfg["hom.window_max"],
                          cfg["hom.window_points"])
    xi, v_m = hom.overlap_vs_window(profiles, windows, v_e)
    overlap = ResultTable("hom_overlap", {"window_ns": windows, "xi": xi, "v_m": v_m},
                          dict(meta, expected_visibility=format(v_e, ".12g")))

    chart = ("hom_visibility", mu_grid, {"V": vis},
             "Interference visibility vs coherent pulse size", "mu", "V")
    return [table, overlap], [chart]


def cmd_detailed(cfg, seed, meta):
    from . import polarization, spdc
    params = cfg.detailed_params()
    deg = np.array(GRID_DEG)
    theta_a, theta_b = np.repeat(deg, len(deg)), np.tile(deg, len(deg))
    th = np.radians(deg)
    joints = spdc.joints(th[:, None], th[None, :], params).reshape(-1, 4)
    corr = spdc.correlator(joints)
    outcomes = ("pp", "pm", "mp", "mm")
    table = ResultTable("detailed_grid", {
        "theta_a_deg": theta_a, "theta_b_deg": theta_b,
        **{f"p_{o}": p for o, p in zip(outcomes, joints.T)}, "correlator": corr,
    }, meta)

    summary = ResultTable.key_value(
        "detailed_summary",
        {"chsh_s": float(spdc.detailed_chsh_curve(params.gamma, params)),
         "herald_probability": spdc.herald_probability(params.g, params.r, params.p_dc)},
        dict(meta, settings_deg=",".join(f"{d:g}" for d in polarization.CHSH_SETTINGS_DEG)))

    tables = [table, summary]
    samples = cfg["detailed.mc_samples"]
    if samples > 0:
        ests = [spdc.monte_carlo_oracle(math.radians(ta), math.radians(tb), params, samples,
                                        _point_seed(seed, i))
                for i, (ta, tb) in enumerate(zip(theta_a, theta_b))]
        mc = np.array([est.joints.as_array() for est in ests])
        se = np.array([est.errors.as_array() for est in ests])
        dev = np.divide(np.abs(joints - mc), se, out=np.zeros_like(se), where=se > 0)
        tables.append(ResultTable("detailed_oracle", {
            "theta_a_deg": np.repeat(theta_a, 4), "theta_b_deg": np.repeat(theta_b, 4),
            "outcome": list(outcomes) * len(theta_a), "analytic": joints.ravel(),
            "mc_value": mc.ravel(), "mc_se": se.ravel(), "deviation_se": dev.ravel(),
        }, dict(meta, mc_samples=samples)))

    series = dict(zip((f"theta_a={ta}" for ta in GRID_DEG), corr.reshape(len(deg), -1)))
    chart = ("detailed_grid", deg, series, "Correlator vs analyzer angle", "theta_b_deg", "E")
    return tables, [chart]


def cmd_tomo(cfg, seed, meta):
    from . import polarization, tomography
    w = cfg["tomo.werner_w"]
    shots = cfg["tomo.shots"]
    rho = polarization.werner_state(w)
    record = tomography.simulate_tomography(rho, shots=shots, rng_seed=seed)
    est = tomography.reconstruct_mle(record)

    summary = ResultTable.key_value("tomo_summary", {
        "werner_w": w, "shots_per_pair": shots,
        "fidelity": polarization.state_fidelity(rho, est),
        "chsh_max": polarization.chsh_maximum(est),
        "ppt_min_eig": polarization.ppt_min_eigenvalue(est),
        "concurrence": polarization.concurrence(est),
    }, meta)

    row, col = np.indices(est.matrix.shape)
    matrix = ResultTable("tomo_matrix", {
        "row": row.ravel(), "col": col.ravel(),
        "re": est.matrix.real.ravel(), "im": est.matrix.imag.ravel(),
    }, meta)
    return [summary, matrix], []


def cmd_validate() -> int:
    from . import validate
    results = validate.run_all()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        tag = "ok" if r.passed else "FAIL"
        print(f"[{tag:>4}] {r.name:<{width}}  {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="micromacro",
        description="Predicted curves and consistency checks for the "
                    "displaced-photon entanglement models.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    def seed(text: str) -> int:
        """An int in ``run.seed``'s range."""
        value = int(text)
        try:
            return SCHEMA["run.seed"][0].check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    seed.__name__ = "int"  # argparse names it in "invalid int value"

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="run configuration file (section.key = value)")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")
    common.add_argument("--seed", type=seed, default=None,
                        help="master seed (overrides run.seed)")
    common.add_argument("--svg", action="store_true",
                        help="also write SVG charts")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("curves", parents=[common],
                   help="witness curves vs displacement size").set_defaults(func=cmd_curves)
    sub.add_parser("size", parents=[common],
                   help="distinguishability and effective size").set_defaults(func=cmd_size)
    sub.add_parser("hom", parents=[common],
                   help="two-photon interference visibility").set_defaults(func=cmd_hom)
    sub.add_parser("detailed", parents=[common],
                   help="detailed source model grid").set_defaults(func=cmd_detailed)
    sub.add_parser("tomo", parents=[common],
                   help="synthetic tomography round trip").set_defaults(func=cmd_tomo)
    sub.add_parser("validate",
                   help="run the consistency checks").set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return args.func()
        cfg, seed, meta = _load(args)
        _write(args, *args.func(cfg, seed, meta))
        return 0
    except (OSError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
