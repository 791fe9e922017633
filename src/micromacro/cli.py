"""Command-line entry point: reproducible CSV (and optional SVG) outputs.

Every table is stamped with the resolved-config hash and the master seed, so
rerunning a command with the same inputs rewrites identical bytes.  Exit
status: 0 on success, 1 on a failed run or failed validation, 2 on usage
errors (from argparse).
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, macro, noise, polarization, spdc, tomography
from . import hom as hom_mod
from . import validate as validate_mod
from .config import ConfigError, RunConfig
from .fock import ClickDetector
from .svgplot import write_chart
from .tables import ResultTable

GRID_DEG = (0.0, 22.5, 45.0, 67.5)

#: fixed comparison points measured on the reference setup
REFERENCE_POINTS = (
    (0.0, "chsh_s", 2.59, 0.10),
    (13.3, "chsh_s", 2.099, 0.12),
    (42.0, "chsh_s", 1.65, 0.10),
    (86.0, "ppt_min_eig", -0.055, 0.015),
)


def _point_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


# ---- subcommands ----

def _load(args) -> tuple[RunConfig, int, dict]:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig.defaults()
    seed = args.seed if args.seed is not None else cfg["run.seed"]
    meta = {"config_sha256": cfg.sha256(), "seed": seed}
    return cfg, seed, meta


def _emit(args, *tables: ResultTable) -> None:
    """Write a run's tables once all are built: a failed run writes none."""
    os.makedirs(args.out, exist_ok=True)
    for table in tables:
        path = os.path.join(args.out, f"{table.name}.csv")
        table.write_csv(path)
        print(f"wrote {path}")


def _emit_chart(args, name, x, series, title, xlabel, ylabel) -> None:
    if not args.svg:
        return
    path = os.path.join(args.out, f"{name}.svg")
    write_chart(path, x, series, title, xlabel, ylabel)
    print(f"wrote {path}")


def cmd_curves(args) -> int:
    cfg, seed, meta = _load(args)
    params = cfg.noise_params()
    grid = np.linspace(cfg["curves.alpha_sq_min"], cfg["curves.alpha_sq_max"],
                       cfg["curves.points"])
    curve = noise.predict_witness_curves(grid, params, cfg["curves.band_samples"], seed)

    table = ResultTable(
        "witness_curves",
        ["alpha_sq", "excitations", "chsh_s", "chsh_s_band", "ppt_min_eig",
         "ppt_band", "concurrence", "concurrence_band"],
        meta=dict(meta, command="curves"),
    )
    for row in zip(grid, curve.excitations, curve.s, curve.band_s, curve.ppt,
                   curve.band_ppt, curve.concurrence, curve.band_concurrence):
        table.add_row(*map(float, row))

    ref = ResultTable(
        "reference_points",
        ["alpha_sq", "quantity", "value", "tolerance"],
        meta=dict(meta, command="curves",
                  note="reference measurements, fixed comparison targets"),
    )
    for row in REFERENCE_POINTS:
        ref.add_row(*row)
    _emit(args, table, ref)

    _emit_chart(args, "witness_curves", grid,
                {"S": curve.s,
                 "S+band": curve.s + curve.band_s, "S-band": curve.s - curve.band_s},
                "CHSH witness vs displacement size", "alpha_sq", "S")
    return 0


def cmd_size(args) -> int:
    cfg, seed, meta = _load(args)
    nparams = cfg.noise_params()
    grid = np.linspace(cfg["size.beta_sq_min"], cfg["size.beta_sq_max"],
                       cfg["size.points"])
    pg = []
    for b in map(float, grid):
        pair = macro.macro_components(math.sqrt(b), macro.default_n_max(b + 1.0))
        pg.append(macro.guessing_probability(pair, 0.0))

    table = ResultTable("size_curve", ["beta_sq", "p_g_ideal"],
                        meta=dict(meta, command="size"))
    for b, p in zip(grid, pg):
        table.add_row(float(b), p)

    star = cfg["size.beta_sq_star"]
    target = cfg["size.target_p_g"]
    result = macro.size_analysis(math.sqrt(star), target)
    alpha_in = math.sqrt(star / nparams.eta_abs)
    pg_mix = macro.lossy_mixture_guessing(alpha_in, nparams.eta_h,
                                          nparams.eta_abs, [0.0])[0]
    summary = ResultTable(
        "size_summary", ["key", "value"],
        meta=dict(meta, command="size", beta_sq_star=format(star, ".12g"),
                  target_p_g=format(target, ".12g")),
    )
    summary.add_row("p_g_ideal", result.p_g)
    summary.add_row("sigma_max", result.sigma_max)
    summary.add_row("n_eff", result.n_eff)
    summary.add_row("p_g_mixture_sigma0", float(pg_mix))
    _emit(args, table, summary)

    _emit_chart(args, "size_curve", grid, {"P_g": pg},
                "Ideal guessing probability vs stored size", "beta_sq", "P_g")
    return 0


def _hom_params(cfg, mu: float) -> hom_mod.HomParams:
    return hom_mod.HomParams(
        mu_csp=mu, p_pair=cfg["hom.p_pair"], eta_h=cfg["hom.eta_h"],
        xi=cfg["hom.xi"],
        detector=ClickDetector(cfg["hom.eta_d"], cfg["hom.p_dc"]),
    )


def cmd_hom(args) -> int:
    cfg, seed, meta = _load(args)
    params = _hom_params(cfg, cfg["hom.mu_star"])
    v_e = hom_mod.hom_visibility(params)
    mu_grid = np.linspace(cfg["hom.mu_min"], cfg["hom.mu_max"], cfg["hom.points"])
    vis = hom_mod.hom_visibility_curve(mu_grid, params)

    table = ResultTable("hom_visibility", ["mu", "visibility"],
                        meta=dict(meta, command="hom"))
    for m, v in zip(mu_grid, vis):
        table.add_row(float(m), float(v))

    profiles = hom_mod.TemporalProfiles(cfg["hom.csp_fwhm"], cfg["hom.hsp_tau_c"])
    windows = np.linspace(cfg["hom.window_min"], cfg["hom.window_max"],
                          cfg["hom.window_points"])
    xi, v_m = hom_mod.overlap_vs_window(profiles, windows, v_e)
    overlap = ResultTable(
        "hom_overlap", ["window_ns", "xi", "v_m"],
        meta=dict(meta, command="hom", expected_visibility=format(v_e, ".12g")),
    )
    for w, x, v in zip(windows, xi, v_m):
        overlap.add_row(float(w), float(x), float(v))
    _emit(args, table, overlap)

    _emit_chart(args, "hom_visibility", mu_grid, {"V": vis},
                "Interference visibility vs coherent pulse size", "mu", "V")
    return 0


def cmd_detailed(args) -> int:
    cfg, seed, meta = _load(args)
    params = cfg.detailed_params()
    grid = [(ta, tb) for ta in GRID_DEG for tb in GRID_DEG]
    joints = [spdc.joint_probabilities(math.radians(ta), math.radians(tb), params)
              for ta, tb in grid]
    table = ResultTable(
        "detailed_grid",
        ["theta_a_deg", "theta_b_deg", "p_pp", "p_pm", "p_mp", "p_mm",
         "correlator"],
        meta=dict(meta, command="detailed"),
    )
    for (ta, tb), j in zip(grid, joints):
        table.add_row(ta, tb, j.p_pp, j.p_pm, j.p_mp, j.p_mm, j.correlator())

    summary = ResultTable(
        "detailed_summary", ["key", "value"],
        meta=dict(meta, command="detailed",
                  settings_deg=",".join(f"{d:g}" for d in polarization.CHSH_SETTINGS_DEG)),
    )
    summary.add_row("chsh_s", spdc.chsh_from_detailed(params))
    summary.add_row("herald_probability",
                    spdc.herald_probability(params.g, params.r, params.p_dc))

    tables = [table, summary]
    samples = cfg["detailed.mc_samples"]
    if samples > 0:
        oracle = ResultTable(
            "detailed_oracle",
            ["theta_a_deg", "theta_b_deg", "outcome", "analytic", "mc_value",
             "mc_se", "deviation_se"],
            meta=dict(meta, command="detailed", mc_samples=samples),
        )
        for i, ((ta, tb), joint) in enumerate(zip(grid, joints)):
            est = spdc.monte_carlo_oracle(math.radians(ta), math.radians(tb), params,
                                          samples, _point_seed(seed, i))
            ana = joint.as_array()
            for k, name in enumerate(("pp", "pm", "mp", "mm")):
                val = est.joints.as_array()[k]
                se = est.errors.as_array()[k]
                dev = abs(ana[k] - val) / se if se > 0 else 0.0
                oracle.add_row(ta, tb, name, float(ana[k]), float(val),
                               float(se), float(dev))
        tables.append(oracle)
    _emit(args, *tables)

    if args.svg:
        x = np.array(GRID_DEG)
        series = {
            f"theta_a={ta}": [j.correlator() for (a, _), j in zip(grid, joints)
                              if a == ta]
            for ta in GRID_DEG
        }
        _emit_chart(args, "detailed_grid", x, series,
                    "Correlator vs analyzer angle", "theta_b_deg", "E")
    return 0


def cmd_tomo(args) -> int:
    cfg, seed, meta = _load(args)
    w = cfg["tomo.werner_w"]
    shots = cfg["tomo.shots"]
    rho = polarization.werner_state(w)
    record = tomography.simulate_tomography(rho, shots=shots, rng_seed=seed)
    est = tomography.reconstruct_mle(record)

    summary = ResultTable("tomo_summary", ["key", "value"],
                          meta=dict(meta, command="tomo"))
    summary.add_row("werner_w", w)
    summary.add_row("shots_per_pair", shots)
    summary.add_row("fidelity", polarization.state_fidelity(rho, est))
    summary.add_row("chsh_max", polarization.chsh_maximum(est))
    summary.add_row("ppt_min_eig", polarization.ppt_min_eigenvalue(est))
    summary.add_row("concurrence", polarization.concurrence(est))

    matrix = ResultTable("tomo_matrix", ["row", "col", "re", "im"],
                         meta=dict(meta, command="tomo"))
    for i in range(4):
        for j in range(4):
            matrix.add_row(i, j, float(est.matrix[i, j].real),
                           float(est.matrix[i, j].imag))
    _emit(args, summary, matrix)
    return 0


def cmd_validate(args) -> int:
    results = validate_mod.run_all()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        tag = "ok" if r.passed else "FAIL"
        print(f"[{tag:>4}] {r.name:<{width}}  {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _int_from(lo: int):
    """Argparse type: an integer of at least ``lo``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="micromacro",
        description="Predicted curves and consistency checks for the "
                    "displaced-photon entanglement models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="run configuration file (section.key = value)")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")
    common.add_argument("--seed", type=_int_from(0), default=None,
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
    sub.add_parser("validate", parents=[common],
                   help="run the consistency checks").set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
