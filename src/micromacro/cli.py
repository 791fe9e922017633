"""Command-line entry point: reproducible CSV (and optional SVG) outputs.

``main`` loads the config, computes, renders and writes, in that order.  Each
``cmd_*`` maps ``(cfg, seed, meta)`` to its tables and chart specs and touches
neither the arguments nor the filesystem; ``_write`` renders every file before
it writes the first, so a run that fails at any stage writes nothing.

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

import numpy as np

from . import __version__, macro, noise, polarization, spdc, tomography
from . import hom as hom_mod
from . import validate as validate_mod
from .config import SCHEMA, RunConfig
from .spdc import GRID_DEG
from .svgplot import line_chart
from .tables import ResultTable

#: fixed comparison points measured on the reference setup
REFERENCE_POINTS = (
    (0.0, "chsh_s", 2.59, 0.10),
    (13.3, "chsh_s", 2.099, 0.12),
    (42.0, "chsh_s", 1.65, 0.10),
    (86.0, "ppt_min_eig", -0.055, 0.015),
)


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
    params = cfg.noise_params()
    grid = np.linspace(cfg["curves.alpha_sq_min"], cfg["curves.alpha_sq_max"],
                       cfg["curves.points"])
    curve = noise.predict_witness_curves(grid, params, cfg["curves.band_samples"], seed)

    table = ResultTable(
        "witness_curves",
        ["alpha_sq", "excitations", "chsh_s", "chsh_s_band", "ppt_min_eig",
         "ppt_band", "concurrence", "concurrence_band"],
        meta=meta,
    )
    for row in zip(grid, curve.excitations, curve.s, curve.band_s, curve.ppt,
                   curve.band_ppt, curve.concurrence, curve.band_concurrence):
        table.add_row(*map(float, row))

    note = "reference measurements, fixed comparison targets"
    ref = ResultTable("reference_points", ["alpha_sq", "quantity", "value", "tolerance"],
                      meta=dict(meta, note=note))
    for row in REFERENCE_POINTS:
        ref.add_row(*row)

    chart = ("witness_curves", grid,
             {"S": curve.s,
              "S+band": curve.s + curve.band_s, "S-band": curve.s - curve.band_s},
             "CHSH witness vs displacement size", "alpha_sq", "S")
    return [table, ref], [chart]


def cmd_size(cfg, seed, meta):
    nparams = cfg.noise_params()
    grid = np.linspace(cfg["size.beta_sq_min"], cfg["size.beta_sq_max"],
                       cfg["size.points"])
    pg = [macro.window_guessing_probability(float(b), 0.0) for b in grid]

    table = ResultTable("size_curve", ["beta_sq", "p_g_ideal"], meta=meta)
    for b, p in zip(grid, pg):
        table.add_row(float(b), p)

    star = cfg["size.beta_sq_star"]
    target = cfg["size.target_p_g"]
    result = macro.size_analysis(math.sqrt(star), target)
    alpha_in = math.sqrt(star / nparams.eta_abs)
    pg_mix = macro.lossy_mixture_guessing(alpha_in, nparams.eta_h,
                                          nparams.eta_abs, [0.0])[0]
    summary = ResultTable("size_summary", ["key", "value"],
                          meta=dict(meta, beta_sq_star=format(star, ".12g"),
                                    target_p_g=format(target, ".12g")))
    summary.add_row("p_g_ideal", result.p_g)
    summary.add_row("sigma_max", result.sigma_max)
    summary.add_row("n_eff", result.n_eff)
    summary.add_row("p_g_mixture_sigma0", float(pg_mix))

    chart = ("size_curve", grid, {"P_g": pg},
             "Ideal guessing probability vs stored size", "beta_sq", "P_g")
    return [table, summary], [chart]


def cmd_hom(cfg, seed, meta):
    params = cfg.hom_params()
    v_e = hom_mod.hom_visibility(params)
    mu_grid = np.linspace(cfg["hom.mu_min"], cfg["hom.mu_max"], cfg["hom.points"])
    vis = hom_mod.hom_visibility_curve(mu_grid, params)

    table = ResultTable("hom_visibility", ["mu", "visibility"], meta=meta)
    for m, v in zip(mu_grid, vis):
        table.add_row(float(m), float(v))

    profiles = cfg.temporal_profiles()
    windows = np.linspace(cfg["hom.window_min"], cfg["hom.window_max"],
                          cfg["hom.window_points"])
    xi, v_m = hom_mod.overlap_vs_window(profiles, windows, v_e)
    overlap = ResultTable("hom_overlap", ["window_ns", "xi", "v_m"],
                          meta=dict(meta, expected_visibility=format(v_e, ".12g")))
    for w, x, v in zip(windows, xi, v_m):
        overlap.add_row(float(w), float(x), float(v))

    chart = ("hom_visibility", mu_grid, {"V": vis},
             "Interference visibility vs coherent pulse size", "mu", "V")
    return [table, overlap], [chart]


def cmd_detailed(cfg, seed, meta):
    params = cfg.detailed_params()
    grid = [(ta, tb) for ta in GRID_DEG for tb in GRID_DEG]
    joints = [spdc.joint_probabilities(math.radians(ta), math.radians(tb), params)
              for ta, tb in grid]
    table = ResultTable(
        "detailed_grid",
        ["theta_a_deg", "theta_b_deg", "p_pp", "p_pm", "p_mp", "p_mm",
         "correlator"],
        meta=meta,
    )
    for (ta, tb), j in zip(grid, joints):
        table.add_row(ta, tb, j.p_pp, j.p_pm, j.p_mp, j.p_mm, j.correlator())

    summary = ResultTable(
        "detailed_summary", ["key", "value"],
        meta=dict(meta, settings_deg=",".join(
            f"{d:g}" for d in polarization.CHSH_SETTINGS_DEG)),
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
            meta=dict(meta, mc_samples=samples),
        )
        for i, ((ta, tb), joint) in enumerate(zip(grid, joints)):
            est = spdc.monte_carlo_oracle(math.radians(ta), math.radians(tb), params,
                                          samples, _point_seed(seed, i))
            for name, ana, val, se in zip(("pp", "pm", "mp", "mm"), joint.as_array(),
                                          est.joints.as_array(), est.errors.as_array()):
                dev = abs(ana - val) / se if se > 0 else 0.0
                oracle.add_row(ta, tb, name, float(ana), float(val), float(se), float(dev))
        tables.append(oracle)

    series = {f"theta_a={ta}": [j.correlator() for (a, _), j in zip(grid, joints)
                                if a == ta]
              for ta in GRID_DEG}
    chart = ("detailed_grid", np.array(GRID_DEG), series,
             "Correlator vs analyzer angle", "theta_b_deg", "E")
    return tables, [chart]


def cmd_tomo(cfg, seed, meta):
    w = cfg["tomo.werner_w"]
    shots = cfg["tomo.shots"]
    rho = polarization.werner_state(w)
    record = tomography.simulate_tomography(rho, shots=shots, rng_seed=seed)
    est = tomography.reconstruct_mle(record)

    summary = ResultTable("tomo_summary", ["key", "value"], meta=meta)
    summary.add_row("werner_w", w)
    summary.add_row("shots_per_pair", shots)
    summary.add_row("fidelity", polarization.state_fidelity(rho, est))
    summary.add_row("chsh_max", polarization.chsh_maximum(est))
    summary.add_row("ppt_min_eig", polarization.ppt_min_eigenvalue(est))
    summary.add_row("concurrence", polarization.concurrence(est))

    matrix = ResultTable("tomo_matrix", ["row", "col", "re", "im"], meta=meta)
    for (i, j), z in np.ndenumerate(est.matrix):
        matrix.add_row(i, j, float(z.real), float(z.imag))
    return [summary, matrix], []


def cmd_validate() -> int:
    results = validate_mod.run_all()
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
