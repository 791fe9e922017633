"""Regenerate ``reference.json``, the expected outputs the benchmark checks.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

Closed-form outputs are stored as computed.  Sampled outputs are stored as
the mean and standard deviation of the operation over REPEATS independent
seeds, so a run passes when it lands within SE_MULTIPLE of them.  Takes about
three minutes on one core.  Rerun only for a change that is meant to move an
output, and say so where the change is described.
"""
from __future__ import annotations

import io
import json
import platform
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import scipy

import clichain
import workloads
from common import TOMO_SD_MULTIPLE
from micromacro import cli, config

REPEATS = 100
FIRST_SEED = 1_000_000
WORK = Path(__file__).resolve().parent.parent / ".perfbench_work" / "reference"

# closed-form CSV columns, and key/value rows with their absolute tolerance
# (None: common.REL_TOL relative)
CLI_COLUMNS = {
    "witness_curves": ("chsh_s", "ppt_min_eig", "concurrence"),
    "size_curve": ("p_g_ideal",),
    "hom_visibility": ("visibility",),
    "hom_overlap": ("xi", "v_m"),
    "detailed_grid": ("p_pp", "p_pm", "p_mp", "p_mm", "correlator"),
    "detailed_oracle": ("analytic",),
}
CLI_KEYED = {
    "size_summary": {"p_g_ideal": None, "sigma_max": workloads.SIZE_TOL,
                     "n_eff": 0.0, "p_g_mixture_sigma0": None},
    "detailed_summary": {"chsh_s": None, "herald_probability": None},
}


def closed_outputs(ops) -> dict:
    return {op.name: op.extract(op.run()) for op in ops
            if op.kind in ("closed", "size")}


def sampled_outputs() -> dict:
    """Mean and spread of every sampled sweep_mix operation over REPEATS seeds."""
    draws: dict[str, list] = {}
    for seed in range(FIRST_SEED, FIRST_SEED + REPEATS):
        for op in workloads.sweep_mix_ops(seed):
            if op.kind == "band":
                draws.setdefault(op.name, []).append(op.extract(op.run()))
            elif op.kind == "tomo":
                # the seeds of one w share a distribution: pool them
                draws.setdefault(op.name.split("#")[0], []).append(op.extract(op.run()))
    out = {}
    for name, values in draws.items():
        arr = np.array(values)
        stats = [arr.mean(axis=0).tolist(), arr.std(axis=0, ddof=1).tolist()]
        if name.startswith("tomo"):
            for j in range(workloads.TOMO_SEEDS_PER_W):
                out[f"{name}#{j}"] = [stats[0][0], stats[1][0]]
            worst = arr.max() / (stats[0][0] + TOMO_SD_MULTIPLE * stats[1][0])
            print(f"{name}: worst infidelity is {worst:.2f} of the check's limit")
        else:
            out[name] = stats
    return out


def cli_outputs(tomo_stats) -> dict:
    defaults = config.RunConfig.defaults()
    if defaults["tomo.shots"] != workloads.TOMO_SHOTS:
        raise SystemExit("tomo.shots default changed: update TOMO_SHOTS")
    WORK.mkdir(parents=True, exist_ok=True)
    cfg = WORK / "cli.cfg"
    cfg.write_text(clichain.CONFIG_TEXT, encoding="utf-8")
    for cmd in clichain.CHAIN:
        if cmd != "validate":
            with redirect_stdout(io.StringIO()):
                if cli.main(clichain.argv(cmd, cfg, WORK, 0)) != 0:
                    raise SystemExit(f"{cmd} failed")
    columns, keyed = {}, {}
    for table, names in CLI_COLUMNS.items():
        header, rows = clichain.read_csv(WORK / f"{table}.csv")
        columns[table] = {n: [float(r[header.index(n)]) for r in rows] for n in names}
    for table, tols in CLI_KEYED.items():
        _, rows = clichain.read_csv(WORK / f"{table}.csv")
        values = {r[0]: float(r[1]) for r in rows}
        keyed[table] = {k: [values[k], tol] for k, tol in tols.items()}
    return {"columns": columns, "keyed": keyed,
            "tomo_infidelity": tomo_stats[f"tomo[{defaults['tomo.werner_w']:g}]#0"]}


def main() -> None:
    size = closed_outputs(workloads.size_scan_ops(0))
    mix_ops = workloads.sweep_mix_ops(0)
    mix = closed_outputs(mix_ops)
    for op in mix_ops:
        if op.kind == "oracle":
            mix[op.name] = mix[op.name.replace("oracle", "joint")]
    mix.update(sampled_outputs())
    ref = {
        "generated_with": {"python": platform.python_version(),
                           "numpy": np.__version__, "scipy": scipy.__version__,
                           "repeats": REPEATS},
        "size_scan": size,
        "sweep_mix": mix,
        "cli_cold": cli_outputs(mix),
    }
    text = json.dumps(ref, indent=1, sort_keys=True, allow_nan=False)
    workloads.REFERENCE_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
