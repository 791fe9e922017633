"""One benchmark process: import the package, build inputs, run timed passes.

Started by ``run.py`` with the BLAS thread variables pinned and ``src`` on
``PYTHONPATH``.  Prints ``ready`` once set-up is done (the parent times
set-up up to that line), then one JSON line with the pass times, operation
counts, failures and, when traced, the per-layer figures.

    python3 perfbench/worker.py --workload size_scan --seed 1 --seconds 10 \
        --trace 0 --work .perfbench_work [--setup-only] [--tiny]
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import micromacro  # noqa: F401  (set-up includes the package import)

import clichain
import workloads
from common import Tally, timed_passes
from tracer import Tracer

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class OpsWorkload:
    """size_scan or sweep_mix: the operations of ``workloads.py``."""

    def __init__(self, name, seed, tiny, work):
        self.name = name
        self.seed = seed
        self.ops = workloads.build(name, seed, tiny)
        self.ref = workloads.load_reference(name)
        self.obs: dict = {}

    def one_pass(self, tally: Tally) -> float:
        results = []
        t0 = time.perf_counter()
        for op in self.ops:
            try:
                results.append((op, op.run(), None))
            except Exception as exc:  # a raising operation is a failed one
                results.append((op, None, f"raised {type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - t0
        for op, raw, problem in results:
            if problem is None:
                try:
                    problem = workloads.check(op, raw, self.ref, self.obs)
                except Exception as exc:  # a check that cannot run is a failure
                    problem = f"check raised {type(exc).__name__}: {exc}"
            tally.record(problem and f"{op.name}: {problem}")
        return wall

    def extra_layers(self, untraced_passes: int) -> dict:
        out = {}
        if "oracle_max_dev_se" in self.obs:
            out["spdc.oracle_max_dev_se"] = self.obs["oracle_max_dev_se"]
        if self.name == "sweep_mix":
            out["tomography.near_pure_failures"] = workloads.near_pure_failures(self.seed)
        return out

    def reset_times(self) -> None:
        pass


class CliWorkload:
    """cli_cold's chain run as ``cli.main(argv)`` calls in this warm process."""

    def __init__(self, name, seed, tiny, work):
        from micromacro import cli
        self.cli = cli
        self.seed = seed % 2**31
        self.out = Path(work) / "inproc"
        self.config = Path(work) / "inproc.cfg"
        self.config.write_text(clichain.CONFIG_TEXT, encoding="utf-8")
        self.ref = clichain.load_reference()
        self.cmd_s: dict[str, list[float]] = {cmd: [] for cmd in clichain.CHAIN}

    def one_pass(self, tally: Tally) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        runs = []
        t0 = time.perf_counter()
        for cmd in clichain.CHAIN:
            buf = io.StringIO()
            t = time.perf_counter()
            try:
                with redirect_stdout(buf):
                    code = self.cli.main(clichain.argv(cmd, self.config, self.out,
                                                       self.seed))
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a raising subcommand is a failed one
                code = 1
                buf.write(f"{type(exc).__name__}: {exc}\n")
            self.cmd_s[cmd].append(time.perf_counter() - t)
            runs.append((cmd, code, buf.getvalue()))
        wall = time.perf_counter() - t0
        for cmd, code, text in runs:
            tally.record(clichain.check(cmd, code, text, self.out, self.ref))
        return wall

    def reset_times(self) -> None:
        for times in self.cmd_s.values():
            times.clear()

    def extra_layers(self, untraced_passes: int) -> dict:
        return {f"cli.{cmd}.inproc_s": statistics.median(v[:untraced_passes])
                for cmd, v in self.cmd_s.items() if v}


def layer_figures(tracer: Tracer, passes: int) -> dict:
    """Per-pass calls and seconds of every traced function, plus ratios."""
    totals = tracer.totals()
    out = {}
    for name, e in totals.items():
        out[f"{name}.calls"] = e["calls"] / passes
        out[f"{name}.s"] = e["s"] / passes

    def rate(name):
        e = totals.get(name)
        return e["work"] / e["s"] if e and e["s"] > 0 else 0.0

    def per(name, ancestor, direct=False):
        calls = totals.get(ancestor, {}).get("calls", 0)
        return tracer.count_within(name, ancestor, direct) / calls if calls else 0.0

    mle = totals.get("tomography.reconstruct_mle")
    out["tomography.reconstruct_mle.max_ms"] = 1e3 * mle["max_s"] if mle else 0.0
    out["noise.band_samples_per_s"] = rate("noise.witness_band_point")
    out["spdc.oracle_samples_per_s"] = rate("spdc.monte_carlo_oracle")
    out["macro.components_per_size_analysis"] = per("macro.macro_components",
                                                    "macro.size_analysis")
    out["macro.sigma_max_per_size_analysis"] = per("macro.sigma_max",
                                                   "macro.size_analysis")
    from micromacro import cli
    points = len(getattr(cli, "GRID_DEG", ())) ** 2
    out["cli.detailed.joint_evals_per_point"] = (
        per("spdc.joint_probabilities", "cli.cmd_detailed", direct=True) / points
        if points else 0.0)
    return out


def env_record() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "pinned": {k: os.environ.get(k) for k in PINNED}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_cold", "size_scan", "sweep_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    kind = CliWorkload if args.workload == "cli_cold" else OpsWorkload
    workload = kind(args.workload, args.seed, args.tiny, args.work)
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"env": env_record()}))
        return 0

    tally = Tally()
    share = args.seconds / 2 if args.trace else args.seconds
    if args.trace:
        # warm caches first, so the overhead compares like with like
        workload.one_pass(tally)
        workload.reset_times()
    walls = timed_passes(share, lambda: workload.one_pass(tally))
    result = {"walls": walls}
    if args.trace:
        tracer = Tracer()
        result["untraced"] = tracer.install()
        traced = timed_passes(share, lambda: workload.one_pass(tally))
        layers = layer_figures(tracer, len(traced))
        layers.update(workload.extra_layers(len(walls)))
        base = statistics.median(walls)
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced) - base) / base
        result["layers"] = layers
    result.update(tally.as_dict(), env=env_record())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
