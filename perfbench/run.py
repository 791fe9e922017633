"""micromacro benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {cli_cold,size_scan,sweep_mix} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every child process runs with the BLAS
thread variables pinned to 1, one at a time.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``).  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import clichain
from common import Tally, timed_passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5          # fresh interpreters per run: setup_s samples, workers
IMPORTTIME_PROBES = 3      # fresh ``-X importtime`` imports per traced run
DEADLINE_S = 170.0         # the whole run, children included
IMPORT_LAYERS = {"micromacro_ms": "micromacro", "scipy_stats_ms": "scipy.stats",
                 "scipy_linalg_ms": "scipy.linalg",
                 "scipy_optimize_ms": "scipy.optimize",
                 "scipy_integrate_ms": "scipy.integrate"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Clock:
    """Time left before the run's deadline."""

    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.start)
        if left <= 0:
            raise HarnessError(f"run exceeded {DEADLINE_S:.0f} s")
        return left


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def _reap(proc: subprocess.Popen):
    """Wait for ``proc``; return its resource usage (peak RSS included)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_process(argv: list[str], timeout: float) -> tuple[int, float, float, str]:
    """(exit code, wall seconds, peak RSS in MB, output) of one fresh process."""
    with open(WORK / "child.out", "w+b") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            usage = _reap(proc)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        out.seek(0)
        text = out.read().decode("utf-8", errors="replace")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, text


def run_worker(args: list[str], timeout: float) -> tuple[float, dict, float]:
    """(set-up seconds, result object, peak RSS in MB) of one worker process."""
    with open(WORK / "worker.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                                 "--work", str(WORK), *args],
                                stdout=subprocess.PIPE, stderr=err, text=True,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
            usage = _reap(proc)
        finally:
            timer.cancel()
            proc.stdout.close()
        err.seek(0)
        errors = err.read().decode("utf-8", errors="replace")
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited with {proc.returncode}:\n{errors[-3000:]}")
    return setup, json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def importtime_probe(timeout: float) -> tuple[dict, int]:
    """Cumulative import microseconds per module, and modules loaded."""
    code, _, _, text = run_process(
        [sys.executable, "-X", "importtime", "-c",
         "import sys, micromacro; print('modules', len(sys.modules))"], timeout)
    if code != 0:
        raise HarnessError(f"import micromacro failed:\n{text[-3000:]}")
    cumulative = {}
    for m in re.finditer(r"^import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)$", text, re.M):
        cumulative.setdefault(m.group(3), int(m.group(2)))
    modules = re.search(r"^modules (\d+)$", text, re.M)
    return cumulative, int(modules.group(1)) if modules else 0


def git_commit() -> str:
    """HEAD of the checkout, read without git; 'unknown' outside a repository."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in SRC.rglob("*.py"))


def cli_pass(seed: int, clock: Clock, ref: dict, tally: Tally) -> tuple[float, float, dict]:
    """One pass of the chain in fresh processes: wall, peak RSS, per-command s."""
    out = WORK / "cli"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = WORK / "cli.cfg"
    config.write_text(clichain.CONFIG_TEXT, encoding="utf-8")
    runs, cmd_s, rss = [], {}, 0.0
    t0 = time.perf_counter()
    for cmd in clichain.CHAIN:
        code, wall, peak, text = run_process(
            [sys.executable, "-m", "micromacro.cli",
             *clichain.argv(cmd, config, out, seed % 2**31)], clock.left())
        runs.append((cmd, code, text))
        cmd_s[cmd] = wall
        rss = max(rss, peak)
    wall = time.perf_counter() - t0
    for cmd, code, text in runs:
        tally.record(clichain.check(cmd, code, text, out, ref))
    return wall, rss, cmd_s


def cli_passes(seed, seconds, clock, tally):
    """Pass walls, pass peak RSS and per-command seconds, each a list."""
    ref = clichain.load_reference()
    passes = timed_passes(seconds, lambda: cli_pass(seed, clock, ref, tally))
    walls, rss, per_cmd = zip(*passes)
    return list(walls), list(rss), {cmd: [p[cmd] for p in per_cmd]
                                     for cmd in clichain.CHAIN}


def measure(args, clock: Clock) -> tuple[dict, Tally, dict]:
    """(metrics, tally, environment record) of one run."""
    tally = Tally()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    tiny = ["--tiny"] if args.tiny else []
    samples = 1 if args.tiny else SETUP_SAMPLES
    import_probes = 1 if args.tiny else IMPORTTIME_PROBES
    metrics, env = {}, {}

    if not args.trace:
        setups = []

        def probe_setup(n):
            for _ in range(n):
                setup, result, _ = run_worker(base + tiny + ["--setup-only"],
                                              clock.left())
                setups.append(setup)
                env.update(result["env"])

        if args.workload == "cli_cold":
            # probes before and after the passes, so one slow spell of the
            # machine does not set the whole median
            probe_setup(samples // 2)
            walls, rss, _ = cli_passes(args.seed, args.seconds, clock, tally)
            probe_setup(samples - samples // 2)
        else:
            # several workers share the passes: a process's speed depends on
            # its memory layout, and one process would carry that bias whole
            walls, rss = [], []
            for _ in range(samples):
                setup, result, peak = run_worker(
                    base + tiny + ["--seconds", str(args.seconds / samples)],
                    clock.left())
                setups.append(setup)
                walls += result["walls"]
                rss.append(peak)
                env.update(result["env"])
                tally.absorb(result)
        metrics.update(setup_s=statistics.median(setups),
                       wall_s=statistics.median(walls),
                       peak_rss_mb=statistics.median(rss))
        env["passes"] = len(walls)
        imports = [importtime_probe(clock.left())]
    else:
        imports = [importtime_probe(clock.left()) for _ in range(import_probes)]
        seconds = args.seconds
        if args.workload == "cli_cold":
            _, _, cmd_s = cli_passes(args.seed, seconds / 2, clock, tally)
            metrics.update({f"cli.{cmd}.process_s": statistics.median(v)
                            for cmd, v in cmd_s.items()})
            seconds /= 2
        _, result, _ = run_worker(
            base + tiny + ["--seconds", str(seconds), "--trace", "1"], clock.left())
        tally.absorb(result)
        env = result["env"]
        metrics.update(result["layers"])
        for name, module in IMPORT_LAYERS.items():
            metrics[f"import.{name}"] = statistics.median(
                c.get(module, 0) / 1e3 for c, _ in imports)
        metrics["import.modules_loaded"] = statistics.median(n for _, n in imports)
        metrics["repo.src_loc"] = src_lines()
        env["untraced_targets"] = result["untraced"]

    top = sorted(imports[0][0].items(), key=lambda kv: -kv[1])[:10]
    env.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               commit=git_commit(),
               importtime_top10_us=[[name, us] for name, us in top])
    return metrics, tally, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_cold", "size_scan", "sweep_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="one small pass, for the harness self-check")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not (SRC / "micromacro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'micromacro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    clock = Clock()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        metrics, tally, env = measure(args, clock)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in tally.errors:
        print(f"failed: {problem}", file=sys.stderr)

    print("env " + json.dumps(env, sort_keys=True))
    result = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
              for m in wanted}
    for name, entry in result.items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        rate = tally.failed / tally.attempted if tally.attempted else 1.0
        print(f"{args.workload} error_rate = {rate:.6g} ratio "
              f"({tally.failed} of {tally.attempted} operations failed)")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
