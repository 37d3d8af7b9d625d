"""typlab benchmark: whole CLI invocations, timed end to end, checked
against an oracle, and traced layer by layer in a separate mode.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload run_scenario_i --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``run_scenario_i`` -- ``typlab run`` on ``configs/scenario_i.json``;
* ``verify_small``   -- ``typlab verify`` on ``configs/verify_small.json``;
* ``run_large_n``    -- ``typlab run`` on scenario_i rescaled to n = 1200.

Every invocation goes through ``typlab.cli.main`` in this process, after
one warm-up invocation.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced invocations and prints the
per-layer metrics.  The last stdout line is the JSON result; a record with
the environment and every sample goes to ``.bench_out/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

WORKLOADS = ("run_scenario_i", "verify_small", "run_large_n")
SCENARIO_I = "configs/scenario_i.json"
VERIFY_SMALL = "configs/verify_small.json"

# run_large_n: scenario_i matched to n = 1200 by the rule of verify's
# inverse-n-scaling check (delta_e * s, v_scale * s^2 with s = n_old/n_new),
# with a small ensemble so that eigendecompose dominates.
LARGE_N = 1200
LARGE_M = 8
LARGE_POINTS = 20

MIN_TIMED = 3  # timed invocations (or traced pairs) per run, at least
MIN_SETUP = 3  # set-up repetitions per run, at least
SETUP_SHARE = 0.2  # set-up repetition time, as a share of invocation time

SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed", re.MULTILINE)


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def large_n_config(scenario: dict) -> dict:
    """scenario_i rescaled to :data:`LARGE_N` by verify's matching rule."""
    scale = scenario["model"]["n"] / LARGE_N
    config = copy.deepcopy(scenario)
    config["model"].update(
        n=LARGE_N,
        delta_e=scenario["model"]["delta_e"] * scale,
        v_scale=scenario["model"]["v_scale"] * scale**2,
    )
    config["M"] = LARGE_M
    config["time"]["points"] = LARGE_POINTS
    config["output"].update(emit_trajectories=False, emit_plot=False)
    return config


def _import_typlab():
    """Import typlab from this checkout's ``src`` and nowhere else."""
    if not (SRC / "typlab" / "cli.py").is_file():
        raise BenchError(f"no typlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import typlab.cli

    if SRC.resolve() not in Path(typlab.__file__).resolve().parents:
        raise BenchError(f"typlab was imported from {typlab.__file__}, not {SRC}")
    return typlab.cli


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Session:
    """Repeated invocations of one workload in this process.

    An invocation fails when it raises or exits non-zero, when a verify
    check fails, when its files differ in any byte from the first
    invocation's, or (checked once at the end, in :meth:`finish`) when the
    first invocation's files are outside the oracle tolerance.
    """

    def __init__(self, workload: str, seed: int, main, work: Path):
        self.workload = workload
        self.main = main
        self.out = work / "out"
        self.first = work / "first"
        work.mkdir(parents=True, exist_ok=True)
        if workload == "verify_small":
            self.config_path = ROOT / VERIFY_SMALL
            self.argv = ["verify", "--config", str(self.config_path)]
        else:
            raw = json.loads((ROOT / SCENARIO_I).read_text())
            if workload == "run_large_n":
                raw = large_n_config(raw)
            raw["base_seed"] = seed
            raw["output"]["directory"] = str(self.out)
            self.config_path = work / f"{workload}.json"
            self.config_path.write_text(json.dumps(raw, indent=2) + "\n")
            self.argv = ["run", "--config", str(self.config_path),
                         "--out", str(self.out), "--seed", str(seed)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks: str | None = None
        self._digest: str | None = None

    def invoke(self) -> tuple[float, float]:
        """One invocation; returns its wall and CPU seconds."""
        shutil.rmtree(self.out, ignore_errors=True)
        captured = io.StringIO()
        problem = None
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self.main(self.argv)
        except (Exception, SystemExit):
            code = None
            problem = traceback.format_exc()
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        self.attempted += 1
        if problem is None:
            problem = self._check(code, captured.getvalue())
        if problem is not None:
            self.failed += 1
            self.problems.append(f"invocation {self.attempted}: {problem}")
        return wall, cpu

    def _check(self, code, output: str) -> str | None:
        if code != 0:
            return f"exit code {code}: {output[-500:]}"
        if self.workload == "verify_small":
            summary = SUMMARY.findall(output)
            if not summary or summary[-1][0] != summary[-1][1]:
                return f"verify checks failed: {output[-500:]}"
            self.checks = "/".join(summary[-1])
            return None
        if not self.out.is_dir():
            return f"no output directory {self.out}"
        digest = _digest(self.out)
        if self._digest is None:
            self._digest = digest
            shutil.rmtree(self.first, ignore_errors=True)
            shutil.copytree(self.out, self.first)
        elif digest != self._digest:
            return "output files differ from the first invocation's"
        return None

    def finish(self) -> None:
        """Check the first invocation's files against the oracle."""
        if self.workload == "verify_small" or self._digest is None:
            return
        import oracle
        from typlab.config import load_config

        try:
            expected = oracle.expected_outputs(load_config(self.config_path))
            problems = oracle.check_outputs(self.first, expected)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            # Every invocation wrote these same bytes, so every one failed.
            self.failed = self.attempted
            self.problems.extend(problems)


def setup_seconds(config_path: Path) -> float:
    """Load the config, build the model and diagonalise H, once."""
    from typlab.config import load_config
    from typlab.models import build_model
    from typlab.operators import eigendecompose

    start = time.perf_counter()
    config = load_config(config_path)
    eigendecompose(build_model(config.model).hamiltonian)
    return time.perf_counter() - start


def measure(session: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics (value, unit) and the raw samples behind them."""
    session.invoke()  # warm-up: a fresh process's first eigh is slow
    walls, cpus, setups = [], [], []
    while len(walls) < MIN_TIMED or sum(walls) < seconds:
        wall, cpu = session.invoke()
        walls.append(wall)
        cpus.append(cpu)
        # Set-up repetitions are spread over the run so that they see the
        # same machine load as the invocations; they use less memory than
        # an invocation, so they leave the peak RSS alone.
        while sum(setups) < SETUP_SHARE * sum(walls):
            setups.append(setup_seconds(session.config_path))
    while len(setups) < MIN_SETUP:
        setups.append(setup_seconds(session.config_path))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    session.finish()
    attempted = session.attempted
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": ((attempted - session.failed) / attempted, "frac"),
    }
    return metrics, {"wall_s": walls, "cpu_s": cpus, "setup_s": setups}


def measure_traced(session: Session, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics from traced invocations, alternated with untraced
    ones so that the tracing overhead is measured under the same load."""
    from tracer import Tracer, layer_metric_units

    tracer = Tracer()
    session.invoke()  # warm-up
    untraced, traced = [], []

    def traced_invocation():
        tracer.begin_invocation()
        with tracer.patched():
            traced.append(session.invoke()[0])

    while len(traced) < MIN_TIMED or sum(untraced) + sum(traced) < seconds:
        if len(traced) % 2:
            traced_invocation()
            untraced.append(session.invoke()[0])
        else:
            untraced.append(session.invoke()[0])
            traced_invocation()
    session.finish()
    tracer.write_spans(spans_path)
    values = tracer.layer_metrics(traced, untraced)
    units = layer_metric_units()
    metrics = {name: (values[name], units[name]) for name in units}
    return metrics, {"untraced_wall_s": untraced, "traced_wall_s": traced, "missing": tracer.missing}


def run(workload: str, seed: int, seconds: float, trace: bool, main) -> dict:
    """Measure one workload; returns the full record, result line included."""
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    session = Session(workload, seed, main, WORK / "work" / tag)
    if trace:
        metrics, samples = measure_traced(session, seconds, WORK / "work" / tag / "spans.jsonl")
    else:
        metrics, samples = measure(session, seconds)
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "verify_checks": session.checks,
        "problems": session.problems,
        "samples": samples,
        "result": result,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        if "TYPLAB_THREADS" in os.environ:
            raise BenchError("TYPLAB_THREADS is set; it changes the program being measured")
        if not 0 <= args.seed < 2**64:
            raise BenchError(f"--seed must fit in 64 bits, got {args.seed}")
        for config in (SCENARIO_I, VERIFY_SMALL):
            if not (ROOT / config).is_file():
                raise BenchError(f"missing {config}")
        cli = _import_typlab()
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), cli.main)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    for problem in record["problems"][:3]:
        print(problem, file=sys.stderr)
    print(json.dumps({"environment": record["environment"], "verify_checks": record["verify_checks"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
