"""Benchmark of the paralyap CLI: construct -> simulate -> verify.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The load is a closed loop with one client: the benchmark starts one CLI
process, waits for it to exit, checks its outputs, and only then starts the
next, for about ``--seconds`` (and at least MIN_SAMPLES runs).  Each
CLI run is a fresh interpreter, so the import counts toward ``wall_s`` and
``setup_s`` as it does for a user.

``--trace 0`` reports the end-to-end metrics (medians over the runs).
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics (medians over the traced runs) plus ``trace.overhead_s``, the
traced minus the untraced median wall time.

Every line but the last is a human-readable report, including the recorded
environment; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from layers import METRICS as LAYER_METRICS, layer_metrics
from workloads import (
    DEFAULT_SEED, WORKLOADS, RunCheck, check_run, reference_seed, write_inputs,
)

HERE = Path(__file__).resolve().parent
# A fixed pool size keeps tabulate_g independent of the machine; 1 is at
# most nproc everywhere.
WORKERS = 1
MIN_SAMPLES = 3
RUN_TIMEOUT_S = 120.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Sample:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    check: RunCheck
    traced: bool
    setup_s: Optional[float] = None
    layers: dict = field(default_factory=dict)

    @property
    def work_per_s(self):
        if self.setup_s is None or self.wall_s <= self.setup_s:
            return None
        return self.check.units / (self.wall_s - self.setup_s)


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # Users run with the bytecode cache on; without it every run would
    # recompile the package and set-up would depend on this setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _wait(proc):
    """Wait for ``proc`` with a time limit; return its exit code and rusage."""
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_once(root, workload, seed, config, work, reference, run_id, traced=False) -> Sample:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    marks_path = work / "marks.json"
    marks_path.unlink(missing_ok=True)
    trace_path = work / f"trace-{run_id}.npz"
    cmd = [
        sys.executable, str(HERE / "launch.py"), str(marks_path),
        str(trace_path) if traced else "-",
        workload.command, "--config", str(config), "--out", str(out),
        "--workers", str(WORKERS),
    ]
    with open(work / "stderr.txt", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root),
                                stdout=subprocess.DEVNULL, stderr=err)
        code, usage = _wait(proc)
        wall = time.monotonic() - t0
    check = check_run(workload, seed, code, out, reference)
    sample = Sample(wall, code, usage.ru_maxrss / 1024.0, check, traced)
    try:
        marks = json.loads(marks_path.read_text())
        sample.setup_s = marks["setup_end"] - t0
    except (OSError, ValueError, KeyError):
        check.problems.append("the run recorded no end of set-up")
    if not check.ok:
        tail = (work / "stderr.txt").read_text().strip().splitlines()[-3:]
        check.problems.extend(f"stderr: {line}" for line in tail)
    if traced and trace_path.exists():
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        sample.layers = layer_metrics(trace_path, written)
        trace_path.unlink()
    shutil.rmtree(out, ignore_errors=True)
    return sample


def _loop(run, seconds, minimum, traced):
    """Run ``minimum`` runs, then more while they fit in ``seconds``.

    A further run starts only if a run of median length would end less than
    half a run past the deadline, so the measured span stays close to
    ``seconds``.  With ``traced``, runs alternate untraced and traced, so
    both kinds see the same machine load and their difference is the
    tracing overhead.
    """
    samples = []
    deadline = time.monotonic() + seconds
    while len(samples) < minimum or (
        time.monotonic() + 0.5 * statistics.median(s.wall_s for s in samples) < deadline
    ):
        samples.append(run(traced and len(samples) % 2 == 1))
    return samples


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def environment(root, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "paralyap").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "workers": WORKERS,
    }


def _fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def _report_end_to_end(workload, seed, samples):
    ok = [s for s in samples if s.check.ok]
    lines = []
    for name, unit in END_TO_END.items():
        vals = [getattr(s, name) for s in ok]
        vals = [v for v in vals if v is not None]
        lo, hi = (min(vals), max(vals)) if vals else (None, None)
        lines.append(f"{name:16s} median {_fmt(_median(vals)):>10s} {unit:5s} "
                     f"min {_fmt(lo)} max {_fmt(hi)} n={len(vals)}")
    failed = len(samples) - len(ok)
    lines.append(f"{'fail_fraction':16s} {failed}/{len(samples)} = {failed / len(samples):.6g}")
    if reference_seed(workload, seed):
        gaps = [s.check.ref_err for s in samples if s.check.ref_err is not None]
        lines.append(f"{'ref_err':16s} max {_fmt(max(gaps) if gaps else None)} "
                     f"(relative gap to the stored reference, n={len(gaps)})")
    else:
        lines.append(f"{'ref_err':16s} n/a (the reference is stored for seed {DEFAULT_SEED})")
    cons = _median([s.check.consistency_err for s in ok])
    lines.append(f"{'consistency_err':16s} median {_fmt(cons)}"
                 + ("" if cons is not None else " (no verify_report.json)"))
    lines.append(f"{'work unit':16s} {workload.unit} per run, "
                 f"median {_fmt(_median([s.check.units for s in ok]))}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and reaps its CLI child (see _wait).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "paralyap" / "cli.py").is_file():
        print(f"error: {root} holds no src/paralyap to benchmark; "
              "run from the root of a paralyap checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    references = json.loads((HERE / "reference.json").read_text())
    reference = references.get(workload.name)
    work = HERE / ".work" / str(os.getpid())
    try:
        config = write_inputs(workload, args.seed, work)
        # Compile the package's bytecode and warm the file cache once, as a
        # user's earlier runs would have; it is not timed.
        subprocess.run([sys.executable, "-c", "import paralyap.cli"], cwd=root,
                       env=_child_env(root), timeout=RUN_TIMEOUT_S)

        run_ids = itertools.count()

        def run(traced=False):
            return run_once(root, workload, args.seed, config, work, reference,
                            next(run_ids), traced)

        samples = _loop(run, args.seconds, MIN_SAMPLES, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    failed = sum(not s.check.ok for s in samples)
    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"runs={len(samples)} failed={failed} expected_exit={workload.expected_exit}")
    print("env " + json.dumps(environment(root, args.seed), sort_keys=True))
    for line in _report_end_to_end(workload, args.seed, plain):
        print(line)
    for i, s in enumerate(samples):
        kind = "traced" if s.traced else "plain"
        print(f"run {i} {kind} exit={s.exit_code} wall_s={s.wall_s:.4f} setup_s={_fmt(s.setup_s)} "
              f"peak_rss_mb={s.peak_rss_mb:.1f} units={s.check.units} "
              + ("ok" if s.check.ok else "FAILED: " + "; ".join(s.check.problems)))

    ok_plain = [s for s in plain if s.check.ok]
    if args.trace:
        ok_traced = [s for s in traced if s.check.ok and s.layers]
        metrics = {}
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead_s":
                value = _median([s.wall_s for s in ok_traced]) - _median([s.wall_s for s in ok_plain]) \
                    if ok_traced and ok_plain else None
            else:
                value = _median([s.layers[name] for s in ok_traced])
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:36s} {_fmt(value):>12s} {unit}")
    else:
        metrics = {name: {"value": _median([getattr(s, name) for s in ok_plain]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
