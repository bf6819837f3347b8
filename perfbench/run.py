"""RAPIDS benchmark: one workload, one seed, every metric by name and unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload archive-8m --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced steps, reports the per-layer
metrics of the traced steps, and reports the tracing overhead as the
traced medians against the untraced ones.  Either way the run checks the
program's outputs (see ``NOTES.md``), exits 3 if a check fails, writes a
detailed report to ``.perfbench-out/`` and prints one JSON line last::

    {"correct": true, "attempted": 18, "failed": 0, "metrics": {...}}

``python3 perfbench/summarize.py`` prints the per-layer tables of the
traced runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"

WORKLOADS = ("archive-8m", "archive-32m", "service-mixed")
SETUP_ROUNDS = 3


p50 = statistics.median


def pct(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def make_workload(name: str, tiny: bool):
    from workloads import ArchiveWorkload, ServiceWorkload

    if name == "archive-8m":
        if tiny:
            return ArchiveWorkload((24, 24, 24), "thread", parallelism="thread")
        return ArchiveWorkload((128, 128, 128), "thread")
    if name == "archive-32m":
        if tiny:
            return ArchiveWorkload((32, 16, 32), "procpipe", parallelism="process")
        return ArchiveWorkload((256, 128, 256), "procpipe")
    if tiny:
        return ServiceWorkload(requests=24, base_elems=4096)
    return ServiceWorkload(requests=360, base_elems=16384)


class RssSampler:
    """Peak resident set size per measured step.

    A daemon thread samples ``/proc/self/statm`` every ``interval``
    seconds; :meth:`take` returns the peak since the previous call.  The
    median of per-step peaks is steadier than the process lifetime
    maximum, which one unlucky allocator state decides.
    """

    def __init__(self, interval: float = 0.005) -> None:
        import threading

        self.interval = interval
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _rss(self) -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * self.page

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, self._rss())

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def take(self) -> float:
        """Peak RSS in MiB since the previous call."""
        peak, self.peak = max(self.peak, self._rss()), 0
        return peak / 2**20


def merge(steps, key):
    return [x for s in steps for x in s.samples.get(key, ())]


def end_to_end(steps, setup_s: float, service: bool) -> dict:
    """The ``end_to_end`` metrics of ``BENCHMARK.json`` from ``steps``."""
    prep = merge(steps, "prepare")
    rest = merge(steps, "restore")
    deg = merge(steps, "degraded")
    any_rest = merge(steps, "any_restore") if service else rest + deg
    attempted = sum(s.attempted for s in steps)
    failed = sum(s.failed for s in steps)
    out = steps[0].outcomes
    values = {
        "setup_s": (setup_s, "s"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mib": (p50([s.peak_rss_mib for s in steps]), "MiB"),
        "stored_bytes_ratio": (out["stored_bytes_ratio"], "ratio"),
        "prepare_s_p50": (p50(prep), "s"),
        "restore_s_p50": (p50(rest), "s"),
        "restore_degraded_s_p50": (p50(deg), "s"),
        "gather_latency_s_p50": (p50(merge(steps, "gather_latency")), "s"),
        "distribute_latency_s": (out["distribute_latency_s"], "s"),
        "restore_error_digits": (out["restore_error_digits"], "digits"),
        "svc_ops_per_s": (attempted / sum(s.wall_s for s in steps), "1/s"),
        "svc_prepare_p50_ms": (1e3 * p50(prep), "ms"),
        "svc_restore_p50_ms": (1e3 * p50(any_rest), "ms"),
        "svc_restore_p90_ms": (1e3 * pct(any_rest, 0.9), "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def sample_counts(steps, service: bool) -> dict:
    keys = ["prepare", "restore", "degraded", "gather_latency"]
    counts = {k: len(merge(steps, k)) for k in keys}
    counts["any_restore"] = (
        len(merge(steps, "any_restore")) if service
        else counts["restore"] + counts["degraded"]
    )
    counts["steps"] = len(steps)
    return counts


def run_info(steps) -> dict:
    import numpy as np

    from repro.parallel.threads import default_workers

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
        sha = proc.stdout.strip() or sha
    info = {
        "nproc": os.cpu_count(),
        "default_workers": default_workers(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
    }
    info.update(steps[0].info)
    return info


def check_repeats(steps) -> None:
    """Data-dependent outcomes must be identical in every step."""
    from workloads import Violation

    first = steps[0].outcomes
    for i, s in enumerate(steps[1:], 1):
        for key, value in first.items():
            if s.outcomes[key] != value:
                raise Violation(
                    f"outcome {key} differs between step 0 and step {i}: "
                    f"{value!r} vs {s.outcomes[key]!r}"
                )


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so :func:`stop_children` can wait for
    every process the run started, not only its direct children."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> list[int]:
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def stop_children(timeout: float = 30.0) -> None:
    """Stop every process the run started and wait until each has ended.

    The process engine starts pool workers (joined by the library) and
    the multiprocessing resource tracker, which would otherwise outlive
    this process; anything left after those are stopped is killed.
    """
    import multiprocessing

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout)
    for module, attr in (("resource_tracker", "_resource_tracker"),
                         ("forkserver", "_forkserver")):
        mod = sys.modules.get(f"multiprocessing.{module}")
        stop = getattr(getattr(mod, attr, None), "_stop", None)
        if stop is not None:
            try:
                stop()
            except (OSError, ChildProcessError):
                pass
    deadline = time.monotonic() + timeout
    while True:
        pids = _child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        if time.monotonic() > deadline:
            return


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input (for the benchmark's tests)")
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    adopt_orphans()
    signal.signal(signal.SIGTERM, _terminate)

    work = WORK_DIR / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # The process engine spools fragments through tempfile: keep it here.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = str(work / "tmp")
    try:
        return _run(args, work)
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def measure(wl, args, tracing):
    """Run steps for ``args.seconds``; with ``--trace 1`` every odd step
    is traced.  Returns the untraced steps, the traced steps and the
    traced steps' per-layer reductions."""
    plain, traced, layer_steps = [], [], []
    min_steps = 4 if args.trace else 3
    loop_times: list[float] = []
    t_loop = time.perf_counter()
    with RssSampler() as rss:
        rss.take()
        for i in itertools.count():
            elapsed = time.perf_counter() - t_loop
            est = statistics.fmean(loop_times) if loop_times else 0.0
            if i >= min_steps and elapsed + est > args.seconds:
                break
            t0 = time.perf_counter()
            if args.trace and i % 2 == 1:
                tr = tracing.Tracer()
                uninstall = tracing.instrument(tr)
                try:
                    step = wl.step(tr, i)
                finally:
                    uninstall()
                traced.append(step)
                layer_steps.append(tracing.step_layers(tr.spans))
            else:
                step = wl.step(None, i)
                plain.append(step)
            step.peak_rss_mib = rss.take()
            loop_times.append(time.perf_counter() - t0)
    return plain, traced, layer_steps


def _run(args, work: Path) -> int:
    import tracer as tracing
    import workloads

    import_s = time.perf_counter() - T_START
    service = args.workload == "service-mixed"
    wl = make_workload(args.workload, args.size == "tiny")
    rounds = []
    try:
        for k in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            wl.setup(SRC, work / f"round-{k}", args.seed)
            rounds.append(time.perf_counter() - t0)
        setup_s = import_s + p50(rounds)

        plain, traced, layer_steps = measure(wl, args, tracing)
        check_repeats(plain + traced)
    except workloads.Violation as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 3
    finally:
        wl.close()

    steps = plain + traced
    e2e = end_to_end(plain, setup_s, service)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "setup_rounds_s": rounds,
        "import_s": import_s,
        "samples": sample_counts(plain, service),
        "outcomes": steps[0].outcomes,
        "info": run_info(steps),
        "end_to_end": e2e,
        "steps": [
            {"samples": s.samples, "wall_s": s.wall_s, "peak_rss_mib": s.peak_rss_mib}
            for s in plain
        ],
    }
    metrics = e2e
    if args.trace:
        e2e_traced = end_to_end(traced, setup_s, service)
        metrics = tracing.per_layer(layer_steps, traced, e2e, e2e_traced)
        report.update(
            end_to_end_traced=e2e_traced,
            samples_traced=sample_counts(traced, service),
            per_layer=metrics,
            layers=tracing.layer_table(layer_steps),
            accounting=tracing.accounting(layer_steps, e2e),
        )
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: samples {report['samples']}; "
          f"report {out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": sum(s.attempted for s in steps),
        "failed": sum(s.failed for s in steps),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
