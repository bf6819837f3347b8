"""The benchmark's workloads: two archive workloads and one service mix.

Each workload has a ``setup`` (input generation, stack build, warm-up)
and a ``step`` that runs one fixed, seeded unit of work — an archive
iteration or a service pass — and returns its samples and outcomes.
``run.py`` repeats steps for the measured window and reduces them to the
metrics named in ``BENCHMARK.json``.

Outcomes that depend only on the data (stored bytes, distribution
latency, restore error, which requests succeed) are returned per step so
the runner can insist that every step of a run produced the same ones.
"""

from __future__ import annotations

import math
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import RAPIDS
from repro.metadata import MetadataCatalog
from repro.refactor.error_model import relative_linf_error
from repro.service import (
    STANDARD_MIXES,
    ArchiveService,
    ServiceConfig,
    ServiceRejected,
    make_schedule,
    synthetic_field,
)
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile

N_SYSTEMS = 16
#: Solver budget of the warm-up restores: warm-up fills caches and pools,
#: it does not need the library's full 1 s gather solve.
WARMUP_SOLVER_BUDGET = 0.05
#: A recorded error of 0 (an exact restore) has no finite digits; it reads
#: as this floor instead.
ERROR_FLOOR = 1e-15
#: A service ticket unresolved after this long fails the run.
TICKET_TIMEOUT_S = 60.0
#: Service requests whose latency is sampled: those that ran the pipeline
#: and delivered.  Journal replays (``cached``) take a different, much
#: shorter path, and failed, shed or deadline requests deliver nothing;
#: both are counted (``ok_frac``, ``service.cached``), not timed.
TIMED_STATUSES = ("ok", "degraded")


class Violation(Exception):
    """A correctness gate failed: the run reports ``"correct": false``."""


@dataclass
class Step:
    """What one archive iteration or service pass produced."""

    #: sample name -> list of seconds.
    samples: dict = field(default_factory=dict)
    #: Data-dependent outcomes that must repeat exactly step to step.
    outcomes: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: Peak RSS during the step, in MiB (filled in by the runner).
    peak_rss_mib: float = 0.0
    #: Per-step service counters (coalesced/cached/failed prepares).
    counters: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def build_stack(workdir: Path) -> RAPIDS:
    """The paper's 16-system cluster under ``RAPIDS`` defaults."""
    workdir.mkdir(parents=True, exist_ok=True)
    cluster = StorageCluster(paper_bandwidth_profile(N_SYSTEMS))
    return RAPIDS(cluster, MetadataCatalog(workdir / "meta"))


def error_digits(err: float) -> float:
    return -math.log10(max(err, ERROR_FLOOR))


_GEN = (
    "import importlib.util, sys, numpy as np\n"
    "spec = importlib.util.spec_from_file_location('synthetic', sys.argv[1])\n"
    "mod = importlib.util.module_from_spec(spec)\n"
    "spec.loader.exec_module(mod)\n"
    "shape = tuple(int(x) for x in sys.argv[3].split('x'))\n"
    "np.save(sys.argv[2], mod.nyx_temperature(shape, seed=int(sys.argv[4])))\n"
)


def generate_field(src: Path, workdir: Path, shape, seed: int) -> np.ndarray:
    """``nyx_temperature(shape, seed)`` made in a child process, so the
    generator's FFT temporaries never count toward this process's peak
    RSS.  The child loads only the generator's module (numpy alone), not
    the whole ``repro`` package."""
    out = workdir / f"field-{seed}.npy"
    subprocess.run(
        [sys.executable, "-c", _GEN,
         str(src / "repro" / "datasets" / "synthetic.py"), str(out),
         "x".join(str(n) for n in shape), str(seed)],
        check=True, timeout=120,
    )
    data = np.load(out)
    out.unlink()
    return data


# -- archive workloads -------------------------------------------------------


class ArchiveWorkload:
    """prepare → clean restore → degraded restore on one nyx field.

    ``parallelism`` is ``None`` (auto mode picks the engine from the
    object size) except at test sizes, where the expected engine is
    forced so the small run still exercises it.
    """

    name = "obj"

    def __init__(self, shape, engine: str, *, parallelism=None):
        self.shape = tuple(shape)
        self.engine = engine
        self.parallelism = parallelism
        self.stack: RAPIDS | None = None
        self.data: np.ndarray | None = None

    def setup(self, src: Path, workdir: Path, seed: int) -> None:
        if self.stack is not None:
            self.stack.catalog.close()
        workdir.mkdir(parents=True)
        self.data = generate_field(src, workdir, self.shape, seed)
        self.stack = build_stack(workdir)
        # Warm-up: one prepare and one clean restore fill the caches and
        # pools; the short solver budget keeps it cheap.
        self.stack.prepare(self.name, self.data, parallelism=self.parallelism)
        self.stack.restore(self.name, solver_budget=WARMUP_SOLVER_BUDGET)

    def close(self) -> None:
        if self.stack is not None:
            self.stack.catalog.close()
            self.stack = None

    def step(self, tracer, index: int) -> Step:
        stack, data, tag = self.stack, self.data, f"i{index}"

        def op(kind: str) -> None:
            if tracer is not None:
                tracer.set_op(f"{tag}.{kind}")

        wall0 = time.perf_counter()
        op("prepare")
        t0 = time.perf_counter()
        rep = stack.prepare(self.name, data, parallelism=self.parallelism)
        t_prep = time.perf_counter() - t0
        engine = "procpipe" if "procpipe" in rep.extra else "thread"
        if engine != self.engine:
            raise Violation(
                f"engine guard: expected the {self.engine} engine, "
                f"prepare ran on {engine}"
            )
        stored = stack.cluster.total_stored_bytes() / data.nbytes

        op("restore")
        t0 = time.perf_counter()
        clean = stack.restore(self.name)
        t_rest = time.perf_counter() - t0

        # Fail the min(m_j) highest-bandwidth systems: every level stays
        # recoverable, and the fastest sources are the ones lost.
        bw = stack.cluster.bandwidths
        lost = [int(i) for i in np.argsort(-bw, kind="stable")[: min(rep.ft_config)]]
        stack.cluster.fail(lost)
        op("degraded")
        try:
            t0 = time.perf_counter()
            degraded = stack.restore(self.name)
            t_deg = time.perf_counter() - t0
        finally:
            stack.cluster.restore_all()
        if tracer is not None:
            tracer.set_op(None)
        wall = time.perf_counter() - wall0

        levels = len(rep.ft_config)
        if clean.data is None or clean.levels_used != levels:
            raise Violation(
                f"clean restore delivered {clean.levels_used} of {levels} levels"
            )
        err = relative_linf_error(data, clean.data)
        if not err <= rep.level_errors[-1]:
            raise Violation(
                f"clean restore error {err!r} exceeds the recorded "
                f"level error {rep.level_errors[-1]!r}"
            )
        if degraded.data is None or degraded.data.tobytes() != clean.data.tobytes():
            raise Violation(
                f"degraded restore (systems {lost} failed) differs from "
                "the clean restore"
            )
        info = {"engine": engine, "lost_systems": lost, "ft_config": list(rep.ft_config),
                "measured_linf_error": err,
                "refactor_workers": stack.refactor_workers, "ec_workers": stack.ec_workers}
        if engine == "procpipe":
            pp = rep.extra["procpipe"]
            info.update(procpipe_mode=pp["mode"], processes=pp["processes"],
                        tiles=pp["num_tiles"])
        return Step(
            samples={
                "prepare": [t_prep],
                "restore": [t_rest],
                "degraded": [t_deg],
                "gather_latency": [clean.gathering_latency],
            },
            outcomes={
                "stored_bytes_ratio": stored,
                "distribute_latency_s": rep.distribution_latency,
                "restore_error_digits": error_digits(clean.achieved_error),
            },
            attempted=3,
            failed=0,
            wall_s=wall,
            info=info,
        )


# -- service workload --------------------------------------------------------


class ServiceWorkload:
    """A started ``ArchiveService`` driven closed loop by two clients.

    One pass replays the seeded ``balanced`` schedule on a freshly built
    stack in three phases — all systems up, system ``OUTAGE_SID`` failed,
    all up again — each drained before the next.  Every pass is the same
    work in the same order, so its outcomes repeat exactly.
    """

    CLIENTS = 2
    WORKERS = 2
    BASE_OBJECTS = 4
    OUTAGE_SID = 1
    PHASES = ("up", "outage", "recovered")

    def __init__(self, *, requests: int, base_elems: int):
        self.requests = requests
        self.base_elems = base_elems
        self.workdir: Path | None = None
        self.base: dict[str, np.ndarray] = {}
        self.schedule: list = []
        self._passes = 0

    def setup(self, src: Path, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.base = {
            f"base/{i}": synthetic_field(seed * 16 + i, self.base_elems)
            for i in range(self.BASE_OBJECTS)
        }
        self.schedule = make_schedule(
            STANDARD_MIXES["balanced"], objects=sorted(self.base),
            count=self.requests, seed=seed,
        )
        # Warm-up: one short all-up phase on a stack of its own.
        warm = self.schedule[: max(4, len(self.schedule) // 20)]
        self._pass(None, "warm", phases=[("up", warm)])

    def close(self) -> None:
        pass

    def step(self, tracer, index: int) -> Step:
        n = len(self.schedule)
        cuts = [0, n // 3, 2 * n // 3, n]
        phases = [
            (name, self.schedule[cuts[k]: cuts[k + 1]])
            for k, name in enumerate(self.PHASES)
        ]
        return self._pass(tracer, f"p{index}", phases=phases)

    def _pass(self, tracer, tag: str, *, phases) -> Step:
        self._passes += 1
        stack = build_stack(self.workdir / f"svc-{self._passes}")
        for name, data in self.base.items():
            stack.prepare(name, data)
        svc = ArchiveService(stack, config=ServiceConfig(
            queue_capacity=64, rate=1e6, burst=1e6,
            bulkhead_slots=self.CLIENTS, workers=self.WORKERS,
        ))

        # Record what the pipeline returned, for the output checks below.
        restores, prepares = [], {}
        phase_now = [None]
        pipeline_restore, pipeline_prepare = stack.restore, stack.prepare

        def restore(name, **kw):
            rep = pipeline_restore(name, **kw)
            restores.append((phase_now[0], name, rep))
            return rep

        def prepare(name, data, **kw):
            rep = pipeline_prepare(name, data, **kw)
            prepares[name] = rep.distribution_latency
            return rep

        stack.restore, stack.prepare = restore, prepare
        svc.start()
        results, wall = [], 0.0
        try:
            for phase, reqs in phases:
                phase_now[0] = phase
                if phase == "outage":
                    stack.cluster.fail([self.OUTAGE_SID])
                t0 = time.perf_counter()
                results += self._drive(svc, reqs, phase, tag, tracer)
                wall += time.perf_counter() - t0
                stack.cluster.restore_all()
        finally:
            svc.stop()
        coalesced = svc.snapshot()["coalesced"]
        step = self._reduce(stack, results, restores, prepares)
        step.wall_s = wall
        step.counters["coalesced"] = coalesced
        stack.catalog.close()
        return step

    def _drive(self, svc, reqs, phase, tag, tracer) -> list:
        """Closed loop: each client takes the next request in schedule
        order, submits it and waits for its ticket.

        A keyed prepare waits until the previous request with the same
        tenant and key has resolved.  Whether a duplicate coalesces onto a
        live ticket or replays from the journal would otherwise depend on
        thread timing, and the two can end differently: a coalesced
        duplicate shares the original's result, while a replayed one with
        other bytes fails with an idempotency conflict.
        """
        todo = iter(enumerate(reqs))
        lock = threading.Lock()
        last_of_key: dict = {}
        out: list = []
        errors: list = []

        def client() -> None:
            while True:
                with lock:
                    nxt = next(todo, None)
                    if nxt is None:
                        return
                    idx, sched = nxt
                    key = (sched.tenant, sched.idempotency_key)
                    before = mine = None
                    if sched.idempotency_key is not None:
                        before, mine = last_of_key.get(key), threading.Event()
                        last_of_key[key] = mine
                try:
                    if before is not None and not before.wait(TICKET_TIMEOUT_S):
                        errors.append(f"ticket before {tag}.{phase}.{idx} never resolved")
                        return
                    if not self._one(svc, sched, f"{tag}.{phase}.{idx}", phase,
                                     tracer, out, errors):
                        return
                finally:
                    if mine is not None:
                        mine.set()

        threads = [threading.Thread(target=client, daemon=True)
                   for _ in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=TICKET_TIMEOUT_S * 2)
        if any(t.is_alive() for t in threads) or any("never" in e for e in errors):
            raise Violation(
                f"service tickets never resolved in phase {phase}: {errors}"
            )
        return out

    @staticmethod
    def _one(svc, sched, request_id, phase, tracer, out, errors) -> bool:
        """Submit one request and wait for it; False if it never resolved."""
        req = sched.build(time.monotonic)
        req.request_id = request_id
        if tracer is not None:
            tracer.set_op(request_id)
        t0 = time.perf_counter()
        try:
            ticket = svc.submit(req)
        except ServiceRejected as exc:
            out.append((phase, sched.op, "shed", None, None))
            errors.append(f"shed: {exc.reason}")
            return True
        try:
            res = ticket.result(timeout=TICKET_TIMEOUT_S)
        except TimeoutError:
            errors.append(f"ticket {request_id} never resolved")
            return False
        lat = time.perf_counter() - t0
        out.append((phase, sched.op, res.status, res, lat))
        return True

    def _reduce(self, stack, results, restores, prepares) -> Step:
        best = {}  # base object -> recorded error of its all-up restores
        for phase, name, rep in restores:
            if rep.data is None:
                continue
            err = relative_linf_error(self.base[name], rep.data)
            if not err <= rep.achieved_error:
                raise Violation(
                    f"service restore of {name} ({phase}) has error {err!r} "
                    f"above its recorded bound {rep.achieved_error!r}"
                )
            if phase != "outage":
                best[name] = rep.achieved_error
        # Storage overhead of the objects that were stored successfully.
        # A failed prepare may leave fragments behind; they are not counted.
        stored = raw = 0
        for name in sorted(set(self.base) | set(prepares)):
            rec = stack.catalog.get_object(name)
            raw += int(np.prod(rec.shape)) * np.dtype(rec.dtype).itemsize
            stored += sum(
                f.nbytes for j in range(rec.num_levels)
                for f in stack.catalog.level_fragments(name, j)
            )
        statuses = {}
        for phase, op, status, _res, _lat in results:
            key = f"{phase}.{op}.{status}"
            statuses[key] = statuses.get(key, 0) + 1
        ok = sum(1 for r in results if r[3] is not None and r[3].ok)

        def lat(pred):
            return [r[4] for r in results if r[2] in TIMED_STATUSES and pred(r)]

        return Step(
            samples={
                "prepare": lat(lambda r: r[1] == "prepare"),
                "restore": lat(lambda r: r[1] == "restore" and r[0] != "outage"),
                "degraded": lat(lambda r: r[1] == "restore" and r[0] == "outage"),
                "any_restore": lat(lambda r: r[1] == "restore"),
                "gather_latency": [rep.gathering_latency for _p, _n, rep in restores],
                "queue_wait": [r[3].queue_wait for r in results if r[3] is not None],
                "exec": [r[3].service_time for r in results if r[3] is not None],
            },
            outcomes={
                "stored_bytes_ratio": stored / raw,
                "distribute_latency_s": float(np.median(sorted(prepares.values()))),
                "restore_error_digits": error_digits(float(np.median(sorted(best.values())))),
                "status_counts": dict(sorted(statuses.items())),
            },
            attempted=len(results),
            failed=len(results) - ok,
            counters={
                "cached": sum(n for k, n in statuses.items() if k.endswith(".cached")),
                "failed_prepares": sum(
                    n for k, n in statuses.items() if k.endswith("prepare.failed")
                ),
            },
            info={"service_workers": self.WORKERS, "clients": self.CLIENTS,
                  "requests_per_pass": self.requests},
        )

