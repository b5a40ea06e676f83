"""Runs one workload in this process: set-up, timed rounds, checks, metrics.

The system is driven only through its public surface with default
arguments: ``SecureXMLSystem.host/query/flush_caches/insert_element/
update_value/delete_element``, ``save_system``/``load_system``,
``ServingServer`` + ``remote_system``; the traced run additionally replays
each read stage by stage through ``Client.translate/seal_request/
open_response/decrypt_fragments/assemble/post_process``, ``Server.answer/
answer_wire`` and ``Channel.transfer`` — the calls, in the order,
``SecureXMLSystem._secure_exchange`` + ``_finish`` make.

End-to-end metrics come from the untraced run, per-layer metrics from the
traced run; the two never share a process.

**Every timing is speed-normalised.**  On a small shared sandbox the
machine itself runs 10–30 % slower for seconds at a time (CPU time of a
fixed loop drifts exactly as its wall time does, so it is the cores, not
preemption).  A short pure-Python reference loop therefore runs before and
after every op, outside the timed region, timed on the thread's CPU clock
so that waiting for the GIL does not count.  An op's wall time is divided
by the machine's slowdown around it: the median reference time within
``SPEED_WINDOW_S`` of the op, over the fastest reference time of the run.
What is reported is the time the op would have taken had the machine kept
its best observed speed; the run's median slowdown is in the environment
block, so raw wall can be recovered.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import resource
import shutil
import statistics
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.integrity import IntegrityError
from repro.core.scheme import build_scheme
from repro.core.storage import load_system, save_system
from repro.core.system import SecureXMLSystem
from repro.core.updates import UpdateEngine
from repro.crypto.hmac import hmac_sha256
from repro.crypto.keyring import ClientKeyring
from repro.crypto.modes import cbc_decrypt, cbc_encrypt
from repro.serving.client import remote_system
from repro.serving.server import ServingServer

from bootstrap import OUT_DIR
from oracle import Observation, Oracle, canonical_answer, digest
from spans import OP, SpanRecorder, stage_table
from workloads import (
    DELETE,
    INSERT,
    MASTER_KEY,
    READ,
    UPDATE,
    Op,
    Plan,
    Workload,
    build_document,
)

TENANT = "bench"
#: An op slower than the system's own per-query deadline counts as failed.
OP_TIMEOUT_S = 30.0
#: Hostings per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: The staged replay has no retry loop of its own; like the system's
#: ``RetryPolicy.max_attempts`` it re-issues an exchange that lost a
#: freshness race to a concurrent writer.
STAGED_ATTEMPTS = 4
CRYPTO_PROBE_BYTES = 64 * 1024
REFERENCE_ITERATIONS = 6_000
#: Reference-loop runs at the start of a run: lets the interpreter
#: specialise the loop, and keeps the fastest reference time from hinging
#: on the few dozen samples a run of slow ops collects.
CALIBRATION_RUNS = 300
#: The machine's speed at an op is taken from the reference samples this
#: close to it; slow phases last seconds, one sample jitters by several %.
SPEED_WINDOW_S = 1.0

#: Row order of the Fig. 9 table (the order the pipeline runs them in).
STAGE_ORDER = [
    "client.translate",
    "client.seal",
    "netsim.transfer",
    "server.answer_wire",
    "serving.rtt",
    "client.verify",
    "client.decrypt",
    "client.assemble",
    "client.postprocess",
]


# ----------------------------------------------------------------------
# Machine-speed reference
# ----------------------------------------------------------------------
def reference_kernel() -> float:
    """Thread-CPU seconds a fixed pure-Python loop takes right now."""
    started = time.thread_time()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.thread_time() - started


class MachineSpeed:
    """Reference-loop samples of one run, from every thread.

    ``sample()`` is called around each op and each set-up;
    ``normalise(wall, at)`` turns wall seconds measured around time ``at``
    into seconds at the machine's best observed speed.
    """

    def __init__(self) -> None:
        self.fastest = min(reference_kernel() for _ in range(CALIBRATION_RUNS))
        self._samples: list[tuple[float, float]] = []
        self._times: list[float] = []
        self._values: list[float] = []

    def sample(self) -> None:
        value = reference_kernel()
        self._samples.append((time.perf_counter(), value))

    def freeze(self) -> None:
        """Sort the samples; call once, after the last ``sample()``."""
        self._samples.sort()
        self._times = [at for at, _ in self._samples]
        self._values = [value for _, value in self._samples]
        self.fastest = min([self.fastest] + self._values)

    def slowdown(self, wall: float, at: float) -> float:
        """Machine slowdown around an interval ``wall`` long centred ``at``."""
        # Reach at least the samples taken right before and after it.
        reach = max(SPEED_WINDOW_S, wall / 2 + 0.001)
        low = bisect.bisect_left(self._times, at - reach)
        high = bisect.bisect_right(self._times, at + reach)
        return statistics.median(self._values[low:high]) / self.fastest

    def normalise(self, wall: float, at: float) -> float:
        return wall / self.slowdown(wall, at)


# ----------------------------------------------------------------------
# Sessions: a hosted database and the handles ops go through
# ----------------------------------------------------------------------
@dataclass
class Session:
    #: The owner's in-process system (the served tenant on serve-socket).
    local: SecureXMLSystem
    #: One handle per connection; ``[local]`` for in-process workloads.
    handles: list[SecureXMLSystem]
    server: "ServingServer | None" = None

    def close(self) -> None:
        if self.server is not None:
            for handle in self.handles:
                handle.close()
            self.server.stop()
        self.local.close()


def open_session(workload: Workload, document, constraints) -> Session:
    local = SecureXMLSystem.host(document, constraints, master_key=MASTER_KEY)
    if not workload.connections:
        return Session(local, [local])
    server = ServingServer()
    server.register_tenant(TENANT, local)
    address = server.start()
    session = Session(local, [], server)
    try:
        for _ in range(workload.connections):
            session.handles.append(remote_system(local, address, TENANT))
    except BaseException:
        session.close()
        raise
    return session


def timed_setup(
    workload: Workload, size: "int | None", speed: MachineSpeed
) -> tuple[Session, float, float]:
    """Generate the document, host it, (start the server, connect).

    Returns the session, the wall seconds and the time at mid-set-up.
    """
    for _ in range(5):
        speed.sample()
    started = time.perf_counter()
    document, constraints = build_document(workload, size)
    session = open_session(workload, document, constraints)
    ended = time.perf_counter()
    for _ in range(5):
        speed.sample()
    return session, ended - started, (started + ended) / 2


# ----------------------------------------------------------------------
# Executing ops
# ----------------------------------------------------------------------
@dataclass
class ReadResult:
    nodes: list
    transfer_bytes: int


def apply_write(system: SecureXMLSystem, op: Op) -> None:
    if op.kind == INSERT:
        system.insert_element(op.xpath, op.tag, op.value)
    elif op.kind == UPDATE:
        system.update_value(op.xpath, op.value)
    elif op.kind == DELETE:
        system.delete_element(op.xpath)
    else:
        raise ValueError(f"not a write op: {op.kind!r}")


def execute_untraced(
    system: SecureXMLSystem, op: Op, op_id: int
) -> "ReadResult | None":
    if op.is_write:
        apply_write(system, op)
        return None
    answer = system.query(op.xpath)
    assert system.last_trace is not None
    return ReadResult(answer.nodes, system.last_trace.transfer_bytes)


@dataclass
class StageCounts:
    """Counts taken at the stage boundaries of the staged replay."""

    modelled_transfer_s: float = 0.0
    blocks_shipped: int = 0
    fragments_shipped: int = 0
    candidates: int = 0
    answers: int = 0
    retries: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class StagedExecutor:
    """Replays each op stage by stage, one span per call into a layer."""

    def __init__(self, recorder: SpanRecorder, remote: bool) -> None:
        self.recorder = recorder
        self.counts = StageCounts()
        #: What the client waits on between sealing and verifying: the
        #: in-process server, or a TCP round trip to the front door.
        self._exchange_span = "serving.rtt" if remote else "server.answer_wire"

    def __call__(
        self, system: SecureXMLSystem, op: Op, op_id: int
    ) -> "ReadResult | None":
        span = self.recorder.span
        if op.is_write:
            with span(OP, op=op_id, kind="write"):
                apply_write(system, op)
            return None
        # Re-read per op: a write replaces ``system.client``.
        client, server, channel = system.client, system.server, system.channel
        xpath = op.xpath
        modelled = 0.0
        retries = 0
        with span(OP, op=op_id, kind=READ):
            with span("client.translate"):
                translated = client.translate(xpath)
            # Like the system's retry loop, an attempt covers the exchange
            # *and* the finish: a concurrent write can invalidate either.
            for attempt in range(STAGED_ATTEMPTS):
                try:
                    with span("client.seal"):
                        request = client.seal_request(
                            translated, cache_key=xpath
                        )
                    with span("netsim.transfer"):
                        request, seconds = channel.transfer(
                            "client->server", "query", request
                        )
                    modelled += seconds
                    with span(self._exchange_span):
                        sealed = server.answer_wire(request)
                    with span("netsim.transfer"):
                        sealed, seconds = channel.transfer(
                            "server->client", "answer", sealed
                        )
                    modelled += seconds
                    with span("client.verify"):
                        response = client.open_response(sealed)
                    with span("client.decrypt"):
                        decrypted = client.decrypt_fragments(response)
                    with span("client.assemble"):
                        pruned = client.assemble(decrypted)
                    with span("client.postprocess"):
                        answer = client.post_process(xpath, pruned)
                    break
                except IntegrityError:
                    if attempt == STAGED_ATTEMPTS - 1:
                        raise
                    retries += 1
        counts = self.counts
        with counts.lock:
            counts.modelled_transfer_s += modelled
            counts.blocks_shipped += response.blocks_shipped
            counts.fragments_shipped += len(response.fragments)
            counts.candidates += sum(response.candidate_counts.values())
            counts.answers += len(answer)
            counts.retries += retries
        return ReadResult(answer.nodes, response.size_bytes())


@contextmanager
def traced_update_engine(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap ``UpdateEngine``'s public calls in spans while a traced run lasts.

    Writes go through ``system.insert_element`` & co. untouched; the
    wrappers sit on the class boundary the system itself calls through,
    so the write path keeps its client rebuild and shard routing.  On
    serve-socket the engine runs on a server thread: those spans have no
    parent op and are matched to writes by name only.
    """
    names = {
        "resolve_single": "updates.resolve",
        "insert_element": "updates.apply",
        "update_value": "updates.apply",
        "delete_element": "updates.apply",
    }
    originals = {name: getattr(UpdateEngine, name) for name in names}

    def wrap(original: Callable, span_name: str) -> Callable:
        def wrapper(self, *args, **kwargs):
            with recorder.span(span_name):
                return original(self, *args, **kwargs)

        return wrapper

    for name, span_name in names.items():
        setattr(UpdateEngine, name, wrap(originals[name], span_name))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(UpdateEngine, name, original)


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class WriteClock:
    """How many writes have started / completed, and which, in order."""

    started: int = 0
    done: int = 0
    writes: list[Op] = field(default_factory=list)


class Lane:
    """One connection's closed loop: the next op starts when the last ends."""

    def __init__(
        self,
        index: int,
        system: SecureXMLSystem,
        execute: Callable,
        clock: WriteClock,
        cold: bool,
        speed: MachineSpeed,
    ) -> None:
        self.index = index
        self.system = system
        self.execute = execute
        self.clock = clock
        self.cold = cold
        self.speed = speed
        #: op id → (wall seconds, time at mid-op), failed ops included.
        self.timings: dict[int, tuple[float, float]] = {}
        #: Ids of the completed reads / writes.
        self.reads: list[int] = []
        self.writes: list[int] = []
        self.transfer_bytes: list[int] = []
        self.observations: list[Observation] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.rounds = 0
        self._seen: set[tuple[str, int, int]] = set()
        self.error: "BaseException | None" = None

    def run(self, plan: Plan, seconds: float, rounds: "int | None") -> None:
        """Whole rounds until the next one would overrun ``seconds``.

        A fixed ``rounds`` (smoke tests) replaces the clock.
        """
        try:
            started = time.perf_counter()
            last_round = 0.0
            while True:
                if rounds is not None:
                    if self.rounds >= rounds:
                        break
                elif self.rounds and (
                    time.perf_counter() - started + last_round > seconds
                ):
                    break
                round_started = time.perf_counter()
                for op in plan.round_ops(self.rounds, self.index):
                    self.step(op)
                last_round = time.perf_counter() - round_started
                self.rounds += 1
        except BaseException as exc:  # re-raised by the caller after join
            self.error = exc

    def step(self, op: Op) -> None:
        clock = self.clock
        if self.cold:
            self.system.flush_caches()
        op_id = self.index * 10_000_000 + self.attempted
        self.attempted += 1
        lo = clock.done
        if op.is_write:
            clock.started += 1
        result = None
        error = None
        self.speed.sample()
        started = time.perf_counter()
        try:
            result = self.execute(self.system, op, op_id)
        except Exception:
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        ended = time.perf_counter()
        self.speed.sample()
        elapsed = ended - started
        middle = (started + ended) / 2
        self.timings[op_id] = (elapsed, middle)
        if error is None and elapsed > OP_TIMEOUT_S:
            error = f"took {elapsed:.1f}s (limit {OP_TIMEOUT_S}s)"
        if error is not None:
            self.failures.append(f"op {op_id}: {op.kind} {op.xpath!r}: {error}")
            if op.is_write:
                clock.started -= 1  # assumed not applied
            return
        if op.is_write:
            clock.writes.append(op)
            clock.done += 1
            self.writes.append(op_id)
            return
        hi = clock.started
        self.reads.append(op_id)
        self.transfer_bytes.append(result.transfer_bytes)
        key = (op.xpath, lo, hi)
        if key not in self._seen:
            self._seen.add(key)
            self.observations.append(
                Observation(
                    op.xpath, lo, hi,
                    digest(canonical_answer(result.nodes)), op_id,
                )
            )


def run_lanes(
    lanes: list[Lane], plan: Plan, seconds: float, rounds: "int | None"
) -> None:
    if len(lanes) == 1:
        lanes[0].run(plan, seconds, rounds)
    else:
        threads = [
            threading.Thread(
                target=lane.run, args=(plan, seconds, rounds),
                name=f"bench-lane-{lane.index}",
            )
            for lane in lanes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    for lane in lanes:
        if lane.error is not None:
            raise lane.error


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(samples)
    return ranked[max(0, math.ceil(fraction * len(ranked)) - 1)]


def samples_beyond(count: int, fraction: float) -> int:
    return count - math.ceil(fraction * count)


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def hit_rate(delta: dict[str, int], cache: str) -> float:
    hits = delta[f"{cache}_cache_hits"]
    return ratio(hits, hits + delta[f"{cache}_cache_misses"])


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    workload: str
    traced: bool
    #: name → (value, unit)
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    failures: list[str]
    environment: dict[str, object]
    report: str = ""

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    rounds: "int | None" = None,
    size: "int | None" = None,
) -> RunResult:
    """Set up, run and check one workload; see the module docstring."""
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    recorder = SpanRecorder() if traced else None
    phases: dict[str, float] = {}
    clock_started = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock_started
        now = time.perf_counter()
        phases[name] = round(now - clock_started, 3)
        clock_started = now

    speed = MachineSpeed()
    probes = setup_probes(workload, size) if traced else {}
    setups: list[tuple[float, float]] = []
    session = None
    try:
        for _ in range(1 if traced or rounds is not None else SETUPS):
            if session is not None:
                session.close()
            session, elapsed, middle = timed_setup(workload, size, speed)
            setups.append((elapsed, middle))
        assert session is not None

        oracle = Oracle(build_document(workload, size)[0])
        plan = Plan(workload, oracle.document, seed)
        clock = WriteClock()
        if traced:
            assert recorder is not None
            execute: Callable = StagedExecutor(
                recorder, remote=bool(workload.connections)
            )
        else:
            execute = execute_untraced
        lanes = [
            Lane(index, handle, execute, clock, workload.cold, speed)
            for index, handle in enumerate(session.handles)
        ]
        if not workload.cold:
            # One warm-up pass over the hot set on every connection.
            for handle in session.handles:
                for xpath in plan.distinct_reads():
                    handle.query(xpath)
        gc.collect()
        gc.freeze()
        phase("setup")

        metrics_registry = session.local.observability().metrics
        counters_before = metrics_registry.counter_values()
        with traced_update_engine(recorder) if traced else nullcontext():
            run_lanes(lanes, plan, seconds, rounds)
        delta = metrics_registry.counters_delta(counters_before)
        # Before the checks below, which hold a second copy of the system.
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        phase("timed_loop")

        observations = [o for lane in lanes for o in lane.observations]
        failures = [f for lane in lanes for f in lane.failures]
        attempted = sum(lane.attempted for lane in lanes)
        if not all(lane.reads for lane in lanes) or not lanes[0].writes:
            raise RuntimeError(
                f"{workload.name}: no completed reads or writes to report "
                f"({len(failures)} failures: {failures[:3]})"
            )
        failures += oracle.check(clock.writes, observations)
        phase("oracle_check")

        reduce_probe: Callable[[], dict[str, float]] = dict
        if traced:
            reduce_probe, probe_failures, probed = probe_pass(
                workload, session, plan, observations, clock.done, speed
            )
            failures += probe_failures
            attempted += probed
            phase("probe_pass")
        restart: dict[str, float] = {}
        if workload.restart:
            # Restart from a quiescent state: at the seed commit a hosting
            # saved while an inserted element is live reloads to wrong
            # answers (see README, "Defects found"), so close the cycle.
            for op in plan.closing_writes(clock.done):
                apply_write(session.handles[0], op)
                oracle.apply(op)
        if traced or workload.restart:
            restart, restart_failures, rechecked = restart_check(
                session, oracle, plan, scratch, recheck=workload.restart
            )
            failures += restart_failures
            attempted += rechecked
            phase("restart")
    finally:
        if session is not None:
            session.close()
        shutil.rmtree(scratch, ignore_errors=True)

    speed.freeze()
    slowdown = {
        op_id: speed.slowdown(wall, at)
        for lane in lanes
        for op_id, (wall, at) in lane.timings.items()
    }
    median_slowdown = statistics.median(slowdown.values())

    def normalised(lane: Lane, op_ids: list[int]) -> list[float]:
        return [lane.timings[i][0] / slowdown[i] for i in op_ids]

    read_s = [t for lane in lanes for t in normalised(lane, lane.reads)]
    write_s = [t for lane in lanes for t in normalised(lane, lane.writes)]
    trace = session.local.hosting_trace
    environment = {
        "seed": seed,
        "seconds": seconds,
        "sizes": {
            "dataset": workload.dataset,
            "records": size if size is not None else workload.size,
            "plaintext_bytes": trace.plaintext_bytes,
            "hosted_bytes": trace.hosted_bytes,
            "blocks": trace.block_count,
            "index_entries": trace.index_entries,
        },
        "samples": {
            "reads": len(read_s),
            "writes": len(write_s),
            "rounds": [lane.rounds for lane in lanes],
            "setups": len(setups),
            "beyond_p90": samples_beyond(len(read_s), 0.9),
            "distinct_reads_checked": len(observations),
        },
        "machine_speed": {
            "reference_ms_fastest": speed.fastest * 1000,
            "median_slowdown": median_slowdown,
            "max_slowdown": max(slowdown.values()),
        },
        "phase_wall_s": phases,
    }

    report = ""
    if not traced:
        metrics = {
            "setup_s": (
                statistics.median(speed.normalise(w, at) for w, at in setups),
                "s",
            ),
            "query_p50_ms": (statistics.median(read_s) * 1000, "ms"),
            "query_p90_ms": (percentile(read_s, 0.9) * 1000, "ms"),
            # Per-connection completion rate, summed over connections; the
            # harness's own bookkeeping between ops is not in the divisor.
            "ops_per_s": (
                sum(
                    ratio(
                        len(lane.reads) + len(lane.writes),
                        sum(normalised(lane, lane.reads + lane.writes)),
                    )
                    for lane in lanes
                ),
                "1/s",
            ),
            "write_p50_ms": (statistics.median(write_s) * 1000, "ms"),
            "bytes_per_query": (
                mean([b for lane in lanes for b in lane.transfer_bytes]), "B"
            ),
            "storage_expansion": (
                trace.hosted_bytes / trace.plaintext_bytes, "ratio"
            ),
            "peak_rss_mb": (peak_rss_kib / 1024, "MiB"),
        }
    else:
        assert recorder is not None and isinstance(execute, StagedExecutor)
        recorder.set_scales(
            {op_id: 1 / factor for op_id, factor in slowdown.items()},
            default=1 / median_slowdown,
        )
        # Side measurements taken outside any op (probes, hosting,
        # restart) take the run's median slowdown.
        outside = {
            **probes, **restart, "encryptor.host_ms": trace.encrypt_s * 1000
        }
        for name, value in outside.items():
            if name.endswith("_ms"):
                outside[name] = value / median_slowdown
            elif name.endswith("_mb_s"):
                outside[name] = value * median_slowdown
        outside.update(reduce_probe())
        metrics = layer_metrics(
            recorder, execute.counts, delta, len(read_s), write_s,
            trace, outside,
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.write_jsonl(
            os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl")
        )
        report = (
            f"Fig. 9 stage table, {workload.name} reads "
            f"(mean self time per op):\n"
            + stage_table(recorder, READ, STAGE_ORDER)
        )
    return RunResult(
        workload=workload.name,
        traced=traced,
        metrics=metrics,
        attempted=attempted,
        failed=len(failures),
        failures=failures,
        environment=environment,
        report=report,
    )


# ----------------------------------------------------------------------
# Traced-run probes
# ----------------------------------------------------------------------
def _throughput_mb_s(work: Callable[[], object], size: int) -> float:
    started = time.perf_counter()
    work()
    return size / (time.perf_counter() - started) / 1e6


def setup_probes(
    workload: Workload, size: "int | None"
) -> dict[str, float]:
    """Side measurements of the hosting layers, outside any hosting."""
    document, constraints = build_document(workload, size)
    started = time.perf_counter()
    build_scheme(document, constraints, "opt")
    probes = {"scheme.build_ms": (time.perf_counter() - started) * 1000}

    keyring = ClientKeyring(MASTER_KEY)
    cipher = keyring.block_cipher
    iv = keyring.block_iv(0)
    payload = bytes(range(256)) * (CRYPTO_PROBE_BYTES // 256)
    sealed: list[bytes] = []
    probes["crypto.aes_encrypt_mb_s"] = _throughput_mb_s(
        lambda: sealed.append(cbc_encrypt(cipher, iv, payload)), len(payload)
    )
    probes["crypto.aes_decrypt_mb_s"] = _throughput_mb_s(
        lambda: cbc_decrypt(cipher, iv, sealed[0]), len(payload)
    )
    probes["crypto.hmac_mb_s"] = _throughput_mb_s(
        lambda: hmac_sha256(keyring.block_mac_key, payload), len(payload)
    )
    return probes


def probe_pass(
    workload: Workload,
    session: Session,
    plan: Plan,
    observations: list[Observation],
    final_state: int,
    speed: MachineSpeed,
) -> tuple[Callable[[], dict[str, float]], list[str], int]:
    """After the traced loop: every distinct read once more, on one thread.

    Per read, weighted by its count in a round: ``system.query`` and the
    staged replay back to back in the same state (their ratio is
    ``obs.traced_overhead_ratio``; the order alternates so neither always
    runs second; warm reads are cheap and noisy, so they get three pairs
    and the median counts), ``Server.answer`` alone, and on serve-socket
    the in-process ``Server.answer_wire`` of the blob the socket carried.
    ``system.query``'s answer must equal the staged answer the timed loop
    recorded for the same state.

    Returns a function that reduces the timings to metrics; call it once
    ``speed`` is frozen.
    """
    handle = session.handles[0]
    server = session.local.server
    staged = StagedExecutor(SpanRecorder(), remote=bool(workload.connections))
    staged_final = {
        o.xpath: o.answer
        for o in observations
        if o.lo == o.hi == final_state
    }
    weights: dict[str, int] = {}
    for xpath in plan.reads:
        weights[xpath] = weights.get(xpath, 0) + 1
    #: (what, xpath) → [(wall, at), ...]
    timings: dict[tuple[str, str], list[tuple[float, float]]] = {}

    def timed(what: str, xpath: str, call: Callable[[], object]) -> object:
        if workload.cold:
            handle.flush_caches()
        speed.sample()
        started = time.perf_counter()
        result = call()
        ended = time.perf_counter()
        speed.sample()
        timings.setdefault((what, xpath), []).append(
            (ended - started, (started + ended) / 2)
        )
        return result

    failures: list[str] = []
    pairs = 1 if workload.cold else 3
    for position, xpath in enumerate(weights):
        op = Op(READ, xpath)
        for pair in range(pairs):
            calls = [
                ("query", lambda: handle.query(xpath)),
                ("staged", lambda: staged(handle, op, -1)),
            ]
            if (position + pair) % 2:
                calls.reverse()
            for what, call in calls:
                result = timed(what, xpath, call)
                if what == "query":
                    answer = result
        expected = staged_final.get(xpath)
        if expected is not None and expected != digest(answer.canonical()):
            failures.append(
                f"staged answer to {xpath!r} differs from system.query()'s"
            )
        translated = handle.client.translate(xpath)
        timed("answer", xpath, lambda: server.answer(translated))
        if workload.connections:
            blob = handle.client.seal_request(translated, cache_key=xpath)
            timed("wire", xpath, lambda: server.answer_wire(blob))

    def reduce() -> dict[str, float]:
        def per_round(what: str) -> float:
            return sum(
                weight
                * statistics.median(
                    speed.normalise(wall, at)
                    for wall, at in timings[what, xpath]
                )
                for xpath, weight in weights.items()
                if (what, xpath) in timings
            )

        reads = len(plan.reads)
        return {
            "obs.traced_overhead_ratio": ratio(
                per_round("staged"), per_round("query")
            ),
            "server.answer_ms": per_round("answer") / reads * 1000,
            "server.answer_wire_inprocess_ms": per_round("wire") / reads * 1000,
        }

    return reduce, failures, len(weights)


def restart_check(
    session: Session, oracle: Oracle, plan: Plan, scratch: str, recheck: bool
) -> tuple[dict[str, float], list[str], int]:
    """``save_system`` → ``load_system``; optionally re-check every read."""
    directory = os.path.join(scratch, "saved")
    started = time.perf_counter()
    save_system(session.local, directory)
    saved = time.perf_counter()
    loaded = load_system(directory, MASTER_KEY)
    restart = {
        "storage.save_ms": (saved - started) * 1000,
        "storage.load_ms": (time.perf_counter() - saved) * 1000,
        "storage.disk_bytes": float(
            sum(
                os.path.getsize(os.path.join(root, name))
                for root, _, names in os.walk(directory)
                for name in names
            )
        ),
    }
    failures: list[str] = []
    checked = 0
    try:
        if recheck:
            for xpath in plan.distinct_reads():
                checked += 1
                try:
                    actual = loaded.query(xpath).canonical()
                except Exception:
                    actual = None
                if actual != oracle.expected(xpath):
                    failures.append(
                        f"after save/load: {xpath!r} differs from the oracle"
                    )
    finally:
        loaded.close()
    return restart, failures, checked


def layer_metrics(
    recorder: SpanRecorder,
    counts: StageCounts,
    delta: dict[str, int],
    reads: int,
    write_s: list[float],
    trace,
    outside: dict[str, float],
) -> dict[str, tuple[float, str]]:
    totals, wall, ops = recorder.stage_totals(READ)

    def stage_ms(name: str) -> float:
        return ratio(totals.get(name, 0.0), ops) * 1000

    def share(*names: str) -> float:
        return ratio(sum(totals.get(name, 0.0) for name in names), wall)

    writes = len(write_s)
    blocks_decrypted = delta["block_cache_misses"]
    resolve_ms = mean(recorder.durations("updates.resolve")) * 1000
    apply_ms = mean(recorder.durations("updates.apply")) * 1000
    rtt_ms = stage_ms("serving.rtt")
    inprocess_wire_ms = outside["server.answer_wire_inprocess_ms"]
    metrics = {
        "client.translate_ms": (stage_ms("client.translate"), "ms"),
        "client.seal_ms": (stage_ms("client.seal"), "ms"),
        "client.verify_ms": (stage_ms("client.verify"), "ms"),
        "client.decrypt_ms": (stage_ms("client.decrypt"), "ms"),
        "client.assemble_ms": (stage_ms("client.assemble"), "ms"),
        "client.postprocess_ms": (stage_ms("client.postprocess"), "ms"),
        "client.blocks_decrypted": (ratio(blocks_decrypted, reads), "count"),
        "client.answers_per_block": (
            ratio(counts.answers, blocks_decrypted), "ratio"
        ),
        "client.plan_cache_hit_rate": (hit_rate(delta, "plan"), "ratio"),
        "client.block_cache_hit_rate": (hit_rate(delta, "block"), "ratio"),
        "client.tree_cache_hit_rate": (hit_rate(delta, "tree"), "ratio"),
        "server.answer_ms": (outside["server.answer_ms"], "ms"),
        "server.answer_wire_ms": (
            stage_ms("server.answer_wire") or inprocess_wire_ms, "ms"
        ),
        "server.candidates_per_answer": (
            ratio(counts.candidates, counts.answers), "ratio"
        ),
        "server.blocks_shipped": (ratio(counts.blocks_shipped, reads), "count"),
        "server.fragments_shipped": (
            ratio(counts.fragments_shipped, reads), "count"
        ),
        "server.fragment_cache_hit_rate": (
            hit_rate(delta, "fragment"), "ratio"
        ),
        "updates.resolve_ms": (resolve_ms, "ms"),
        "updates.apply_ms": (apply_ms, "ms"),
        "updates.unaccounted_ms": (
            mean(write_s) * 1000 - resolve_ms - apply_ms, "ms"
        ),
        # Every write translates its own target once (one plan miss); the
        # other misses are reads that had to start over after a write.
        "updates.recold_reads_per_write": (
            ratio(delta["plan_cache_misses"] - writes, writes), "count"
        ),
        "scheme.build_ms": (outside["scheme.build_ms"], "ms"),
        "encryptor.host_ms": (outside["encryptor.host_ms"], "ms"),
        "encryptor.blocks": (float(trace.block_count), "count"),
        "encryptor.decoys": (float(trace.decoy_count), "count"),
        "dsi.index_entries": (float(trace.index_entries), "count"),
        "opess.value_index_entries": (
            float(trace.value_index_entries), "count"
        ),
        "crypto.aes_encrypt_mb_s": (outside["crypto.aes_encrypt_mb_s"], "MB/s"),
        "crypto.aes_decrypt_mb_s": (outside["crypto.aes_decrypt_mb_s"], "MB/s"),
        "crypto.hmac_mb_s": (outside["crypto.hmac_mb_s"], "MB/s"),
        "storage.save_ms": (outside["storage.save_ms"], "ms"),
        "storage.load_ms": (outside["storage.load_ms"], "ms"),
        "storage.disk_bytes": (outside["storage.disk_bytes"], "B"),
        "serving.rtt_ms": (rtt_ms, "ms"),
        "serving.frontdoor_ms": (
            rtt_ms - inprocess_wire_ms if rtt_ms else 0.0, "ms"
        ),
        "serving.retries": (
            float(delta["query_retries"] + counts.retries), "count"
        ),
        "serving.rejections": (float(delta["backpressure_rejections"]), "count"),
        # Modelled by netsim from bytes and bandwidth; never part of wall.
        "netsim.transfer_model_ms": (
            ratio(counts.modelled_transfer_s, reads) * 1000, "ms"
        ),
        "netsim.transfer_wall_ms": (stage_ms("netsim.transfer"), "ms"),
        "pipeline.decrypt_share": (share("client.decrypt"), "ratio"),
        "pipeline.server_share": (
            share("server.answer_wire", "serving.rtt"), "ratio"
        ),
        "pipeline.postprocess_share": (
            share("client.assemble", "client.postprocess"), "ratio"
        ),
        "pipeline.unaccounted_ms": (stage_ms("unaccounted"), "ms"),
        "obs.traced_overhead_ratio": (
            outside["obs.traced_overhead_ratio"], "ratio"
        ),
    }
    return metrics
