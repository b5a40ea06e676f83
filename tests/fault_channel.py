"""Deterministic fault injection for the modelled channel (chaos tests).

A test double: nothing in ``src/`` constructs it.  The system takes any
:class:`~repro.netsim.channel.Channel`, and a test hands it a
:class:`FaultyChannel` instead.

A :class:`FaultPolicy` is a seeded random schedule of wire faults — drop,
delay, corrupt-bytes, truncate, duplicate — with independent rates per
direction.  A :class:`FaultyChannel` applies the policy to every
:meth:`~repro.netsim.channel.Channel.transfer`, so chaos tests drive the
*real* query path: corrupted payloads reach the real integrity envelope,
drops reach the real retry loop (as the channel's own
:class:`~repro.netsim.channel.TransferDropped`).

Determinism is load-bearing: the policy consumes one ``random.Random``
stream in a fixed draw order per transfer, so the same seed, the same
rates and the same traffic produce the identical fault schedule — and
therefore identical retry counts in every :class:`~repro.core.system
.QueryTrace` (asserted in ``tests/test_chaos_end_to_end.py``).

Rollback attacker
-----------------

Byte-mangling faults are caught by the MAC; the *rollback* fault models
a strictly stronger adversary: the channel (standing in for a malicious
or lagging server) records each validly-sealed response and, on a seeded
``rollback`` decision, substitutes the **earliest recorded** response
for the same logical request — a perfectly-MACed pre-update snapshot.
Responses are keyed by the request payload with its freshness header
stripped (:func:`repro.core.integrity.envelope_payload`), because the
sealed request bytes change at every commit epoch while the logical
query underneath does not.  ``FaultPolicy(pin_stale=True)`` is the
deterministic variant: the server behind this channel *always* serves
its first-recorded snapshot, modelling a server frozen at an old epoch
until :meth:`FaultyChannel.resync` clears its recorded state.
Cross-request substitution is deliberately not modelled — it would
decode to a wrong-but-accepted answer, which is outside the freshness
threat (and already excluded by the per-block tags for block payloads).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.netsim.channel import Channel, TransferDropped
from repro.obs.span import count, current


@dataclass(frozen=True)
class FaultRates:
    """Per-direction fault probabilities, each independently in [0, 1]."""

    drop: float = 0.0
    corrupt: float = 0.0
    truncate: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    #: Replay a recorded earlier-epoch response (valid MAC, stale state).
    rollback: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "drop", "corrupt", "truncate", "duplicate", "delay", "rollback"
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate must be in [0, 1], got {rate}")

    @property
    def any(self) -> bool:
        return bool(
            self.drop or self.corrupt or self.truncate
            or self.duplicate or self.delay or self.rollback
        )


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded in the policy's schedule."""

    transfer_index: int
    direction: str
    kind: str  # "drop" | "corrupt" | "truncate" | "duplicate" | "delay"
    detail: int  # byte offset (corrupt), new length (truncate), else 0


@dataclass(frozen=True)
class _Decision:
    drop: bool = False
    duplicate: bool = False
    delay_seconds: float = 0.0
    corrupt_offset: int | None = None
    corrupt_xor: int = 0
    truncate_to: int | None = None
    rollback: bool = False


class FaultPolicy:
    """Seeded schedule of wire faults, with per-direction rates.

    Draw order per transfer is fixed (duplicate, delay, drop, corrupt,
    truncate, rollback — plus the conditional detail draws), which is
    what makes the schedule a pure function of (seed, rates, traffic).
    The rollback draw only consumes randomness when its rate is nonzero,
    so schedules of pre-rollback policies are byte-for-byte unchanged.

    ``pin_stale=True`` makes the channel *deterministically* stale: it
    always serves the first response it recorded for each logical
    request, independent of any random draw — the "server pinned at an
    old epoch" scenario.
    """

    def __init__(
        self,
        seed: int = 0,
        client_to_server: FaultRates | None = None,
        server_to_client: FaultRates | None = None,
        delay_seconds: float = 0.05,
        pin_stale: bool = False,
    ) -> None:
        self.seed = seed
        self.client_to_server = client_to_server or FaultRates()
        self.server_to_client = server_to_client or FaultRates()
        self.delay_seconds = delay_seconds
        self.pin_stale = pin_stale
        self.schedule: list[FaultEvent] = []
        self._rng = random.Random(seed)
        self._transfer_index = 0

    @classmethod
    def symmetric(cls, seed: int = 0, **rates: float) -> "FaultPolicy":
        """Same :class:`FaultRates` in both directions (test convenience)."""
        shared = FaultRates(**rates)
        return cls(seed, client_to_server=shared, server_to_client=shared)

    def rates_for(self, direction: str) -> FaultRates:
        if direction == "client->server":
            return self.client_to_server
        return self.server_to_client

    def decide(self, direction: str, size_bytes: int) -> _Decision:
        """Sample the faults for one transfer (advances the schedule)."""
        index = self._transfer_index
        self._transfer_index += 1
        rates = self.rates_for(direction)
        if not rates.any:
            return _Decision()
        rng = self._rng

        duplicate = rng.random() < rates.duplicate
        delay = self.delay_seconds if rng.random() < rates.delay else 0.0
        drop = rng.random() < rates.drop
        corrupt_offset: int | None = None
        corrupt_xor = 0
        if rng.random() < rates.corrupt and size_bytes > 0:
            corrupt_offset = rng.randrange(size_bytes)
            corrupt_xor = rng.randrange(1, 256)  # never the identity flip
        truncate_to: int | None = None
        if rng.random() < rates.truncate and size_bytes > 0:
            truncate_to = rng.randrange(size_bytes)
        # Guarded draw: zero-rollback policies keep their exact pre-epoch
        # RNG stream, so historical seeded schedules stay byte-identical.
        rollback = rates.rollback > 0 and rng.random() < rates.rollback

        for kind, hit, detail in (
            ("duplicate", duplicate, 0),
            ("delay", bool(delay), 0),
            ("drop", drop, 0),
            ("corrupt", corrupt_offset is not None, corrupt_offset or 0),
            ("truncate", truncate_to is not None, truncate_to or 0),
            ("rollback", rollback, 0),
        ):
            if hit:
                self.schedule.append(
                    FaultEvent(index, direction, kind, detail)
                )
        return _Decision(
            drop=drop,
            duplicate=duplicate,
            delay_seconds=delay,
            corrupt_offset=corrupt_offset,
            corrupt_xor=corrupt_xor,
            truncate_to=truncate_to,
            rollback=rollback,
        )

    def schedule_signature(self) -> tuple[tuple[int, str, str, int], ...]:
        """Hashable form of the schedule, for determinism assertions."""
        return tuple(
            (e.transfer_index, e.direction, e.kind, e.detail)
            for e in self.schedule
        )


@dataclass
class FaultyChannel(Channel):
    """A :class:`Channel` that injects faults from a :class:`FaultPolicy`.

    Every attempt is billed in :attr:`billed` (dropped bytes were still
    sent, and never reach a ``transfer`` span), and a duplicated payload
    is billed twice — so bandwidth sweeps under faults stay honest.
    Semantically a duplicate is idempotent for this request/response
    protocol; only the accounting sees it.

    The channel doubles as the rollback attacker's vantage point (see
    the module docstring): it remembers the first sealed response per
    logical request and substitutes it on a ``rollback`` decision (or
    always, under ``pin_stale``).  Substitution happens *before* the
    send, because the stale server genuinely transmits the stale bytes —
    bandwidth accounting must bill what actually crossed the wire.
    """

    policy: FaultPolicy = field(default_factory=FaultPolicy)
    #: ``(direction, bytes)`` of every payload put on the wire, in order.
    billed: list[tuple[str, int]] = field(
        default_factory=list, repr=False, compare=False
    )
    #: Diagnostic breadcrumb: the kind of the last fault this channel
    #: injected, surfaced in QueryFailedError text.
    last_fault_kind: str | None = field(
        default=None, repr=False, compare=False
    )
    #: First-recorded sealed response *sequence* per stripped request
    #: payload.  A streamed response is several server→client transfers
    #: for one request, so snapshots are positional: replaying position
    #: ``i`` of the recorded sequence yields a coherent old-epoch stream.
    _snapshots: dict[bytes, list[bytes]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _last_request_key: bytes | None = field(
        default=None, repr=False, compare=False
    )
    _response_seq: int = field(default=0, repr=False, compare=False)

    def resync(self) -> None:
        """Model the stale server catching up to the committed state.

        Clears the recorded-snapshot store, so the next response per
        request is re-recorded at the current epoch; a test calls it to
        end a pinned-stale scenario.
        """
        self._snapshots.clear()
        self._last_request_key = None
        self._response_seq = 0

    def _apply_rollback(
        self, direction: str, payload: bytes, decision: _Decision
    ) -> bytes:
        """Record responses; substitute a stale snapshot when attacking."""
        from repro.core.integrity import envelope_payload

        if direction == "client->server":
            self._last_request_key = envelope_payload(payload)
            self._response_seq = 0
            return payload
        key = self._last_request_key
        if key is None:
            return payload
        seq = self._response_seq
        self._response_seq += 1
        recorded = self._snapshots.setdefault(key, [])
        if seq >= len(recorded):
            recorded.append(payload)
            return payload
        stale = recorded[seq]
        attacking = decision.rollback or self.policy.pin_stale
        if attacking and stale != payload:
            count("faults_rolled_back")
            self._annotate_fault("rollback")
            return stale
        return payload

    def transfer(
        self, direction: str, label: str, payload: bytes
    ) -> tuple[bytes, float]:
        decision = self.policy.decide(direction, len(payload))
        payload = self._apply_rollback(direction, payload, decision)
        seconds = self._bill(direction, len(payload))
        if decision.duplicate:
            seconds += self._bill(direction, len(payload))
            count("faults_duplicated")
            self._annotate_fault("duplicate")
        if decision.delay_seconds:
            seconds += decision.delay_seconds
            count("faults_delayed")
            self._annotate_fault("delay")
        if decision.drop:
            count("faults_dropped")
            self._annotate_fault("drop")
            raise TransferDropped(f"{direction} {label!r} dropped")
        if decision.truncate_to is not None:
            payload = payload[: decision.truncate_to]
            count("faults_truncated")
            self._annotate_fault("truncate")
        if decision.corrupt_offset is not None and decision.corrupt_offset < len(payload):
            mutated = bytearray(payload)
            mutated[decision.corrupt_offset] ^= decision.corrupt_xor
            payload = bytes(mutated)
            count("faults_corrupted")
            self._annotate_fault("corrupt")
        self.observe_transfer(direction, label, len(payload), seconds)
        return payload, seconds

    def _bill(self, direction: str, size_bytes: int) -> float:
        seconds = self.wire_seconds(direction, size_bytes)
        self.billed.append((direction, size_bytes))
        return seconds

    def billed_bytes(self) -> int:
        """Bytes put on the wire, dropped and duplicated ones included."""
        return sum(size for _, size in self.billed)

    def _annotate_fault(self, kind: str) -> None:
        """Tag the caller's open span with an injected-fault event.

        The ambient span at transfer time is the query's root (or its
        current attempt), so the slow-query log and rendered trace trees
        show *which* faults a slow or retried query actually hit.
        """
        self.last_fault_kind = kind
        span = current()
        if span is not None:
            span.add_event("faults", kind)
