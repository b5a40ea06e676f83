"""Access-pattern leakage tier: fetch countermeasures and trace recording.

The server cannot read ciphertext, but an honest-but-curious observer of
the storage layer still sees *which* encryption blocks every query
touches.  *Oblivious Query Processing* (Arasu & Kaushik) and
*Information Flows in Encrypted Databases* (Vaswani et al.) both show
that this access trace alone lets the observer cluster queries and
re-identify documents under semantically secure encryption.

The tier is one switch, ``SecureXMLSystem.host(leakage=True)``.  With it
on, every evaluated query fetches :data:`DECOYS` decoy blocks, pads its
fetch count up to a multiple of :data:`PAD_TO`, and issues the whole
plan in shuffled order.  Decoys, padding and the shuffle are drawn from
the owner's :meth:`~repro.crypto.keyring.ClientKeyring.cover_stream`:
the same master key replays byte-identical traces, and no public value
reproduces them (a stream any observer can rebuild lets it strip the
cover traffic back off).

:class:`LeakageContext` is the per-system object the
:class:`~repro.core.server.Server` calls on each evaluated query to
perform the extra fetches and account for them in the dedicated
``leakage_*`` counters.  A :class:`TraceRecorder` is attached only while
the game of :mod:`repro.security.leakage` observes; otherwise no trace
is kept.

Everything here operates strictly *below* the wire: decoy and padding
fetches read ciphertext the server already stores, never leave the
machine, and never touch the response bytes — answers stay
byte-identical with the tier on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.crypto.prf import DeterministicRandom
from repro.obs.span import count

#: Every query's fetch count is rounded up to a multiple of this, with a
#: floor of one full bucket, so even a zero-block query fetches.
PAD_TO = 8
#: Decoy block fetches added to every evaluated query.
DECOYS = 16


@dataclass(frozen=True)
class ObservedTrace:
    """One query's fetches: what it needed and what the storage served.

    ``blocks`` is the ordered block-id sequence the storage layer
    served — real fetches plus decoy and padding fetches, in the
    shuffled order they were issued.  This is the attacker's entire
    view.  ``real`` is the ids the evaluated answer actually needed, in
    walk order: the view of an observer of a system without the
    countermeasures.
    """

    blocks: tuple[int, ...]
    real: tuple[int, ...] = ()

    def encode(self) -> bytes:
        """Canonical bytes of the served sequence, for byte-identity."""
        return ",".join(str(block) for block in self.blocks).encode("utf-8")


class TraceRecorder:
    """Append-only log of :class:`ObservedTrace`.

    Order is the order the server actually served the fetches; a served
    tenant runs one request at a time, so no two queries record at once.
    """

    def __init__(self) -> None:
        self._traces: list[ObservedTrace] = []

    def record(self, trace: ObservedTrace) -> None:
        self._traces.append(trace)
        count("leakage_traces_recorded")

    def traces(self) -> list[ObservedTrace]:
        """Recorded traces, in the order they were served."""
        return list(self._traces)

    def encode(self) -> bytes:
        """Canonical bytes for the whole log."""
        return b"\n".join(trace.encode() for trace in self.traces())


class LeakageContext:
    """Per-system countermeasure state: the cover stream.

    Every query draws from one advancing stream, so decoy draws are
    fresh per query (a repeated query does *not* repeat its decoys —
    per-request determinism would let the observer match repeats by set
    equality) while remaining replay-identical across runs under one
    key, because the call sequence is identical.
    """

    def __init__(self, stream: DeterministicRandom) -> None:
        self._stream = stream
        #: Where traces go while the leakage game observes; ``None``
        #: otherwise, so a long-running tenant keeps no per-query state.
        self.recorder: "TraceRecorder | None" = None

    def observe(
        self,
        real_ids: Sequence[int],
        universe: Sequence[int],
        fetch: Callable[[int], "bytes | None"],
    ) -> int:
        """Run one query's padded, decoyed, shuffled fetch plan.

        ``real_ids`` are the block ids the evaluated answer actually
        ships (subtree-walk ground truth); ``universe`` is the sorted
        block-id population the server could legitimately be asked
        for (the whole store); ``fetch`` resolves an id to its stored
        ciphertext so decoy/padding fetches do real storage reads.
        Returns the total fetch count (the padded trace length).  One
        query's draws are contiguous on the stream: a served tenant runs
        one request at a time.
        """
        plan = list(real_ids)
        real_bytes = 0
        for block_id in real_ids:
            payload = fetch(block_id)
            if payload is not None:
                real_bytes += len(payload)
        extra_bytes = 0
        if universe:
            rng = self._stream
            # DECOYS draws, then padding draws up to the bucket.
            target = max(PAD_TO, -(-(len(plan) + DECOYS) // PAD_TO) * PAD_TO)
            while len(plan) < target:
                block_id = universe[rng.randint(0, len(universe) - 1)]
                extra_bytes += len(fetch(block_id) or b"")
                plan.append(block_id)
            # Shuffle the issue order so trace position does not
            # reveal which fetches were real.
            rng.shuffle(plan)
        count("leakage_real_fetches", len(real_ids))
        count("leakage_real_bytes", real_bytes)
        extra = len(plan) - len(real_ids)
        if extra:
            count("leakage_decoy_fetches", DECOYS)
            count("leakage_extra_bytes", extra_bytes)
        if extra > DECOYS:
            count("leakage_pad_fetches", extra - DECOYS)
        if self.recorder is not None:
            self.recorder.record(ObservedTrace(tuple(plan), tuple(real_ids)))
        return len(plan)
