"""Access-pattern leakage tier: trace recording and fetch countermeasures.

The server cannot read ciphertext, but an honest-but-curious observer of
the storage layer still sees *which* encryption blocks every query
touches.  *Oblivious Query Processing* (Arasu & Kaushik) and
*Information Flows in Encrypted Databases* (Vaswani et al.) both show
that this access trace alone lets the observer cluster queries and
re-identify documents under semantically secure encryption.

This module supplies the pieces the rest of the stack threads through
the real request path:

* :class:`LeakagePolicy` — the switchable countermeasure knobs
  (fixed-size padded fetch counts, batched decoy fetches), parsed from
  ``repro serve --leakage`` or the ``REPRO_LEAKAGE`` environment
  variable;
* a seeded draw stream — a
  :class:`~repro.crypto.prf.DeterministicRandom` (the same counter-mode
  PRG the hosting pipeline draws decoy values from), independent of the
  :mod:`random` module state, so decoy draws and fetch-order shuffles
  replay byte-identically across runs;
* :class:`TraceRecorder` / :class:`ObservedTrace` — what the attacker
  in :mod:`repro.security.leakage` gets to see: the server's ordered
  block-fetch sequence;
* :class:`LeakageContext` — the per-system object the
  :class:`~repro.core.server.Server` calls on each evaluated query to
  perform the extra fetches, account for them in the dedicated
  ``leakage_*`` counters, and record the trace.

Everything here operates strictly *below* the wire: decoy and padding
fetches read ciphertext the server already stores, never leave the
machine, and never touch the response bytes — answers stay
byte-identical with any policy enabled.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.crypto.prf import DeterministicRandom
from repro.obs.span import count

#: Environment knob read by :meth:`LeakageContext.coerce` when the
#: hosting call leaves ``leakage=None``, so CI matrices can flip the
#: tier on without code edits.
ENV_POLICY = "REPRO_LEAKAGE"


def leakage_stream(seed: int, label: str) -> DeterministicRandom:
    """A seeded counter-mode stream for one purpose.

    :class:`~repro.crypto.prf.DeterministicRandom` is a function of
    ``(key, label)`` only — never of interpreter hash randomization or
    :mod:`random` module state — which is the property the determinism
    tier tests: identical seeds must produce identical decoy/shuffle
    sequences across runs.  The label is namespaced so these streams can
    never collide with the hosting pipeline's decoy-value streams even
    under a shared key.
    """
    key = (seed & ((1 << 64) - 1)).to_bytes(8, "big").rjust(16, b"\x00")
    return DeterministicRandom(key, f"leakage:{label}")


@dataclass(frozen=True)
class LeakagePolicy:
    """Countermeasure knobs, each independently switchable.

    The default-constructed policy records traces but counters nothing —
    that is the *measurement* configuration the attacker baseline runs
    against.  :meth:`full` is the shipped countermeasure set the CI gate
    holds below the residual-advantage bound.
    """

    #: Round the per-query fetch count up to a multiple of this (with a
    #: floor of one full bucket, so even a zero-block query fetches).
    #: ``0``/``1`` disables padding.
    pad_to: int = 0
    #: Decoy block fetches appended to every evaluated query, drawn from
    #: the observer's block universe by the seeded stream.
    decoys: int = 0
    #: Seed of the stream the context draws decoys, padding and the
    #: fetch-order shuffle from.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pad_to < 0:
            raise ValueError("pad_to must be >= 0")
        if self.decoys < 0:
            raise ValueError("decoys must be >= 0")

    @property
    def masks_fetches(self) -> bool:
        """True when fetch-level countermeasures (pad/decoy) are on."""
        return self.pad_to > 1 or self.decoys > 0

    @classmethod
    def full(cls, seed: int = 0) -> "LeakagePolicy":
        """The complete countermeasure set the CI gate measures."""
        return cls(pad_to=8, decoys=16, seed=seed)

    @classmethod
    def parse(cls, text: str) -> "LeakagePolicy":
        """Parse a CLI/env policy spec.

        ``"off"`` → record-only policy; ``"full"`` → :meth:`full`;
        otherwise comma-separated ``key=value`` pairs over ``pad``,
        ``decoys`` and ``seed`` — e.g. ``"pad=8,decoys=16,seed=3"``.
        """
        spec = text.strip().lower()
        if spec in ("", "off", "record"):
            return cls()
        if spec == "full":
            return cls.full()
        values: dict[str, int] = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            key, separator, raw = token.partition("=")
            if not separator:
                raise ValueError(
                    f"bad leakage policy token {token!r}; expected key=value"
                )
            key = key.strip()
            try:
                value = int(raw.strip())
            except ValueError as exc:
                raise ValueError(
                    f"bad leakage policy value for {key!r}: {raw!r}"
                ) from exc
            if key in ("pad", "pad_to"):
                values["pad_to"] = value
            elif key == "decoys":
                values["decoys"] = value
            elif key == "seed":
                values["seed"] = value
            else:
                raise ValueError(f"unknown leakage policy knob {key!r}")
        return cls(**values)


@dataclass(frozen=True)
class ObservedTrace:
    """One query's fetch sequence as the server's storage layer saw it.

    ``blocks`` is the ordered block-id sequence the storage
    layer served — real fetches plus any decoy/padding fetches, in the
    (possibly shuffled) order they were issued.  This is the attacker's
    entire view; it carries no plaintext and no query text.
    """

    blocks: tuple[int, ...]

    def encode(self) -> bytes:
        """Canonical bytes, for byte-identity assertions across runs."""
        return ",".join(str(block) for block in self.blocks).encode("utf-8")


class TraceRecorder:
    """Append-only log of :class:`ObservedTrace`.

    Thread-safe: the serving layer evaluates concurrent readers, so two
    queries may record at once.  Order is the order the server actually
    served the fetches.
    """

    def __init__(self) -> None:
        self._traces: list[ObservedTrace] = []
        self._lock = threading.Lock()

    def record(self, blocks: Iterable[int]) -> ObservedTrace:
        trace = ObservedTrace(blocks=tuple(blocks))
        with self._lock:
            self._traces.append(trace)
        count("leakage_traces_recorded")
        return trace

    def traces(self) -> list[ObservedTrace]:
        """Recorded traces, in the order they were served."""
        with self._lock:
            return list(self._traces)

    def encode(self) -> bytes:
        """Canonical bytes for the whole log."""
        return b"\n".join(trace.encode() for trace in self.traces())

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


class LeakageContext:
    """Per-system leakage state: policy, recorder, and the seeded stream.

    One context is shared by every replica of the server, which draw
    from one advancing :class:`DeterministicRandom` stream, so decoy
    draws are fresh per query (a repeated query does *not* repeat its
    decoys — per-request determinism would let the observer match
    repeats by set equality) while remaining replay-identical across
    runs, because the call sequence is identical.
    """

    def __init__(
        self,
        policy: LeakagePolicy,
        recorder: "TraceRecorder | None" = None,
    ) -> None:
        self.policy = policy
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self._stream = leakage_stream(policy.seed, "server")
        self._lock = threading.Lock()

    @classmethod
    def coerce(cls, value) -> "LeakageContext | None":
        """Normalize every way a hosting call can ask for the tier.

        ``None`` defers to ``REPRO_LEAKAGE`` (unset → no context at all,
        zero overhead on existing paths); ``False`` forces the tier off;
        ``True`` means the full countermeasure set; a string is parsed
        as a policy spec; a :class:`LeakagePolicy` or an existing
        :class:`LeakageContext` is used as-is.
        """
        if value is None:
            spec = os.environ.get(ENV_POLICY, "").strip()
            if not spec:
                return None
            return cls(LeakagePolicy.parse(spec))
        if value is False:
            return None
        if value is True:
            return cls(LeakagePolicy.full())
        if isinstance(value, cls):
            return value
        if isinstance(value, LeakagePolicy):
            return cls(value)
        if isinstance(value, str):
            return cls(LeakagePolicy.parse(value))
        raise TypeError(
            "leakage must be None, a bool, a policy spec string, a "
            f"LeakagePolicy or a LeakageContext, not {type(value).__name__}"
        )

    def observe(
        self,
        real_ids: Sequence[int],
        universe: Sequence[int],
        fetch: Callable[[int], "bytes | None"],
    ) -> int:
        """Run one query's fetch plan and record it.

        ``real_ids`` are the block ids the evaluated answer actually
        ships (subtree-walk ground truth); ``universe`` is the sorted
        block-id population the server could legitimately be asked
        for (the whole store); ``fetch`` resolves
        an id to its stored ciphertext so decoy/padding fetches do real
        storage reads.  Returns the total fetch count (the padded
        trace length).  Holds the context lock for the whole plan so a
        concurrent query cannot interleave draws within one trace.
        """
        policy = self.policy
        plan = list(real_ids)
        real_bytes = 0
        for block_id in real_ids:
            payload = fetch(block_id)
            if payload is not None:
                real_bytes += len(payload)
        decoy_count = 0
        pad_count = 0
        extra_bytes = 0
        with self._lock:
            if universe and policy.masks_fetches:
                rng = self._stream
                for _ in range(policy.decoys):
                    block_id = universe[rng.randint(0, len(universe) - 1)]
                    payload = fetch(block_id)
                    extra_bytes += len(payload or b"")
                    plan.append(block_id)
                    decoy_count += 1
                if policy.pad_to > 1:
                    bucket = policy.pad_to
                    target = max(
                        bucket, ((len(plan) + bucket - 1) // bucket) * bucket
                    )
                    while len(plan) < target:
                        block_id = universe[rng.randint(0, len(universe) - 1)]
                        payload = fetch(block_id)
                        extra_bytes += len(payload or b"")
                        plan.append(block_id)
                        pad_count += 1
                # Shuffle the issue order so trace position does not
                # reveal which fetches were real.
                rng.shuffle(plan)
        count("leakage_real_fetches", len(real_ids))
        count("leakage_real_bytes", real_bytes)
        if decoy_count:
            count("leakage_decoy_fetches", decoy_count)
        if pad_count:
            count("leakage_pad_fetches", pad_count)
        if extra_bytes:
            count("leakage_extra_bytes", extra_bytes)
        self.recorder.record(plan)
        return len(plan)
