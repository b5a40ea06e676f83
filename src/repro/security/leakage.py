"""Access-pattern attacker: query recovery from observed fetch traces.

The adversary modelled here is the third of the suite's observers —
after the ciphertext-distribution attacker (:mod:`repro.security
.attacks`, PR 5) and the rollback attacker (:mod:`repro.netsim.faults`,
PR 7): an honest-but-curious party watching the *storage layer* of the
server.  It never sees plaintext, keys, query
text or response bytes — only the ordered sequence of block ids each
query's evaluation fetched, exactly what :class:`~repro.core.leakage
.TraceRecorder` captures.

The game (:func:`run_leakage_game`) follows the known-query recovery
setup of *Information Flows in Encrypted Databases* (Vaswani et al.):

1. **Profile.**  The attacker observes one labelled trace per distinct
   query (it learned the correspondence out of band — a compromised
   client, a public workload).
2. **Attack.**  The workload re-issues every query ``repeats`` times in
   a seeded shuffled order, caches flushed between issues so every
   issue is a cold evaluation the observer actually sees.  The attacker
   must attribute each unlabelled trace to a profiled query.
3. **Score.**  Accuracy is the fraction attributed correctly; random
   guessing scores ``1/Q``; *advantage* is the excess over that
   baseline, clamped at zero — the number the CI gate bounds.

One run of one system hosted with ``leakage=True`` scores two observers:
the *unprotected* one sees each query's real fetches — exactly what a
system without the countermeasures would serve — and the *protected*
one the padded, decoyed, shuffled sequence the storage actually served.

Three attribution strategies, mirroring the clustering features named
in ROADMAP open item 1 (nearest-reference is single-link clustering of
each trace with its closest profile):

* ``length`` — match on trace length alone (defeated by padding);
* ``jaccard`` — set intersection over union of the fetched block sets
  (defeated by decoys saturating the universe);
* ``coaccess`` — raw co-access overlap with the profile (defeated by
  the same cover traffic, but unnormalized, so it falls to frequent
  decoys differently than Jaccard).

Bandwidth cost comes from the dedicated ``leakage_*`` counters:
``extra_bytes / real_bytes`` over the attack phase — the exact price of
the cover traffic, reported next to the residual advantage in
``BENCH_leakage.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.leakage import ObservedTrace, TraceRecorder
from repro.crypto.prf import DeterministicRandom

#: Attribution strategies :class:`TraceClusteringAttack` implements.
METHODS = ("length", "jaccard", "coaccess")


@dataclass(frozen=True)
class LeakageAttackReport:
    """Outcome of one attribution strategy.

    The shape follows :class:`repro.security.attacks.AttackReport`:
    what the attacker tried, over what domain, and how far beyond
    guessing it got.
    """

    method: str
    #: Distinct profiled queries (the guessing domain).
    query_count: int
    #: Unlabelled traces the attacker attributed.
    trace_count: int
    #: Correct attributions.
    correct: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.trace_count if self.trace_count else 0.0

    @property
    def baseline(self) -> float:
        """Expected accuracy of uniform random guessing."""
        return 1.0 / self.query_count if self.query_count else 0.0

    @property
    def advantage(self) -> float:
        """Excess accuracy over guessing, clamped at zero."""
        return max(0.0, self.accuracy - self.baseline)

    def describe(self) -> str:
        return (
            f"{self.method} attribution: "
            f"{self.correct}/{self.trace_count} correct "
            f"(accuracy {self.accuracy:.3f}, guess {self.baseline:.3f}, "
            f"advantage {self.advantage:.3f})"
        )


@dataclass
class LeakageGameResult:
    """Everything one game run produced, for tests, bench and docs."""

    query_count: int
    repeats: int
    reports: list[LeakageAttackReport]
    #: Ciphertext bytes the attack-phase answers actually required.
    real_bytes: int
    #: Ciphertext bytes the countermeasures added on top.
    extra_bytes: int
    labels: list[int] = field(default_factory=list)

    @property
    def bandwidth_overhead(self) -> float:
        """Cover-traffic bytes per real byte (0.0 when unprotected)."""
        if self.real_bytes <= 0:
            return 0.0
        return self.extra_bytes / self.real_bytes

    def report(self, method: str) -> LeakageAttackReport:
        for candidate in self.reports:
            if candidate.method == method:
                return candidate
        raise KeyError(method)

    @property
    def max_advantage(self) -> float:
        """The strongest strategy's advantage — what the gate bounds."""
        return max(report.advantage for report in self.reports)

    def describe(self) -> str:
        lines = [
            f"leakage game: {self.query_count} queries "
            f"x {self.repeats} repeats, bandwidth overhead "
            f"{self.bandwidth_overhead:.2f}x"
        ]
        lines.extend(report.describe() for report in self.reports)
        return "\n".join(lines)


class TraceClusteringAttack:
    """Attribute unlabelled traces to profiled queries.

    ``references[i]`` is the labelled trace the attacker observed for
    query ``i`` during the profile phase.  Ties break to the lowest
    reference index — deterministic, and exactly as good as guessing
    when every candidate ties (the fully padded case).
    """

    def __init__(self, references: "list[ObservedTrace]") -> None:
        if not references:
            raise ValueError("attack needs at least one profiled query")
        self._lengths = [len(trace.blocks) for trace in references]
        self._sets = [frozenset(trace.blocks) for trace in references]

    @property
    def query_count(self) -> int:
        return len(self._lengths)

    def classify(self, trace: ObservedTrace, method: str) -> int:
        """The profiled query index this trace most resembles."""
        if method == "length":
            length = len(trace.blocks)
            distances = [
                abs(length - reference) for reference in self._lengths
            ]
            return min(range(len(distances)), key=distances.__getitem__)
        observed = frozenset(trace.blocks)
        if method == "jaccard":
            scores = [
                self._jaccard(observed, reference)
                for reference in self._sets
            ]
        elif method == "coaccess":
            scores = [
                len(observed & reference) for reference in self._sets
            ]
        else:
            raise ValueError(
                f"unknown attribution method {method!r}; "
                f"known: {', '.join(METHODS)}"
            )
        best = max(scores)
        return scores.index(best)

    @staticmethod
    def _jaccard(left: frozenset, right: frozenset) -> float:
        if not left and not right:
            return 1.0
        union = len(left | right)
        return len(left & right) / union if union else 0.0

    def run(
        self,
        traces: "list[ObservedTrace]",
        labels: "list[int]",
        method: str,
    ) -> LeakageAttackReport:
        """Score one strategy over a labelled attack-phase trace set."""
        if len(traces) != len(labels):
            raise ValueError("one label per trace required")
        correct = sum(
            1
            for trace, label in zip(traces, labels)
            if self.classify(trace, method) == label
        )
        return LeakageAttackReport(
            method=method,
            query_count=self.query_count,
            trace_count=len(traces),
            correct=correct,
        )


def run_leakage_game(
    system,
    queries: "list[str]",
    repeats: int = 4,
    seed: int = 0,
) -> "tuple[LeakageGameResult, LeakageGameResult]":
    """Play the profile → attack → score game against ``system``.

    ``system`` must have been hosted with ``leakage=True``.  One run
    scores two observers: the *unprotected* one sees each query's real
    fetches (what a system without the countermeasures serves), the
    *protected* one the padded, decoyed, shuffled sequence.  Returns
    ``(unprotected, protected)``.

    A :class:`~repro.core.leakage.TraceRecorder` is attached for the
    game only.  Caches are flushed before every issue so each one is a
    cold evaluation — warm hits replay sealed bytes without touching
    storage, which a storage-level observer never sees.  The issue order
    is the experimenter's, not a secret: it is shuffled by a stream over
    the public ``seed``, so the whole game replays identically across
    runs under one master key.
    """
    context = system.leakage
    if context is None:
        raise ValueError(
            "system has no leakage context; host with leakage=True"
        )
    labels = [
        index for index in range(len(queries)) for _ in range(repeats)
    ]
    DeterministicRandom(
        (seed % (1 << 64)).to_bytes(16, "big"), "leakage:game-order"
    ).shuffle(labels)
    metrics = system.observability().metrics
    recorder = context.recorder = TraceRecorder()
    try:
        # Profile phase: one labelled trace per query.  Then the attack
        # phase, counters bracketing it so the bandwidth overhead covers
        # exactly its issues.
        for query in queries:
            system.flush_caches()
            system.query(query)
        before = metrics.counter_values()
        for label in labels:
            system.flush_caches()
            system.query(queries[label])
        delta = metrics.counters_delta(before)
    finally:
        context.recorder = None
    traces = recorder.traces()
    if len(traces) != len(queries) + len(labels):
        raise RuntimeError(
            f"the game recorded {len(traces)} traces for "
            f"{len(queries) + len(labels)} issues"
        )
    references, traces = traces[: len(queries)], traces[len(queries):]

    real_bytes = delta.get("leakage_real_bytes", 0)

    def score(view, extra_bytes: int) -> LeakageGameResult:
        attack = TraceClusteringAttack([view(trace) for trace in references])
        observed = [view(trace) for trace in traces]
        return LeakageGameResult(
            query_count=len(queries),
            repeats=repeats,
            reports=[
                attack.run(observed, labels, method) for method in METHODS
            ],
            real_bytes=real_bytes,
            extra_bytes=extra_bytes,
            labels=labels,
        )

    return (
        score(lambda trace: ObservedTrace(trace.real), 0),
        score(lambda trace: trace, delta.get("leakage_extra_bytes", 0)),
    )
