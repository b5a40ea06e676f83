"""End-to-end secure XML database system (Figure 1).

:class:`SecureXMLSystem` wires the pieces together: hosting (scheme
construction + encryption + metadata), query translation, server
evaluation, the modelled network channel, and client post-processing.
Every query returns the exact answer plus a :class:`QueryTrace` recording
the per-stage costs that the paper's evaluation (Fig. 9, §7.2, §7.3)
breaks out: translation time on both sides, query processing time on the
server, transfer size/time, decryption time and post-processing time on
the client.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterator, Optional, Sequence

from repro.core.client import Client, QueryAnswer
from repro.core.constraints import SecurityConstraint
from repro.core.encryptor import HostedDatabase, host_database
from repro.core.integrity import FreshnessError, IntegrityError, count_failure
from repro.core.leakage import LeakageContext
from repro.core.scheme import EncryptionScheme, build_scheme
from repro.core.server import Server, ServerResponse
from repro.core.translate import TranslatedQuery
from repro.crypto.keyring import ClientKeyring
from repro.netsim.channel import Channel, TransferDropped
from repro.obs import Observability, Span
from repro.obs.span import activate, count, span
from repro.xmldb.node import Document
from repro.xpath import ast

_DEFAULT_MASTER_KEY = b"repro-demo-master-key-0123456789"

#: Failures the retry loop treats as transient wire/server trouble.
_RETRYABLE = (IntegrityError, TransferDropped)


class QueryFailedError(RuntimeError):
    """A query exhausted its retries (or deadline) without an answer.

    Raised instead of ever returning a possibly-wrong answer: under the
    untrusted-server posture the outcome of a query is always either the
    exact plaintext answer or a typed error.  The last typed failure of
    the exchange rides along as ``__cause__``.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/deadline parameters for one query exchange.

    Backoff is *modelled* (recorded in the trace and counted against the
    deadline, like the channel's wire time) rather than slept, so chaos
    sweeps with thousands of retries stay fast.  The jitter stream is
    seeded, keeping the whole failure handling deterministic: same seed,
    same faults, same schedule of retries.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.01
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 1.0
    jitter: float = 0.5  # each delay is scaled by 1 - jitter*U[0,1)
    deadline_s: float = 30.0
    seed: int = 0

    def backoff_for(self, retry_index: int, rng: random.Random) -> float:
        """Modelled delay before retry number ``retry_index`` (0-based)."""
        delay = min(
            self.max_backoff_s,
            self.base_backoff_s * self.backoff_multiplier**retry_index,
        )
        return delay * (1.0 - self.jitter * rng.random())


#: The Fig. 9 stages a query's wall time is the sum of.
_STAGES = ("translate", "server", "transfer", "decrypt", "postprocess", "backoff")


def _stage_seconds(name: str) -> property:
    return property(lambda trace: trace.span.total(name))


def _counted(name: str) -> property:
    return property(lambda trace: trace.span.counts.get(name, 0))


@dataclass
class QueryTrace:
    """Per-stage cost breakdown for one query (the Fig. 9 quantities).

    Stage timings and fault counts are read off :attr:`span`, the query's
    root: ``server_s`` is ``span.total("server")``, ``integrity_failures``
    is ``span.counts["integrity_failures"]`` — one record, so the two
    cannot disagree.  The other fields are what the exchange returned.
    """

    query: str
    naive: bool = False
    transfer_bytes: int = 0
    blocks_returned: int = 0
    fragments_returned: int = 0
    answer_count: int = 0
    candidate_counts: dict[str, int] = dataclass_field(default_factory=dict)
    attempts: int = 0
    # --- query planning (axis engine) ---
    #: Plan tier that served the query: ``"axis"`` (the pattern
    #: lowering), ``"residual"`` (typed document-root plan), or
    #: ``"naive"`` for the ship-everything baseline.
    plan: str = "axis"
    #: Why the query left the axis plan — the ``ResidualRequired`` (or
    #: translator ``UnsupportedQuery``) message.  ``None`` while the axis
    #: plan serves.
    fallback_reason: "str | None" = None
    #: Root of the query's span tree.  Excluded from comparisons and
    #: reprs: two traces of the same exchange stay equal.
    span: Span = dataclass_field(
        default_factory=lambda: Span("query"), repr=False, compare=False
    )

    translate_client_s = _stage_seconds("translate")
    server_s = _stage_seconds("server")
    #: Modelled wire time of the transfers that arrived.
    transfer_s = _stage_seconds("transfer")
    decrypt_client_s = _stage_seconds("decrypt")
    postprocess_client_s = _stage_seconds("postprocess")
    #: Modelled backoff before the retries.
    backoff_s = _stage_seconds("backoff")
    retries = _counted("query_retries")
    integrity_failures = _counted("integrity_failures")
    #: Subset of ``integrity_failures`` that were freshness violations
    #: (rolled-back or stale state rather than byte tampering).
    freshness_failures = _counted("freshness_failures")

    @property
    def drops(self) -> int:
        """Attempts lost to a dropped transfer."""
        return sum(
            1
            for attempt in self.span.iter()
            if attempt.name == "attempt"
            and attempt.annotations.get("error") == "TransferDropped"
        )

    @property
    def total_s(self) -> float:
        """End-to-end query time including modelled wire + backoff time."""
        return self.span.total(*_STAGES)

    def as_row(self) -> dict[str, object]:
        """Flat dict for benchmark tables."""
        return {
            "query": self.query,
            "naive": self.naive,
            "t_translate": self.translate_client_s,
            "t_server": self.server_s,
            "t_transfer": self.transfer_s,
            "t_decrypt": self.decrypt_client_s,
            "t_post": self.postprocess_client_s,
            "t_total": self.total_s,
            "bytes": self.transfer_bytes,
            "blocks": self.blocks_returned,
            "answers": self.answer_count,
            "retries": self.retries,
            "plan": self.plan,
            "fallback_reason": self.fallback_reason,
        }


@dataclass
class HostingTrace:
    """Costs of the hosting step (the §7.4 quantities)."""

    scheme_kind: str
    scheme_size_nodes: int
    block_count: int
    encrypt_s: float
    hosted_bytes: int
    plaintext_bytes: int
    decoy_count: int
    index_entries: int
    value_index_entries: int


class SecureXMLSystem:
    """A hosted database plus its owner: the complete Figure 1 pipeline."""

    def __init__(
        self,
        client: Client,
        server: Server,
        hosted: HostedDatabase,
        scheme: EncryptionScheme,
        channel: "Channel | Sequence[Channel]",
        hosting_trace: HostingTrace,
        keyring: ClientKeyring,
        retry_policy: RetryPolicy | None = None,
        observability: Observability | None = None,
        leakage: bool = False,
    ) -> None:
        self.client = client
        self.hosted = hosted
        self.scheme = scheme
        # One server, reached over one channel per replica: ``server``
        # answers on the first, a further ``Server`` over the same hosted
        # database on each of the others.  ``self.server`` /
        # ``self.channel`` are replica 0 — the whole list for every
        # caller that passes one channel.
        channels = [channel] if isinstance(channel, Channel) else list(channel)
        servers = [server] + [
            Server(hosted, session_keys=keyring.session_keys())
            for _ in channels[1:]
        ]
        self._replicas: list[tuple[Server, Channel]] = list(
            zip(servers, channels)
        )
        self.server, self.channel = self._replicas[0]
        #: Replicas the attempts rotate over: all of them, less any
        #: benched for serving stale state (see :meth:`_demote`).
        self._active = list(range(len(self._replicas)))
        self.hosting_trace = hosting_trace
        self.last_trace: QueryTrace | None = None
        self.last_batch_traces: list[QueryTrace] = []
        self.retry_policy = retry_policy or RetryPolicy()
        self._backoff_rng = random.Random(self.retry_policy.seed)
        self._keyring = keyring
        # Finished query roots are recorded here; spans and counts need
        # no handle (they land on the thread's open span).  The servers
        # hold it for the leakage histogram, recorded with no root open.
        self._obs = Observability.coerce(observability)
        # Access-pattern leakage tier (see repro.core.leakage): one
        # context shared by every replica, so they draw from one cover
        # stream.  Off leaves every path exactly as before.
        if not isinstance(leakage, bool):
            raise TypeError(
                f"leakage must be a bool, not {type(leakage).__name__}"
            )
        self.leakage = (
            LeakageContext(keyring.cover_stream()) if leakage else None
        )
        for replica_server, _channel in self._replicas:
            replica_server._obs = self._obs
            replica_server.leakage = self.leakage

    # ------------------------------------------------------------------
    # Hosting
    # ------------------------------------------------------------------
    @classmethod
    def host(
        cls,
        document: Document,
        constraints: list[SecurityConstraint],
        scheme: "str | EncryptionScheme" = "opt",
        master_key: bytes = _DEFAULT_MASTER_KEY,
        channel: "Channel | Sequence[Channel] | None" = None,
        secure: bool = True,
        retry_policy: RetryPolicy | None = None,
        observability: Observability | None = None,
        leakage: bool = False,
    ) -> "SecureXMLSystem":
        """Encrypt ``document`` under the given scheme and stand up a system.

        ``scheme`` may be one of the §7.1 kinds (``"opt"``, ``"app"``,
        ``"sub"``, ``"top"``), the §4.1 strawman ``"leaf"``, or a prebuilt
        :class:`EncryptionScheme`.  ``secure=False`` hosts without decoys
        and with deterministic block encryption — insecure by design, for
        the attack demonstrations only.  Every query cache is always on;
        :meth:`flush_caches` is how a measurement gets a cold system.

        ``observability`` is the metrics/slow-log context finished
        queries are recorded into: ``None`` builds one, an existing
        :class:`~repro.obs.Observability` is shared.

        ``channel`` is the modelled wire to the server — or a sequence
        of them, one per *replica* of the server: the retry loop rotates
        over the replicas, benches one caught serving stale state while
        a peer remains, and resyncs it off the first fresh answer (see
        ``docs/PROTOCOL.md``, "Replication & failover").  With one
        channel none of that machinery ever runs.

        ``leakage=True`` turns the access-pattern countermeasures on
        (see :mod:`repro.core.leakage`): decoy and padding fetches in
        shuffled order, drawn from the keyring's cover stream.  They run
        strictly below the wire, so answers stay byte-identical; off
        (the default) costs nothing.
        """
        from repro.xmldb.serializer import serialize

        if isinstance(scheme, str):
            scheme_obj = build_scheme(document, constraints, scheme)
        else:
            scheme_obj = scheme
        keyring = ClientKeyring(master_key)

        started = time.perf_counter()
        hosted = host_database(document, scheme_obj, keyring, secure=secure)
        encrypt_seconds = time.perf_counter() - started

        hosting_trace = HostingTrace(
            scheme_kind=scheme_obj.kind,
            scheme_size_nodes=scheme_obj.size(document),
            block_count=hosted.block_count(),
            encrypt_s=encrypt_seconds,
            hosted_bytes=hosted.hosted_size_bytes(),
            plaintext_bytes=len(serialize(document).encode("utf-8")),
            decoy_count=hosted.decoy_count,
            index_entries=len(hosted.structural_index.all_entries()),
            value_index_entries=hosted.value_index.total_entries(),
        )
        return cls(
            client=Client(keyring, hosted),
            server=Server(hosted, session_keys=keyring.session_keys()),
            hosted=hosted,
            scheme=scheme_obj,
            channel=channel or Channel(),
            hosting_trace=hosting_trace,
            keyring=keyring,
            retry_policy=retry_policy,
            observability=observability,
            leakage=leakage,
        )

    def observability(self) -> Observability:
        """The system's observability context (metrics, slow log)."""
        return self._obs

    def flush_caches(self) -> None:
        """Drop every client- and server-side warm-path cache.

        Benchmarks call this between queries to measure cold per-query
        costs (the paper's protocol has no cross-query amortization).
        The owner's OPESS plans are not caches and stay: a write re-plans
        its field from the plan it replaces.
        """
        self.client.flush_caches()
        for server, _channel in self._replicas:
            server.flush_caches()

    @property
    def keyring(self) -> ClientKeyring:
        """The owner's keyring (the serving layer derives session MACs)."""
        return self._keyring

    def close(self) -> None:
        """Release what the system holds open (idempotent).

        An in-process system holds nothing open and stays usable
        afterwards; the remote system overrides this to close its
        connection.
        """

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self, xpath: str) -> QueryAnswer:
        """Answer a query through the secure pipeline; trace in last_trace.

        Queries outside the server-evaluable fragment get the residual
        document-root plan (still exact, just unpruned).

        The exchange is hardened against an untrusted wire and server:
        every payload crosses the channel as integrity-sealed bytes, a
        failed verification or a dropped transfer is retried with
        exponential backoff (modelled, deterministic — see
        :class:`RetryPolicy`), and a query that runs out of attempts or
        cannot complete before the deadline raises
        :class:`QueryFailedError`.  It never falls back to downloading
        the database through the server that just failed verification
        (:meth:`naive_query` is the explicit §7.3 baseline).  The outcome
        is always the exact answer or a typed error — never a silent
        wrong answer.

        Opens the query's root span and keeps it ambient for the whole
        run, so every stage span and every count — including those of
        the client, server, channel and crypto layers — lands under it
        (see :meth:`_root`).
        """
        with self._root(xpath) as trace:
            policy = self.retry_policy
            started_wall = time.perf_counter()
            last_error: Exception | None = None
            replica = 0
            for attempt in range(policy.max_attempts):
                # Every attempt seals a plan made under the epoch it runs
                # at: the commit that failed the last one re-planned a
                # field.  A plan-cache hit — one dict lookup — when no
                # commit landed.
                translated = self._translate(xpath, trace)
                replica = self._pre_attempt(
                    attempt, trace, started_wall, policy
                )
                try:
                    return self._attempt(
                        translated.path, trace, replica,
                        lambda: self.client.seal_request(
                            translated, cache_key=xpath
                        ),
                        self._replicas[replica][0].answer_wire,
                    )
                except _RETRYABLE as exc:
                    last_error = self._record_failure(exc, replica)
            count("queries_failed")
            raise QueryFailedError(
                f"query failed after {trace.attempts} attempts "
                f"({self._failure_detail(trace, last_error, replica)}): "
                f"{last_error}"
            ) from last_error

    @contextmanager
    def _root(self, xpath: str, **annotations: object) -> Iterator[QueryTrace]:
        """The query's trace, its root span ambient for the block.

        The root finishes — folding its counts into the process total —
        on every exit path.  An answered query becomes ``last_trace``; it
        and one that ran out of attempts (annotated ``failed``) are
        recorded into the observability context.
        """
        trace = QueryTrace(
            query=xpath, span=span("query", query=xpath, **annotations)
        )
        root = trace.span
        try:
            with activate(root):
                yield trace
        except QueryFailedError:
            root.annotate(failed=True)
            root.finish()
            self._obs.record_query(trace, failed=True)
            raise
        finally:
            root.finish()
        root.annotate(answers=trace.answer_count)
        self.last_trace = trace
        self._obs.record_query(trace)

    def _attempt(
        self,
        query: "str | ast.LocationPath",
        trace: QueryTrace,
        replica: int,
        seal: Callable[[], bytes],
        serve: Callable[[bytes], bytes],
    ) -> QueryAnswer:
        """One sealed exchange with one replica, then the finish: a
        concurrent write or a lying server can fail either.

        A failure marks the ``attempt`` span with its error type.
        """
        channel = self._replicas[replica][1]
        with span(
            "attempt", number=trace.attempts, replica=replica
        ) as attempt:
            try:
                with span("seal"):
                    request = seal()
                response = self._exchange(channel, request, serve)
                trace.candidate_counts = response.candidate_counts
                return self._finish(query, response, trace)
            except _RETRYABLE as exc:
                attempt.annotate(error=type(exc).__name__)
                raise

    # ------------------------------------------------------------------
    # Retry machinery
    # ------------------------------------------------------------------
    def _translate(self, xpath: str, trace: QueryTrace) -> TranslatedQuery:
        """The plan for one attempt (every parseable query has one)."""
        with span("translate"):
            translated = self.client.translate(xpath)
        trace.plan = translated.plan_kind
        trace.fallback_reason = translated.plan_reason
        return translated

    def _pre_attempt(
        self,
        attempt: int,
        trace: QueryTrace,
        started_wall: float,
        policy: RetryPolicy,
    ) -> int:
        """Apply backoff before a retry and enforce the per-query deadline.

        The deadline covers real client/server CPU time plus the modelled
        wire and backoff time accumulated so far, so a hung-wire scenario
        fails fast instead of wedging the caller.  Returns the replica
        this attempt goes to: the query's attempts rotate over the
        replicas still in the rotation.
        """
        if attempt > 0:
            count("query_retries")
            # Modelled, not slept: the span carries the delay.
            span("backoff", retry=attempt).set_duration(
                policy.backoff_for(attempt - 1, self._backoff_rng)
            )
        elapsed = (
            time.perf_counter() - started_wall
            + trace.backoff_s
            + trace.transfer_s
        )
        if elapsed > policy.deadline_s:
            count("queries_failed")
            raise QueryFailedError(
                f"query deadline of {policy.deadline_s}s exceeded after "
                f"{trace.attempts} attempts"
            )
        active = self._active
        replica = active[trace.attempts % len(active)]
        trace.attempts += 1
        return replica

    def _record_failure(self, exc: Exception, replica: int) -> Exception:
        """Bench a replica caught serving stale state (the failure itself
        was counted where it was detected)."""
        if isinstance(exc, FreshnessError):
            self._demote(replica, exc)
        return exc

    def _demote(self, replica: int, exc: FreshnessError) -> None:
        """Bench a replica that served stale state — while a peer remains.

        A retry against the same replica can never get past one pinned at
        an old epoch, so it leaves the rotation until a peer has answered
        fresh (:meth:`_readmit_demoted`).  The last replica standing is
        never benched: with one replica nothing here ever runs.  The
        rotation is replaced, never mutated, so a concurrent query that
        already benched this replica (or is indexing the old list) is safe.
        """
        active = self._active
        if replica not in active or len(active) < 2:
            return
        self._active = [index for index in active if index != replica]
        count("replica_demotions")
        self._obs.metrics.observe("replica_epoch_lag", float(exc.epoch_lag))

    def _readmit_demoted(self) -> None:
        """Resync benched replicas off a verified-fresh answer.

        Each one's server caches are flushed (nothing sealed at the old
        epoch survives) and its channel's recorded snapshots cleared (the
        modelled replica has caught up); only then does it rejoin.
        """
        for index, (server, channel) in enumerate(self._replicas):
            if index in self._active:
                continue
            server.flush_caches()
            resync = getattr(channel, "resync", None)
            if resync is not None:
                resync()
            count("replica_resyncs")
        self._active = list(range(len(self._replicas)))

    def _failure_detail(
        self, trace: QueryTrace, last_error: Exception | None, replica: int
    ) -> str:
        """One-line diagnosis for QueryFailedError messages.

        Names the last error type and — when the channel of the replica
        that failed last is a fault injector — the last fault kind it
        applied, so a chaos-suite failure is attributable from the error
        text alone.
        """
        detail = (
            f"{trace.integrity_failures} integrity failures "
            f"({trace.freshness_failures} freshness), {trace.drops} drops"
        )
        if last_error is not None:
            detail += f", last error {type(last_error).__name__}"
        kind = getattr(self._replicas[replica][1], "last_fault_kind", None)
        if kind is not None:
            detail += f", last fault {kind}"
        return detail

    def execute_many(self, xpaths: list[str]) -> list[QueryAnswer]:
        """Answer a batch of queries through the secure pipeline.

        Within one batch (and across batches on the same system, until
        the next write), repeated XPath strings reuse translated plans,
        repeated ship nodes reuse serialized fragments, and repeated
        blocks skip decryption entirely.  Per-query traces for the whole batch are
        kept in :attr:`last_batch_traces`, in input order (``last_trace``
        ends up holding the final query's trace, as with single
        :meth:`query` calls).
        """
        answers: list[QueryAnswer] = []
        traces: list[QueryTrace] = []
        for xpath in xpaths:
            answers.append(self.query(xpath))
            assert self.last_trace is not None
            traces.append(self.last_trace)
        self.last_batch_traces = traces
        return answers

    def aggregate(
        self, xpath: str, func: str, mode: str = "exact"
    ):
        """Aggregate the values selected by ``xpath`` (§6.4).

        ``mode="exact"`` runs the secure pipeline and folds the plaintext
        answers client-side — always correct, required for COUNT/SUM/AVG
        (splitting and scaling make them unevaluable server-side, as the
        paper notes).

        ``mode="server"`` (min/max only) performs the paper's
        no-decryption protocol: the server folds over the B-tree value
        index restricted to the structurally matched blocks and returns a
        single extreme ciphertext, which the client inverts through its
        OPE key.  Exact at per-node block granularity; at coarser
        granularities it may see unmatched occurrences sharing a matched
        block (the design's inherent caveat — see
        :mod:`repro.core.aggregates`).
        """
        from repro.core.aggregates import (
            combine_min_max,
            fold_exact,
            server_min_max,
        )

        if mode == "exact":
            answer = self.query(xpath)
            if func == "count":
                # COUNT counts answer *nodes* (XPath semantics), not leaf
                # values — internal elements count too.
                return len(answer)
            return fold_exact(answer.values(), func)
        if mode != "server":
            raise ValueError(f"unknown aggregation mode {mode!r}")
        if func not in ("min", "max"):
            raise ValueError(
                "server-side aggregation supports only min/max; "
                f"{func!r} requires decryption (use mode='exact')"
            )
        translated = self.client.translate(xpath)
        reply = server_min_max(
            translated,
            self.hosted.structural_index,
            self.hosted.value_index,
            func,
        )
        field = _output_field(xpath)
        plan = self.hosted.field_plans.get(field) if field else None
        return combine_min_max(reply, plan, self._keyring.ope, func)

    # ------------------------------------------------------------------
    # Incremental updates (extension; paper §8 item 3)
    # ------------------------------------------------------------------
    def insert_element(self, parent_xpath: str, tag: str, value: str) -> None:
        """Insert ``<tag>value</tag>`` under the unique match of the path.

        New leaves of sensitive tags become their own encryption blocks
        (with decoys, fresh DSI interval drawn in the parent's gap, and a
        field-granular OPESS/B-tree rebuild); other tags stay plaintext.
        See :mod:`repro.core.updates` for scope and the security caveat.
        """
        from repro.core.updates import UpdateEngine

        engine = UpdateEngine(self.hosted, self._keyring)
        entry = engine.resolve_single(self.client.translate(parent_xpath))
        engine.insert_element(entry, tag, value)

    def delete_element(self, xpath: str) -> None:
        """Delete the unique subtree matched by ``xpath``."""
        from repro.core.updates import UpdateEngine

        engine = UpdateEngine(self.hosted, self._keyring)
        entry = engine.resolve_single(self.client.translate(xpath))
        engine.delete_element(entry)

    def update_value(self, xpath: str, new_value: str) -> None:
        """Rewrite the value of the unique leaf matched by ``xpath``."""
        from repro.core.updates import UpdateEngine

        engine = UpdateEngine(self.hosted, self._keyring)
        entry = engine.resolve_single(self.client.translate(xpath))
        engine.update_value(entry, new_value)

    def naive_query(self, xpath: str) -> QueryAnswer:
        """Answer a query with the §7.3 naive baseline (ship everything).

        No retry budget and no backoff: one try per replica in the
        rotation, failing over off one that drops, tampers or serves
        stale state; the last replica's error is raised as it is.
        """
        with self._root(xpath, naive=True) as trace:
            trace.naive = True
            trace.plan = "naive"
            last_error: Exception | None = None
            for replica in list(self._active):
                trace.attempts += 1
                try:
                    return self._attempt(
                        xpath, trace, replica,
                        lambda: self.client.seal_naive_request(xpath),
                        self._replicas[replica][0].ship_all_wire,
                    )
                except _RETRYABLE as exc:
                    last_error = self._record_failure(exc, replica)
            assert last_error is not None
            raise last_error

    def _exchange(
        self, channel: Channel, request: bytes, serve
    ) -> ServerResponse:
        """One sealed request/response round trip with one replica.

        ``serve`` is that replica's wire entry point for the request
        kind (``answer_wire`` or ``ship_all_wire``): sealed bytes in,
        sealed bytes out.  A refusal it raises was detected by the
        server and is counted here, where it reaches us.  A response
        that verifies is fresh by construction, which is what lets
        benched replicas resync off it.
        """
        request, _ = channel.transfer("client->server", "query", request)
        with span("server"):
            try:
                sealed = serve(request)
            except IntegrityError as exc:
                count_failure(exc)
                raise
        sealed, _ = channel.transfer("server->client", "answer", sealed)
        with span("verify"):
            response = self.client.open_response(sealed)
        if len(self._active) < len(self._replicas):
            self._readmit_demoted()
        return response

    def _finish(
        self,
        query: "str | ast.LocationPath",
        response: ServerResponse,
        trace: QueryTrace,
    ) -> QueryAnswer:
        """Decrypt, assemble and re-evaluate — the client's §6.4 half.

        ``query`` is the plan's parsed path (the naive path passes its
        string), so a planned read parses its XPath once, at translation.
        """
        trace.blocks_returned = response.blocks_shipped
        trace.fragments_returned = len(response.fragments)
        trace.transfer_bytes = response.size_bytes()
        with span("decrypt"):
            decrypted = self.client.decrypt_fragments(response)
        with span("postprocess"):
            with span("assemble"):
                pruned = self.client.assemble(decrypted)
            with span("evaluate"):
                answer = self.client.post_process(query, pruned)
        trace.answer_count = len(answer)
        return answer


def _output_field(xpath: str) -> Optional[str]:
    """Field name of a query's output node (tag or ``@name``), if any."""
    from repro.xpath.parser import parse_xpath

    path = parse_xpath(xpath)
    for step in reversed(path.steps):
        if step.axis == ast.AXIS_ATTRIBUTE:
            return f"@{step.test.name}"
        if step.axis in (ast.AXIS_SELF,):
            continue
        if step.test.is_wildcard:
            return None
        return step.test.name
    return None
