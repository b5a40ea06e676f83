"""Concurrent load generator for the serving layer.

Drives many simulated clients against one :class:`~repro.serving
.server.ServingServer` from a single event loop — each "client" is an
:class:`~repro.serving.client.AsyncServingClient` connection issuing a
mixed sequence of sealed queries and sealed updates.  The point is
sustained-QPS measurement, so the per-operation work is the honest
client-side minimum for a *verified* exchange:

* queries are translated and sealed through a real owner-side
  :class:`~repro.core.client.Client` (plan and sealed-request caches
  warm, exactly like a production owner), and every response's envelope
  and freshness anchor are verified with
  :meth:`~repro.core.client.Client.open_response` — fragment decryption
  is skipped, keeping the generator light enough that the *server* is
  the thing being measured;
* updates are freshness-sealed commands, and every request and
  response is valid at exactly one epoch: losing an anchor race to a
  concurrent writer (common at many clients) re-translates and
  re-seals, exactly like the remote system's retry loop.

Typed backpressure rejections count as retries, not failures: a full
in-flight queue is the admission controller doing its job, and the
generator backs off briefly and re-issues, which is precisely the
client behaviour the rejection type is designed for.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass

from repro.core.client import Client
from repro.core.integrity import FreshnessError, TamperedResponseError, unseal
from repro.core.system import SecureXMLSystem
from repro.netsim.faults import TransferDropped

from repro.serving.client import AsyncServingClient
from repro.serving.framing import OP_QUERY, OP_UPDATE

#: Outcomes the generator absorbs with a re-issue: freshness races
#: (anchor moved under a sealed payload) and dropped/rejected transfers
#: (backpressure, drain).  Narrower than the system's retry set: a
#: byte-tampered response is a failure here, not a re-issue.
_REISSUABLE = (FreshnessError, TransferDropped)


@dataclass
class LoadReport:
    """Outcome of one :func:`run_load` run."""

    clients: int
    queries: int = 0
    updates: int = 0
    retries: int = 0
    failures: int = 0
    elapsed_s: float = 0.0

    @property
    def operations(self) -> int:
        return self.queries + self.updates

    @property
    def qps(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.operations / self.elapsed_s


def run_load(
    address: tuple[str, int],
    tenant: str,
    local: SecureXMLSystem,
    queries: list[str],
    clients: int = 100,
    ops_per_client: int = 20,
    update_ops: "list[dict] | None" = None,
    update_every: int = 25,
    max_attempts: int = 12,
) -> LoadReport:
    """Run a mixed query/update load; returns the measured report.

    ``local`` is the owner's system for the served tenant (shared hosted
    state and keyring — the generator plays the owner).  ``queries`` are
    cycled across the global operation sequence; every
    ``update_every``-th operation is drawn from ``update_ops`` (sealed
    update command dicts, e.g. ``{"op": "update_value", "xpath": ...,
    "new_value": ...}``) when provided.  An operation that exhausts
    ``max_attempts`` counts as a failure; sustained-QPS gates should
    require ``failures == 0``.
    """
    host, port = address
    report = LoadReport(clients=clients)

    async def _drive() -> LoadReport:
        sealer = Client(local.keyring, local.hosted)
        request_key, response_key = local.keyring.session_keys()
        connections = await asyncio.gather(
            *[
                AsyncServingClient.open(host, port, tenant)
                for _ in range(clients)
            ]
        )

        async def _backoff(exc: Exception, attempt: int) -> None:
            report.retries += 1
            if isinstance(exc, FreshnessError):
                # An anchor race is resolved the moment it is detected —
                # the new epoch is known — so re-seal after only a short
                # desynchronizing pause (a full saturation backoff here
                # would serialize the whole fleet behind every update).
                await asyncio.sleep(min(0.0005 * (2 ** attempt), 0.02))
            else:
                # Backpressure/drops mean the server is saturated: back
                # off exponentially so the retry storm decays.
                await asyncio.sleep(min(0.002 * (2 ** attempt), 0.1))

        async def _query(conn: AsyncServingClient, xpath: str) -> None:
            for attempt in range(max_attempts):
                try:
                    plan = sealer.translate(xpath)
                    blob = sealer.seal_request(plan, cache_key=xpath)
                    sealer.open_response(await conn.call(OP_QUERY, blob))
                    report.queries += 1
                    return
                except _REISSUABLE as exc:
                    await _backoff(exc, attempt)
            report.failures += 1

        async def _update(conn: AsyncServingClient, op: dict) -> None:
            payload = json.dumps(op, sort_keys=True).encode("utf-8")
            for attempt in range(max_attempts):
                try:
                    blob, _ = local.hosted.seal(request_key, payload)
                    ack = await conn.call(OP_UPDATE, blob)
                    unseal(response_key, ack, error=TamperedResponseError)
                    report.updates += 1
                    return
                except _REISSUABLE as exc:
                    await _backoff(exc, attempt)
            report.failures += 1

        async def _one_client(index: int, conn: AsyncServingClient) -> None:
            for op_index in range(ops_per_client):
                seq = index * ops_per_client + op_index
                mixed = (
                    update_ops
                    and update_every > 0
                    and seq % update_every == update_every - 1
                )
                if mixed:
                    await _update(conn, update_ops[seq % len(update_ops)])
                else:
                    await _query(conn, queries[seq % len(queries)])

        started = time.perf_counter()
        try:
            await asyncio.gather(
                *[
                    _one_client(index, conn)
                    for index, conn in enumerate(connections)
                ]
            )
        finally:
            report.elapsed_s = time.perf_counter() - started
            await asyncio.gather(
                *[conn.close() for conn in connections],
                return_exceptions=True,
            )
        return report

    return asyncio.run(_drive())
