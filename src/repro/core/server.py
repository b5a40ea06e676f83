"""The untrusted server (§6.2).

The server holds the hosted (partially encrypted) database and the metadata
— DSI index table, encryption block table, value index — and answers
translated queries by structural joins and index lookups alone.  It never
holds a key and never sees plaintext beyond what the chosen encryption
scheme legitimately leaves in the clear.

For each query the server ships *fragments*: the hosted subtrees (or whole
encryption blocks) rooted at the matches of the query's ship node, each
tagged with its plaintext ancestor path so the client can rebuild a pruned
document and re-evaluate the original query exactly.
"""

from __future__ import annotations

import hashlib
import marshal
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs import Observability

from repro.core.dsi import IndexEntry, StructuralIndex
from repro.core.encryptor import HostedDatabase
from repro.core.epoch_cache import EpochCache
from repro.core.integrity import FRESH_OVERHEAD, TamperedRequestError
from repro.core.leakage import LeakageContext
from repro.core.opess import ValueIndex
from repro.core.structural_join import MatchResult, match_pattern
from repro.core.translate import TranslatedQuery
from repro.netsim.message import (
    MessageDecodeError,
    decode_query,
    encode_response,
)
from repro.obs.span import count, span
from repro.xmldb.node import (
    Attribute,
    Element,
    Node,
    iter_encrypted_blocks,
)
from repro.xmldb.serializer import BLOCK_OPEN, serialize


@dataclass(frozen=True, slots=True)
class Fragment:
    """One shipped result unit: subtree XML plus its ancestor path."""

    #: ((tag, hosted-node-id), ...) from the document root down to the
    #: fragment root's parent; empty when the fragment root *is* the root.
    ancestor_path: tuple[tuple[str, int], ...]
    xml: str

    def size_bytes(self) -> int:
        overhead = sum(len(tag) + 8 for tag, _ in self.ancestor_path)
        return len(self.xml.encode("utf-8")) + overhead


@dataclass
class ServerResponse:
    """The answer to one translated query."""

    fragments: list[Fragment]
    blocks_shipped: int = 0
    candidate_counts: dict[str, int] = field(default_factory=dict)
    _size: "int | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _digest: "bytes | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The server-side join this response was made from — ``(fragment
    #: roots, candidate counts, what the plan read)``, see
    #: :meth:`Server.answer` — never on the wire; ``None`` on a decoded
    #: response.
    join: "tuple | None" = field(default=None, repr=False, compare=False)

    def size_bytes(self) -> int:
        """The fragments' byte count, encoded once per response: the
        client's response cache hands a warm read the same object."""
        if self._size is None:
            self._measure()
        return self._size

    def content_digest(self) -> bytes:
        """SHA-256 over the fragments' content — each one's ancestor path
        and XML, in order — taken once per response, with its byte count.

        Two responses that digest alike ship the same fragments, so one
        client derives the same answer from either: the answer memo's
        key."""
        if self._digest is None:
            self._measure()
        return self._digest

    def _measure(self) -> None:
        fragments = self.fragments
        self._size = sum(fragment.size_bytes() for fragment in fragments)
        # marshal's format 2 writes no back-references, and it decodes:
        # equal bytes are equal fragment lists.
        self._digest = hashlib.sha256(
            marshal.dumps(
                [(fragment.ancestor_path, fragment.xml) for fragment in fragments],
                2,
            )
        ).digest()


class Server:
    """Query executor over the hosted database and metadata.

    The server keeps a *fragment cache*: the serialized XML and ancestor
    path of every subtree it has shipped, keyed by the hosted node's id.
    Serialization touches only data the server already stores in the
    clear (ciphertext payloads and plaintext structure), so caching it
    changes nothing about what an attacker sees — it only stops the
    server re-serializing the same subtree for every repeated query.
    Every cache here is an :class:`EpochCache` read off the hosted
    database's epoch, the hook the update engine drives.  A fragment
    outlives a commit unless the write marked its root's subtree changed
    (``HostedDatabase.subtree_stamps``) — which node a write touched is
    in the update trace the server sees anyway.  A sealed response
    embeds the commit epoch, so it answers its request blob for one epoch
    only; what was last sent for a request payload outlives a commit the
    ending epoch used it in, and an evaluation that ships the same
    fragments re-seals those bytes instead of encoding them again — bytes
    the server already sent, so the reuse reveals nothing new.  That
    record keeps the join it was evaluated from too: while no index key
    or value field the plan reads is stamped since
    (``StructuralIndex.key_stamps``, ``ValueIndex.stamps``), the next
    evaluation of the payload skips the join and the root walk.  Which
    keys a write edited is in the server's view already — it applies
    the write's entries itself.
    """

    def __init__(
        self,
        hosted: HostedDatabase,
        session_keys: tuple[bytes, bytes],
    ) -> None:
        self._hosted = hosted
        #: Where the leakage histogram goes (set by the owning system):
        #: a served evaluation has no query root to read it off.
        self._obs: "Observability | None" = None
        self._structure: StructuralIndex = hosted.structural_index
        self._values: ValueIndex = hosted.value_index
        self._placeholders = hosted.placeholders
        #: (request key, response key): the wire envelopes' MAC keys.
        self._session_keys = session_keys
        self._caches: list[EpochCache] = []
        #: hosted node id → shipped :class:`Fragment`
        self._fragment_cache = EpochCache(
            lambda: hosted.epoch,
            self._caches,
            survives=lambda since: lambda node_id, _fragment: (
                hosted.subtree_stamps.get(node_id, 0) <= since
            ),
        )
        #: Sealed wire responses keyed by the (verified-by-construction)
        #: request blob: a repeated query re-sends byte-identical request
        #: bytes, so the warm path skips decode + evaluate + seal entirely
        #: and even returns the *same bytes object*, which lets the client
        #: verify it with one cached-hash dict lookup.  Sealed blobs embed
        #: the commit epoch and Merkle root, so no commit spares one.
        #: Beside them, keyed by the 1-tuple of a view of a verified
        #: request's payload (no blob a peer sends can name it), what was
        #: last sent for it:
        #: ``(response, sealed blob, epoch, join)`` — a record, which
        #: outlives a commit only if the epoch that just ended used it;
        #: ``join`` is the ``ServerResponse.join`` of the evaluation that
        #: made or re-sealed it.  Each miss stores both, so the bound
        #: counts pairs.
        self._wire_cache = EpochCache(
            lambda: hosted.epoch,
            self._caches,
            bounded=2,
            survives=lambda since: lambda _key, sent: (
                sent.__class__ is tuple and sent[2] == since
            ),
        )
        #: ``(translated query, record)`` from :meth:`answer_wire` to the
        #: one :meth:`answer` call it makes for that query
        self._record: "tuple | None" = None
        #: the sorted block-id population decoy fetches draw from
        self._universe_cache = EpochCache(lambda: hosted.epoch, self._caches)
        #: Access-pattern leakage tier, set by the owning system;
        #: ``None`` (the default) keeps the evaluated path untouched.
        self.leakage: "LeakageContext | None" = None

    def flush_caches(self) -> None:
        """Drop the fragment, sealed-response and decoy-universe caches."""
        for cache in self._caches:
            cache.clear()

    # ------------------------------------------------------------------
    # Normal path: §6.2 steps 1-3
    # ------------------------------------------------------------------
    def answer(self, query: TranslatedQuery) -> ServerResponse:
        """Evaluate a translated query and assemble the fragments.

        The one evaluation seam: :meth:`answer_wire` hands it the record
        of what was last sent for the request's payload, and when no key
        or field the plan reads was edited since that record's epoch the
        record's join — its fragment roots and candidate counts — stands
        in for the join and the root walk.  Everything after them runs
        as always: the leakage tier observes the roots, and the fragment
        cache rebuilds whatever subtree a write changed.
        """
        record, self._record = self._record, None
        join = None
        if record is not None and record[0] is query:
            join = self._kept_join(record[1])
        if join is None:
            result = self._match(query)
            roots = self._fragment_roots(result.ship_entries)
            counts = result.candidate_counts
            reads = _reads(query)
        else:
            count("join_reuses")
            roots, counts, reads = join
        self._observe_leakage(roots)
        fragments = self._make_fragments(roots)
        return ServerResponse(
            fragments=fragments,
            blocks_shipped=self._count_blocks(fragments),
            candidate_counts=counts,
            join=(roots, counts, reads),
        )

    def _kept_join(self, sent: tuple) -> "tuple | None":
        """A record's join, if no write since the record's epoch stamped
        a key or field its plan reads; else ``None``."""
        since, join = sent[2], sent[3]
        if join is None or join[2] is None:
            return None
        keys, tokens = join[2]
        key_stamps = self._structure.key_stamps
        field_stamps = self._values.stamps
        if any(key_stamps.get(key, 0) > since for key in keys) or any(
            field_stamps.get(token, 0) > since for token in tokens
        ):
            return None
        return join

    # ------------------------------------------------------------------
    # Access-pattern leakage tier
    # ------------------------------------------------------------------
    def _leakage_universe(self) -> tuple[int, ...]:
        """Sorted block-id population decoy fetches may draw from.

        Cached per epoch — updates add and remove blocks.
        """
        cached = self._universe_cache.live()
        universe = cached.get("universe")
        if universe is None:
            universe = cached["universe"] = tuple(sorted(self._hosted.blocks))
        return universe

    def _observe_leakage(self, roots: list[Node]) -> None:
        """Pad, decoy and shuffle one evaluated query's fetches.

        Called once per *evaluation* — warm wire-cache hits
        replay sealed bytes without touching storage, so they add no
        trace, exactly as a storage-level observer would see it.
        """
        context = self.leakage
        if context is None:
            return
        real = [
            block.block_id
            for root in roots
            for block in iter_encrypted_blocks(root)
        ]
        total = context.observe(
            real,
            self._leakage_universe(),
            self._hosted.blocks.get,
        )
        if self._obs is not None:
            self._obs.metrics.observe("leakage_fetch_blocks", float(total))

    def _match(self, query: TranslatedQuery) -> MatchResult:
        """Structural join over the DSI index table.

        Its span and the serializer's break the caller's ``server`` span
        into join vs. serialization.
        """
        with span("server.join"):
            return match_pattern(query, self._structure, self._values)

    def _make_fragments(self, roots: list[Node]) -> list[Fragment]:
        """Serialize the shipped subtrees, in document order."""
        with span("server.serialize"):
            hosted = self._hosted
            epoch = hosted.epoch  # read first: the sweep below covers it
            cache = self._fragment_cache.live()
            if hosted.removed_ids:
                hosted.forget_removed(epoch)
            cached = [cache.get(node.node_id) for node in roots]
            built = {
                node.node_id: self._build_fragment(node)
                for node, fragment in zip(roots, cached)
                if fragment is None
            }
            hits = len(roots) - len(built)
            if hits:
                count("fragment_cache_hits", hits)
            if not built:
                return cached
            count("fragment_cache_misses", len(built))
            cache.update(built)
            return [
                built[node.node_id] if fragment is None else fragment
                for node, fragment in zip(roots, cached)
            ]

    @staticmethod
    def _count_blocks(fragments: list[Fragment]) -> int:
        """Encrypted blocks inside the shipped fragments (ground truth).

        Counted in the text that crosses the wire, by the marker the
        client's scan resolves: a fragment root is often a plaintext
        element with blocks nested somewhere below it.
        """
        return sum(fragment.xml.count(BLOCK_OPEN) for fragment in fragments)

    # ------------------------------------------------------------------
    # Wire interface (integrity-enveloped bytes; see docs/PROTOCOL.md,
    # "Failure model & integrity envelope")
    # ------------------------------------------------------------------
    def answer_wire(self, request_blob: bytes) -> bytes:
        """Answer a sealed wire request with a sealed wire response.

        Verifies the request envelope (raising
        :class:`~repro.core.integrity.TamperedRequestError` when the wire
        mangled it), decodes the translated query, evaluates it, and
        seals the encoded response.  A request that decodes to garbage
        despite an intact envelope is impossible by construction, but a
        :class:`MessageDecodeError` is mapped to the same typed error so
        the client's retry loop has a single failure surface.

        A repeated request blob is answered with the bytes sealed for it
        this epoch.  Any other request is verified and evaluated; if the
        evaluation equals the response last sent for the same request
        payload — the same fragments, usually the very objects the
        fragment cache judged unwritten (list equality tries identity
        first), with equal block and candidate counts — the payload kept
        in that sealed blob is re-sealed at the live anchor instead of
        encoded again: the codec is a pure function of those fields, so
        the bytes are the ones :func:`encode_response` would write.
        """
        request_key, response_key = self._session_keys
        cache = self._wire_cache.live()
        cached = cache.get(request_blob)
        if cached is not None:
            return cached
        query_bytes, _ = self._hosted.unseal(
            request_key, request_blob, error=TamperedRequestError
        )
        try:
            translated = decode_query(query_bytes)
        except MessageDecodeError as exc:
            raise TamperedRequestError(str(exc)) from exc
        # Taken out and put back under a view of *this* request blob: the
        # kept key would otherwise hold the previous one alive.
        sent = cache.pop((query_bytes,), None)
        self._record = None if sent is None else (translated, sent)
        evaluated_at = self._hosted.epoch  # the join below is as of it
        try:
            response = self.answer(translated)
        finally:
            self._record = None
        join = response.join
        if sent is not None and sent[0] == response:
            response, kept = sent[0], sent[1]
            blob, epoch = self._hosted.seal(response_key, kept[FRESH_OVERHEAD:])
        else:
            blob, epoch = self._hosted.seal(
                response_key, encode_response(response)
            )
        self._wire_cache.store(request_blob, blob, epoch)
        self._wire_cache.store(
            (memoryview(request_blob)[FRESH_OVERHEAD:],),
            (response, blob, epoch, join if epoch == evaluated_at else None),
            epoch,
        )
        return blob

    # ------------------------------------------------------------------
    # Fragment assembly
    # ------------------------------------------------------------------
    def _fragment_roots(self, entries: list[IndexEntry]) -> list[Node]:
        """Hosted nodes to ship, deduplicated, non-nested, in document order.

        The client grafts fragments onto its skeleton in the order they
        arrive, so that order must be the document's.  Node ids are not:
        an insert numbers its node after every existing one.  DSI
        intervals are — an insert draws its interval in the parent's gap
        after the last child — and any entry mapped to a node lies inside
        that node's extent, which no other shipped root overlaps.

        A node nested inside another shipped node is dropped.  One walk up
        from each node stops at the first ancestor an earlier walk
        reached, so finding which shipped nodes hold another costs the
        number of distinct ancestors, not the shipped nodes times their
        depth.  Usually none does; only then is each node's chain tested
        against the few that do.
        """
        nodes: dict[int, Node] = {}
        lows: dict[int, float] = {}
        for entry in entries:
            node = self._node_for(entry)
            if node is not None:
                key = id(node)
                nodes[key] = node
                low = entry.interval.low
                lows[key] = min(lows.get(key, low), low)
        seen: set[int] = set()
        for node in nodes.values():
            above = node.parent
            while above is not None and id(above) not in seen:
                seen.add(id(above))
                above = above.parent
        #: shipped nodes with a shipped node below them
        holders = seen.intersection(nodes)
        kept = [
            node for node in nodes.values()
            if not holders
            or not any(id(ancestor) in holders for ancestor in node.ancestors())
        ]
        kept.sort(key=lambda node: lows[id(node)])
        return kept

    def _node_for(self, entry: IndexEntry) -> Node | None:
        if entry.block_id is not None:
            return self._placeholders.get(entry.block_id)
        node = entry.hosted_node
        if isinstance(node, Attribute):
            # Attributes ship with their owning element.
            return node.parent
        return node

    def _build_fragment(self, node: Node) -> Fragment:
        path = []
        for ancestor in reversed(list(node.ancestors())):
            assert isinstance(ancestor, Element)
            path.append((ancestor.tag, ancestor.node_id))
        return Fragment(ancestor_path=tuple(path), xml=serialize(node))


def _reads(
    query: TranslatedQuery,
) -> "tuple[frozenset[str], frozenset[str]] | None":
    """The index keys and value fields a plan's join reads: ``(structural
    keys, field tokens)``, or ``None`` when a wildcard node reads every
    entry."""
    keys: set[str] = set()
    tokens: set[str] = set()
    for node in query.root.walk():
        if node.is_wildcard:
            return None
        keys.update(node.keys)
        if node.value_ranges is not None and node.value_field_token is not None:
            tokens.add(node.value_field_token)
    return frozenset(keys), frozenset(tokens)
