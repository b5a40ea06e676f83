"""The untrusted server (§6.2).

The server holds the hosted (partially encrypted) database and the metadata
— DSI index table, encryption block table, B-tree value index — and answers
translated queries by structural joins and index lookups alone.  It never
holds a key and never sees plaintext beyond what the chosen encryption
scheme legitimately leaves in the clear.

For each query the server ships *fragments*: the hosted subtrees (or whole
encryption blocks) rooted at the matches of the query's ship node, each
tagged with its plaintext ancestor path so the client can rebuild a pruned
document and re-evaluate the original query exactly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs import Observability

from repro.core.dsi import IndexEntry, StructuralIndex
from repro.core.encryptor import HostedDatabase
from repro.core.epoch_cache import EpochCache
from repro.core.integrity import TamperedRequestError
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


@dataclass(frozen=True)
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
    naive: bool = False
    blocks_shipped: int = 0
    candidate_counts: dict[str, int] = field(default_factory=dict)

    def size_bytes(self) -> int:
        return sum(fragment.size_bytes() for fragment in self.fragments)


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
    in the update trace the server sees anyway.
    """

    def __init__(
        self,
        hosted: HostedDatabase,
        session_keys: "tuple[bytes, bytes] | None" = None,
    ) -> None:
        self._hosted = hosted
        #: Where the leakage histogram goes (set by the owning system):
        #: a served evaluation has no query root to read it off.
        self._obs: "Observability | None" = None
        self._hosted_root = hosted.hosted_root
        self._structure: StructuralIndex = hosted.structural_index
        self._values: ValueIndex = hosted.value_index
        self._placeholders = hosted.placeholders
        self._session_keys = session_keys
        self._caches: list[EpochCache] = []
        #: hosted node id → shipped :class:`Fragment`
        self._fragment_cache = EpochCache(
            lambda: hosted.epoch,
            self._caches,
            survives=lambda node_id, _fragment, since: (
                hosted.subtree_stamps.get(node_id, 0) <= since
            ),
        )
        #: Sealed wire responses keyed by the (verified-by-construction)
        #: request blob: a repeated query re-sends byte-identical request
        #: bytes, so the warm path skips decode + evaluate + seal entirely
        #: and even returns the *same bytes object*, which lets the client
        #: verify it with one cached-hash dict lookup.  Sealed blobs embed
        #: the commit epoch and Merkle root, so no commit spares one.
        self._wire_cache = EpochCache(
            lambda: hosted.epoch, self._caches, bounded=True
        )
        #: the sorted block-id population decoy fetches draw from
        self._universe_cache = EpochCache(lambda: hosted.epoch, self._caches)
        #: Serializes cache reads against epoch flushes.  The serving
        #: layer dispatches many connections onto a thread pool, so an
        #: epoch bump must not be able to interleave with a cache lookup
        #: (e.g. a wire-cache hit sealed at the pre-flush anchor being
        #: returned after the flush).  Query-vs-update *evaluation* is
        #: serialized one level up (the tenant session's reader–writer
        #: lock); this lock only has to make the check-epoch +
        #: cache-access sequences atomic.
        self._cache_lock = threading.RLock()
        #: Access-pattern leakage tier; ``None`` (the default) keeps the
        #: evaluated path untouched.  See :meth:`attach_leakage`.
        self.leakage: "LeakageContext | None" = None

    def flush_caches(self) -> None:
        """Drop the fragment, sealed-response and decoy-universe caches."""
        with self._cache_lock:
            for cache in self._caches:
                cache.clear()

    # ------------------------------------------------------------------
    # Normal path: §6.2 steps 1-3
    # ------------------------------------------------------------------
    def answer(self, query: TranslatedQuery) -> ServerResponse:
        """Evaluate a translated query and assemble the fragments."""
        result = self._match(query)
        roots = self._fragment_roots(result.ship_entries)
        self._observe_leakage(roots)
        fragments = self._make_fragments(roots)
        return ServerResponse(
            fragments=fragments,
            blocks_shipped=self._count_blocks(fragments),
            candidate_counts=result.candidate_counts,
        )

    # ------------------------------------------------------------------
    # Access-pattern leakage tier
    # ------------------------------------------------------------------
    def attach_leakage(self, context: LeakageContext) -> None:
        """Join this server to a system-wide leakage context."""
        self.leakage = context

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
        """Record (and pad/decoy) one evaluated query's fetch trace.

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
            with self._cache_lock:
                cache = self._fragment_cache.live()
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
            with self._cache_lock:
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
    # Fallback path: the naive ship-everything protocol (§7.3 baseline)
    # ------------------------------------------------------------------
    def ship_all(self) -> ServerResponse:
        """Send the entire hosted database (the naive method)."""
        fragment = Fragment(ancestor_path=(), xml=serialize(self._hosted_root))
        return ServerResponse(
            fragments=[fragment],
            naive=True,
            blocks_shipped=self._count_blocks([fragment]),
        )

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
        """
        request_key, response_key = self._require_session_keys()
        with self._cache_lock:
            cached = self._wire_cache.live().get(request_blob)
        if cached is not None:
            return cached
        query_bytes, _ = self._hosted.unseal(
            request_key, request_blob, error=TamperedRequestError
        )
        try:
            translated = decode_query(query_bytes)
        except MessageDecodeError as exc:
            raise TamperedRequestError(str(exc)) from exc
        response = self.answer(translated)
        blob, epoch = self._hosted.seal(response_key, encode_response(response))
        with self._cache_lock:
            self._wire_cache.store(request_blob, blob, epoch)
        return blob

    def ship_all_wire(self, request_blob: bytes) -> bytes:
        """Naive-path wire exchange: verify the request, ship everything.

        The naive request payload is just the opaque query string (the
        server never parses it); the envelope check still rejects a
        mangled request instead of wasting a full-database ship on it.

        Deliberately uncached: the naive path is the §7.3 cost baseline,
        so every call pays the full serialize + seal bill.
        """
        request_key, response_key = self._require_session_keys()
        self._hosted.unseal(
            request_key, request_blob, error=TamperedRequestError
        )
        return self._hosted.seal(
            response_key, encode_response(self.ship_all())
        )[0]

    def _require_session_keys(self) -> tuple[bytes, bytes]:
        if self._session_keys is None:
            raise RuntimeError(
                "server has no session MAC keys; construct it with "
                "session_keys=keyring.session_keys() to use the wire API"
            )
        return self._session_keys

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
        # Drop nodes nested inside other shipped nodes.
        chosen = list(nodes.values())
        chosen_ids = {id(node) for node in chosen}
        kept = []
        for node in chosen:
            if any(id(anc) in chosen_ids for anc in node.ancestors()):
                continue
            kept.append(node)
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

    # ------------------------------------------------------------------
    # Observable state (what an attacker on the server sees)
    # ------------------------------------------------------------------
    def hosted_size_bytes(self) -> int:
        return len(serialize(self._hosted_root).encode("utf-8"))

    @property
    def structural_index(self) -> StructuralIndex:
        return self._structure

    @property
    def value_index(self) -> ValueIndex:
        return self._values
