"""One shard of the cluster: a :class:`~repro.core.server.Server` that
answers with only the fragments it *owns*.

Every shard holds the full hosted database object — the structural join
needs the whole laminar index (a candidate's ancestors can live in any
interval group), and replicating the metadata is exactly what the paper
already grants the untrusted server.  What differs per shard is the
*answer*: :class:`ShardServer` runs the identical join and fragment-root
selection as the monolithic server, then keeps only the roots whose
interval group the placement map assigns to this shard.  Because every
shard starts from the same deterministic root list, the union of the
partial answers over all shards is exactly the monolithic fragment list,
and the coordinator restores its order with the ``root_id`` tags
(:mod:`repro.cluster.coordinator`).

The naive ship-everything protocol has no sharded form — it ships the
whole document by definition — so only the shard owning the document
root (group 0) serves it; the other shards return an empty naive
response and the merge is again byte-for-byte the monolithic one.

Axis engine: reverse/order/sibling axes do not change this picture.
The join still runs over the full replicated index on every shard —
an axis edge can anchor a candidate on entries *anywhere* in the
document, and every shard sees all of them — and ownership filtering
still partitions the final root list by the root's own interval group.
A root's survival can depend on entries owned by other shards, but the
join reads the live index (an edited tag's sorted-low array is dropped by
the write that edits it), so selection is never cached per shard.

Freshness: nothing here is shard-specific.  The inherited *fragment*
cache carries across a commit exactly the fragments whose root the write
did not mark (fragment bytes depend only on subtree and ancestor path,
which axis edges never alter), so an update leaves warm whatever it
cannot reach on every shard; the *sealed* wire cache embeds the global
commit epoch and Merkle root and is dropped on any commit, so no shard
replays a stale seal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

from repro.core.dsi import IndexEntry
from repro.core.encryptor import HostedDatabase
from repro.core.epoch_cache import EpochCache
from repro.core.server import Fragment, Server, ServerResponse
from repro.xmldb.node import EncryptedBlockNode, Node

from repro.cluster.placement import PlacementMap, blocks_of_shard

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs import Observability


class ShardServer(Server):
    """A server instance answering for one shard's interval groups."""

    def __init__(
        self,
        hosted: HostedDatabase,
        placement: PlacementMap,
        shard_id: int,
        session_keys: "tuple[bytes, bytes] | None" = None,
        obs: "Observability | None" = None,
    ) -> None:
        super().__init__(hosted, session_keys=session_keys, obs=obs)
        self.placement = placement
        self.shard_id = shard_id
        #: the node_id → interval low map of the plaintext hosted nodes,
        #: rebuilt after any commit (inserts add entries)
        self._lows_cache = EpochCache(lambda: hosted.epoch, self._caches)

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    def owns_node(self, node: Node) -> bool:
        """Does this shard own the interval group of ``node``'s root?"""
        if isinstance(node, EncryptedBlockNode):
            interval = self._structure.block_table.get(node.block_id)
            if interval is None:
                # A block the index no longer references (deleted entry);
                # fall back to group 0's owner so exactly one shard keeps
                # answering for it instead of zero.
                return self.placement.shard_of_low(float("-inf")) == (
                    self.shard_id
                )
            return (
                self.placement.shard_of_low(interval.low) == self.shard_id
            )
        lows = self._node_lows()
        low = lows.get(node.node_id)
        if low is None:
            # Plaintext node without its own index entry (e.g. an element
            # shipped for an attribute match): resolve through the nearest
            # ancestor that has one — ownership follows the entry that
            # selected the node.
            for ancestor in node.ancestors():
                low = lows.get(ancestor.node_id)
                if low is not None:
                    break
        if low is None:
            return self.placement.shard_of_low(float("-inf")) == self.shard_id
        return self.placement.shard_of_low(low) == self.shard_id

    def owns_root(self) -> bool:
        """Is this the shard serving the naive (whole-document) path?"""
        return self.placement.shard_of_low(float("-inf")) == self.shard_id

    def _node_lows(self) -> dict[int, float]:
        cached = self._lows_cache.live()
        lows = cached.get("lows")
        if lows is None:
            lows = cached["lows"] = self._structure.hosted_node_lows()
        return lows

    # ------------------------------------------------------------------
    # Server overrides: filter to owned roots, tag fragments
    # ------------------------------------------------------------------
    def _fragment_roots(self, entries: list[IndexEntry]) -> list[Node]:
        roots = super()._fragment_roots(entries)
        return [node for node in roots if self.owns_node(node)]

    def _build_fragment(self, node: Node) -> Fragment:
        return replace(super()._build_fragment(node), root_id=node.node_id)

    def ship_all(self) -> ServerResponse:
        if self.owns_root():
            return super().ship_all()
        return ServerResponse(fragments=[], naive=True, blocks_shipped=0)

    def _stored_blocks(self) -> Iterable[int]:
        """Decoy population for this shard: only the blocks it stores.

        A shard can only be asked for blocks in its placement slice, so
        a decoy outside it would itself be a tell.  An empty slice means
        no cover traffic is possible here — the trace then carries real
        fetches only (and this shard ships none either).
        """
        return blocks_of_shard(self._hosted, self.placement, self.shard_id)

    # ------------------------------------------------------------------
    # What an attacker on this shard sees (security regression tests)
    # ------------------------------------------------------------------
    def shard_view(self) -> "ShardView":
        """This shard's attacker-visible state.

        The index metadata is replicated (same as the monolithic server);
        the ciphertext payloads are restricted to the blocks whose
        representative interval falls in this shard's groups.  The view
        quacks like a :class:`~repro.core.encryptor.HostedDatabase` for
        :func:`repro.security.attacks.ciphertext_block_histogram`.
        """
        return ShardView(
            shard_id=self.shard_id,
            structural_index=self._structure,
            blocks={
                block_id: self._hosted.blocks[block_id]
                for block_id in blocks_of_shard(
                    self._hosted, self.placement, self.shard_id
                )
                if block_id in self._hosted.blocks
            },
        )


@dataclass
class ShardView:
    """Attacker-visible state of one shard (index + owned ciphertext)."""

    shard_id: int
    structural_index: object
    blocks: dict[int, bytes]
