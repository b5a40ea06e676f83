"""Hosting pipeline: encrypt a database under a scheme and build metadata.

This is the client-side preparation step of Figure 1: given the plaintext
database, the security constraints' chosen scheme and the keyring, produce

* the hosted tree — the original document with every encryption-block
  subtree replaced by an :class:`~repro.xmldb.node.EncryptedBlockNode`
  (decoys injected, AES-CBC encrypted with per-block IVs);
* the structural metadata — DSI index table + encryption block table;
* the value metadata — OPESS field plans (client-secret) and the B-tree
  value index (server-side);
* the translation knowledge — which tags/fields occur encrypted and/or in
  plaintext.

Everything here is deterministic in (document, scheme, master key), which
is what lets the client re-derive exactly the keys/weights used at hosting
time when translating queries later.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.decoy import assert_no_reserved_tags, inject_decoys
from repro.core.dsi import (
    StructuralIndex,
    assign_intervals,
    build_structural_index,
)
from repro.core.opess import FieldPlan, ValueIndex, build_field_plan, build_value_index
from repro.core.scheme import EncryptionScheme
from repro.crypto.keyring import ClientKeyring
from repro.crypto.modes import cbc_encrypt_many
from repro.obs.span import count
from repro.xmldb.node import (
    Attribute,
    Document,
    Element,
    EncryptedBlockNode,
    Node,
    Text,
)
from repro.xmldb.serializer import serialize, text_round_trips
from repro.xmldb.stats import leaf_field_name


@dataclass
class HostedDatabase:
    """Everything produced by hosting; split between server and client."""

    # --- server-side state ---
    hosted_root: Node
    structural_index: StructuralIndex
    value_index: ValueIndex
    blocks: dict[int, bytes]
    placeholders: dict[int, EncryptedBlockNode]
    #: High-water mark of hosted node ids: the largest id ever assigned in
    #: the hosted tree (elements, attributes and block placeholders) —
    #: one less than the count :func:`_renumber_hosted` returns, at
    #: hosting and at load.  All id allocation goes through
    #: :meth:`allocate_hosted_id`, so inserts cost O(1).  Deletes never
    #: lower the mark — ids are never reused, which also means a fragment
    #: path can never alias a node deleted earlier in the epoch.
    max_hosted_id: int

    # --- client-side knowledge ---
    root_tag: str
    encrypted_tags: set[str] = field(default_factory=set)
    plaintext_keys: set[str] = field(default_factory=set)
    field_plans: dict[str, FieldPlan] = field(default_factory=dict)
    field_tokens: dict[str, str] = field(default_factory=dict)
    #: Encrypt-then-MAC tag per block (client-computed, server-stored):
    #: HMAC-SHA256(block-mac key, block id ‖ ciphertext).  The client
    #: verifies these before decrypting, so a server that modifies or
    #: swaps ciphertexts is detected rather than silently believed.
    block_tags: dict[int, bytes] = field(default_factory=dict)
    #: Write stamp per block rewritten or created *after* hosting: the
    #: epoch that write committed as.  The block's IV and decoys were
    #: derived from ``(block id, stamp)``, so the client needs the stamp
    #: to decrypt; it is derived state the owner keeps beside the tags,
    #: never shipped.  Sparse — a block hosting wrote is absent.
    block_stamps: dict[int, int] = field(default_factory=dict)
    decoy_count: int = 0
    #: False only for the §4.1 strawman hosting (fixed IV, no decoys).
    secure: bool = True
    #: Per-field encrypted occurrences (value, block id) in document order.
    #: Client-side knowledge retained to support the incremental-update
    #: extension (field-granular value-index rebuilds, each re-planned
    #: from the field's plan in :attr:`field_plans`, which is owner state
    #: and no cache).
    occurrences: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    #: Scheme epoch: bumped on every mutation of the hosted state.  Every
    #: derived cache — query plans, sealed blobs, server fragments,
    #: client-decrypted blocks and trees — is an ``EpochCache`` gated on
    #: it: one integer compare tells each layer that a write committed,
    #: and :attr:`block_stamps` / :attr:`subtree_stamps` tell the layers
    #: that can use the answer what that write left alone.
    epoch: int = 0
    #: High-water mark of block ids, persisted with the client state: a
    #: deleted block's id (and with it every ``(id, stamp)`` it was
    #: encrypted under) is never handed out again.  ``None`` (hostings
    #: saved before the mark existed) falls back to the largest live id.
    max_block_id: int | None = None
    #: Lazily-built Merkle tree over ``block_tags`` (the freshness
    #: anchor).  All tag mutations must go through :meth:`set_block_tag`
    #: / :meth:`drop_block_tag` so the tree stays incremental; a keyset
    #: drift (legacy direct mutation) is healed by a rebuild in
    #: :meth:`state_root`.
    merkle: "BlockMerkleTree | None" = field(
        default=None, repr=False, compare=False
    )
    #: Serializes anchor reads (``state_root``) against anchor mutations
    #: (tag maintenance, epoch bumps).  :class:`BlockMerkleTree` is not
    #: thread-safe, and the front door gives each connection its own
    #: thread: one connection's thread seals an envelope (reading epoch +
    #: root) while another's applies an update that mutates the tree.
    #: Without the lock a seal could observe a half-rebuilt tree and emit
    #: an anchor that verifies against nothing.  Reentrant so locked
    #: callers can compose these helpers.
    anchor_lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    #: Hosted node id → the epoch of the last write that changed anything
    #: at or below that node (:meth:`mark_changed`).  What the server's
    #: fragment cache asks before carrying a serialized subtree across a
    #: commit.  Sparse, derived, never persisted: a reload renumbers the
    #: hosted ids and starts every cache empty.
    subtree_stamps: dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def state_root(self) -> bytes:
        """Merkle root over the per-block tags: the freshness anchor.

        The client holds this root (it owns ``block_tags``); every wire
        envelope binds it together with :attr:`epoch`, so a replayed
        pre-update response can be detected even though its MAC is valid.
        """
        from repro.core.integrity import BlockMerkleTree

        with self.anchor_lock:
            if (
                self.merkle is None
                or self.merkle.leaf_count != len(self.block_tags)
            ):
                self.merkle = BlockMerkleTree(self.block_tags)
            return self.merkle.root()

    def anchor(self) -> tuple[int, bytes]:
        """One consistent ``(epoch, root)`` pair for sealing.

        Reading the two attributes separately can tear across a
        concurrent update (old epoch with new root or vice versa); every
        seal site should take the pair through here.
        """
        with self.anchor_lock:
            return self.epoch, self.state_root()

    def seal(self, key: bytes, payload: bytes) -> tuple[bytes, int]:
        """Seal ``payload`` under the current anchor; returns the sealed
        bytes and the epoch they name (what a cache stores them under).

        Client and server read the same hosted state, so an honest
        exchange always verifies; a blob sealed at any other anchor — a
        replay, or a request that lost a race to a commit — fails the
        receiver's freshness check.
        """
        from repro.core.integrity import seal_fresh

        epoch, root = self.anchor()
        return seal_fresh(key, payload, epoch, root), epoch

    def unseal(
        self, key: bytes, blob: bytes, *, error: "type[IntegrityError]"
    ) -> tuple[bytes, int]:
        """Open a blob sealed by :meth:`seal`; returns the payload and
        the epoch it was verified at.

        The one freshness rule, for requests, commands and responses
        alike: a blob is valid at exactly the anchor it was sealed at.
        One sealed at any other — a replay, or a request that lost a race
        to a commit — raises
        :class:`~repro.core.integrity.RollbackDetectedError` (or
        :class:`~repro.core.integrity.StaleStateError`), so an old
        epoch's plan, with its OPESS ranges, is never evaluated against
        a newer index, and an applied write's command can never apply
        again.  Anything that fails the MAC raises ``error``.
        """
        from repro.core.integrity import unseal_fresh

        epoch, root = self.anchor()
        return unseal_fresh(key, blob, epoch, root, error=error), epoch

    def set_block_tag(self, block_id: int, tag: bytes) -> None:
        """Install a block tag and incrementally maintain the Merkle tree."""
        with self.anchor_lock:
            self.block_tags[block_id] = tag
            if self.merkle is not None:
                self.merkle.set_leaf(block_id, tag)

    def drop_block_tag(self, block_id: int) -> None:
        """Remove a block tag (block deleted) and its Merkle leaf."""
        with self.anchor_lock:
            self.block_tags.pop(block_id, None)
            if self.merkle is not None:
                self.merkle.remove_leaf(block_id)

    def mark_changed(
        self, node: Node, stamp: int, removed: bool = False
    ) -> None:
        """Record that the write committing as ``stamp`` changed ``node``.

        The node and its ancestors — O(depth), and by laminarity the only
        roots whose serialized subtree can hold the change.  A ``removed``
        node takes its whole subtree along: none of it ships again.
        """
        stamps = self.subtree_stamps
        for touched in node.iter() if removed else (node,):
            stamps[touched.node_id] = stamp
        for ancestor in node.ancestors():
            stamps[ancestor.node_id] = stamp

    def bump_epoch(self) -> None:
        """Advance the scheme epoch after a hosted-state mutation.

        Called by :mod:`repro.core.updates` once per applied update, after
        everything the write changes has been stamped; the epoch-gated
        caches (plans, fragments, decrypted blocks) sweep lazily on their
        next epoch check.
        """
        with self.anchor_lock:
            self.epoch += 1
        count("epoch_invalidations")

    def allocate_hosted_id(self) -> int:
        """Next fresh hosted node id (advances the high-water mark)."""
        self.max_hosted_id += 1
        return self.max_hosted_id

    def allocate_block_id(self) -> int:
        """Next fresh block id (advances the high-water mark)."""
        if self.max_block_id is None:
            self.max_block_id = max(self.blocks, default=0)
        self.max_block_id += 1
        return self.max_block_id

    def hosted_size_bytes(self) -> int:
        """Size of the serialized hosted database, |E(D)|."""
        return len(serialize(self.hosted_root).encode("utf-8"))

    def block_count(self) -> int:
        return len(self.blocks)


def host_database(
    document: Document,
    scheme: EncryptionScheme,
    keyring: ClientKeyring,
    secure: bool = True,
) -> HostedDatabase:
    """Encrypt ``document`` under ``scheme`` and build all metadata.

    ``secure=False`` hosts the §4.1 *strawman*: no decoys and a fixed
    block IV, so equal plaintext subtrees produce equal ciphertexts.  It
    exists only so the attack experiments can demonstrate the
    frequency-based attack succeeding against careless encryption; never
    use it for real hosting.
    """
    assert_no_reserved_tags(document)
    document.renumber()

    # --- structural metadata on the original structure (pre-decoy) ---
    intervals = assign_intervals(document, keyring.dsi_weight_stream())
    block_ids = {
        root_id: index + 1
        for index, root_id in enumerate(sorted(scheme.block_root_ids))
    }
    structural_index = build_structural_index(
        document,
        intervals,
        scheme.block_root_ids,
        block_ids,
        keyring.tag_cipher.encrypt_tag,
    )

    # --- classify nodes and gather value occurrences ---
    owning_block = _owning_blocks(document, scheme.block_root_ids, block_ids)
    encrypted_tags: set[str] = set()
    plaintext_keys: set[str] = set()
    occurrences: dict[str, list[tuple[str, int]]] = {}
    for node in document.iter_with_attributes():
        key = _node_key(node)
        if key is None:
            _assert_text_round_trips(node)
            continue
        block = owning_block.get(node.node_id)
        if block is None:
            plaintext_keys.add(key)
            continue
        encrypted_tags.add(key)
        value = node.text_value()
        if value is not None and (
            isinstance(node, Attribute) or node.is_leaf_element
        ):
            occurrences.setdefault(leaf_field_name(node), []).append(
                (value, block)
            )

    # --- OPESS value metadata ---
    field_plans: dict[str, FieldPlan] = {}
    field_tokens: dict[str, str] = {}
    for field_name, occurrence_list in sorted(occurrences.items()):
        histogram = Counter(value for value, _ in occurrence_list)
        field_plans[field_name] = build_field_plan(
            field_name,
            histogram,
            keyring.opess_stream(field_name),
            keyring.ope,
        )
        field_tokens[field_name] = keyring.tag_cipher.encrypt_tag(field_name)
    value_index = build_value_index(
        occurrences, field_plans, field_tokens, keyring.ope
    )

    # --- build the hosted tree ---
    hosted = document.clone()  # identical numbering after Document.__init__
    decoy_stream = keyring.decoy_stream()
    blocks: dict[int, bytes] = {}
    placeholders: dict[int, EncryptedBlockNode] = {}
    block_tags: dict[int, bytes] = {}
    hosted_root: Node = hosted.root
    decoy_count = 0
    # Decoys and serialization block after block (the decoy stream is
    # drawn in block order), then every CBC chain in one lock-step pass.
    subtrees: list[tuple[int, Element]] = []
    chains: list[tuple[bytes, bytes]] = []
    for root_id in sorted(scheme.block_root_ids):
        block_id = block_ids[root_id]
        subtree = hosted.node_by_id(root_id)
        assert isinstance(subtree, Element)
        if secure:
            decoy_count += inject_decoys(subtree, decoy_stream)
        iv = keyring.block_iv(block_id) if secure else keyring.block_iv(0)
        subtrees.append((block_id, subtree))
        chains.append((iv, serialize(subtree).encode("utf-8")))
    payloads = cbc_encrypt_many(keyring.block_cipher, chains)
    for (block_id, subtree), payload in zip(subtrees, payloads):
        placeholder = EncryptedBlockNode(block_id, payload)
        blocks[block_id] = payload
        placeholders[block_id] = placeholder
        block_tags[block_id] = keyring.block_tag(block_id, payload)
        if subtree is hosted_root:
            hosted_root = placeholder
        else:
            subtree.replace_with(placeholder)
    hosted_id_count = _renumber_hosted(hosted_root)

    # --- attach server-visible plaintext info to index entries ---
    # hosted.node_by_id still resolves *original* ids: _renumber_hosted
    # rewrote the node_id fields but the Document's id map was built at
    # clone time, and plaintext nodes were never detached from it.
    for entry in structural_index.all_entries():
        if entry.block_id is not None:
            continue
        assert len(entry.member_ids) == 1  # plaintext entries never group
        hosted_node = hosted.node_by_id(entry.member_ids[0])
        entry.hosted_node = hosted_node
        entry.plaintext_value = hosted_node.text_value()

    return HostedDatabase(
        hosted_root=hosted_root,
        structural_index=structural_index,
        value_index=value_index,
        blocks=blocks,
        placeholders=placeholders,
        max_hosted_id=hosted_id_count - 1,
        block_tags=block_tags,
        root_tag=document.root.tag,
        encrypted_tags=encrypted_tags,
        plaintext_keys=plaintext_keys,
        field_plans=field_plans,
        field_tokens=field_tokens,
        decoy_count=decoy_count,
        secure=secure,
        occurrences=occurrences,
        max_block_id=len(blocks),
    )


def _assert_text_round_trips(text: Node) -> None:
    """Refuse to host text the hosted XML would not carry exactly: every
    read would return it stripped while the value index held it whole."""
    if isinstance(text, Text) and not text_round_trips(text.value):
        raise ValueError(
            f"text {text.value!r} under <{text.parent.tag}> is empty or has "
            "leading or trailing whitespace, which XML text does not keep; "
            "strip it before hosting"
        )


def _owning_blocks(
    document: Document,
    block_root_ids: frozenset[int],
    block_ids: dict[int, int],
) -> dict[int, int]:
    owning: dict[int, int] = {}
    for root_id in block_root_ids:
        root = document.node_by_id(root_id)
        assert isinstance(root, Element)
        block = block_ids[root_id]
        for node in root.iter():
            owning[node.node_id] = block
            if isinstance(node, Element):
                for attribute in node.attributes:
                    owning[attribute.node_id] = block
    return owning


def _node_key(node: Node) -> str | None:
    """DSI-table key shape of a node: tag, ``@name``, or None for text."""
    if isinstance(node, Attribute):
        return f"@{node.name}"
    if isinstance(node, Element):
        return node.tag
    return None


def _hosted_order(root: Node) -> Iterator[Node]:
    """Hosted-tree nodes in id order: document order, attributes right
    after their element."""
    stack: list[Node] = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Element):
            yield from node.attributes
        stack.extend(reversed(node.children))


def _renumber_hosted(root: Node) -> int:
    """Assign fresh document-order ids over the hosted tree.

    The hosted tree mixes elements, attributes and block placeholders; its
    ids are the stable ancestor identifiers the server puts in fragment
    paths (and the client uses to merge skeletons).  Returns the number of
    ids assigned, which seeds the hosted database's id high-water mark.
    """
    counter = 0
    for node in _hosted_order(root):
        node.node_id = counter
        counter += 1
    return counter


def renumbered_hosted_ids(root: Node) -> dict[int, int]:
    """Current hosted id → the id :func:`_renumber_hosted` would assign.

    Inserts take ids from the high-water mark, so a live tree's ids stop
    being document-ordered; a reload renumbers from scratch.  Whatever is
    persisted alongside the tree must name nodes by the ids the reload
    will hand out, and this is that translation (the identity until the
    first insert).  Nodes that never got an id — the Text child of an
    inserted leaf — are not keys: nothing persisted can name them.
    """
    return {
        node.node_id: new_id
        for new_id, node in enumerate(_hosted_order(root))
        if node.node_id >= 0
    }
