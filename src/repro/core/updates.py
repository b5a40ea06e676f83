"""Incremental updates over a hosted database (extension; paper §8 item 3).

"Developing a secure encryption scheme for efficiently supporting updates
is another important problem." — the paper leaves updates as future work.
This module implements the natural extension the DSI design invites: the
random *gaps* between sibling intervals (§5.1) leave room to place a new
node's interval without relabeling anything, so a hosted system can accept
leaf-level inserts, deletes and value updates while preserving the exact
query contract.

Supported operations (see :class:`UpdateEngine`):

* :meth:`UpdateEngine.insert_element` — add a new leaf element under a
  plaintext parent.  If the tag is sensitive (already encrypted somewhere,
  or covered by a constraint field), the new leaf becomes its own
  encryption block with a decoy, its interval is drawn inside the parent's
  trailing gap, and the field's OPESS plan and index entries are rebuilt
  (histograms change, so splitting must be re-planned — *field-granular*
  incrementality).
* :meth:`UpdateEngine.delete_element` — remove a plaintext subtree or an
  encrypted block, along with every index entry, block payload and value
  occurrence beneath it.
* :meth:`UpdateEngine.update_value` — rewrite one leaf's value (in place
  for plaintext leaves; re-encrypting the enclosing single-leaf block for
  encrypted ones).

Every write that changes an encrypted field's occurrences re-plans that
field from the plan it replaces (:meth:`UpdateEngine._rebuild_field`):
the new plan equals one built from scratch, but the weights, the scale
draws and the chunk ciphertexts of every position the old plan already
had are taken from it rather than drawn and encrypted again, and the
field's index entries are taken as the key-ordered runs they are made in,
without a sort.

Security caveat, stated openly: the paper's theorems cover a static
hosting.  These updates preserve *query* security (the server still sees
only tokens, intervals and ciphertext), but the update *trace* itself —
which blocks changed and when — is outside the paper's attack model,
exactly the open problem §8 flags.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from typing import Callable, Optional

from repro.core.decoy import inject_decoys
from repro.core.dsi import _MIN_WIDTH, IndexEntry, Interval
from repro.core.encryptor import HostedDatabase
from repro.core.opess import build_field_plan, build_value_index
from repro.core.structural_join import match_pattern, superset_reason
from repro.crypto.keyring import ClientKeyring
from repro.crypto.modes import cbc_encrypt
from repro.obs.span import count
from repro.xmldb.node import Element, EncryptedBlockNode, Text
from repro.xmldb.serializer import serialize, text_round_trips


class UpdateError(ValueError):
    """Raised when an update cannot be applied safely."""


def _check_value(value: str) -> None:
    """Refuse a leaf value the XML form cannot carry exactly: the value
    index would hold what was written, every read what the parser left."""
    if not text_round_trips(value):
        raise UpdateError(
            f"leaf value {value!r} is empty or has leading or trailing "
            "whitespace, which XML text does not keep"
        )


def _low(entry: IndexEntry) -> float:
    """Sort key of ``StructuralIndex.entries``: the interval's low bound."""
    return entry.interval.low


class UpdateEngine:
    """Applies incremental updates to a hosted database.

    The engine mutates the :class:`HostedDatabase` in place and leaves
    behind the record of what it changed that the caches ask at the next
    epoch check: a stamp on every block it (re)writes, a mark on the
    hosted node it touched and that node's ancestors, and the index keys
    whose entry lists it edited.  Each public call commits as one epoch.
    """

    def __init__(self, hosted: HostedDatabase, keyring: ClientKeyring) -> None:
        if not hosted.secure:
            raise UpdateError("updates require a securely hosted database")
        self._hosted = hosted
        self._keyring = keyring

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert_element(
        self, parent: "IndexEntry | Element", tag: str, value: str
    ) -> None:
        """Insert ``<tag>value</tag>`` as the last child of ``parent``.

        ``parent`` is a plaintext index entry (or its hosted element).  The
        new leaf is encrypted as its own block when the tag is sensitive —
        already encrypted elsewhere, or an SC-covered field — and kept in
        plaintext otherwise.
        """
        _check_value(value)
        entry = self._resolve_parent(parent)
        hosted_parent = entry.hosted_node
        assert isinstance(hosted_parent, Element)

        interval = self._allocate_child_interval(entry)
        sensitive = tag in self._hosted.encrypted_tags

        new_element = Element(tag)
        new_element.append(Text(value))
        new_element.node_id = self._hosted.allocate_hosted_id()

        if sensitive:
            block_id = self._hosted.allocate_block_id()
            payload = self._write_block(new_element, block_id)
            placeholder = EncryptedBlockNode(block_id, payload)
            placeholder.node_id = new_element.node_id
            hosted_parent.append(placeholder)
            self._hosted.placeholders[block_id] = placeholder
            self._hosted.structural_index.block_table[block_id] = interval
            key = self._keyring.tag_cipher.encrypt_tag(tag)
            self._add_entry(
                IndexEntry(
                    key=key,
                    interval=interval,
                    member_ids=(new_element.node_id,),
                    block_id=block_id,
                ),
                entry,
            )
            self._add_occurrence(tag, value, block_id)
        else:
            hosted_parent.append(new_element)
            self._hosted.plaintext_keys.add(tag)
            self._add_entry(
                IndexEntry(
                    key=tag,
                    interval=interval,
                    member_ids=(new_element.node_id,),
                    block_id=None,
                    plaintext_value=value,
                    hosted_node=new_element,
                ),
                entry,
            )
        self._hosted.mark_changed(hosted_parent, self._stamp())
        self._hosted.bump_epoch()

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete_element(self, target: IndexEntry) -> None:
        """Delete the subtree behind an index entry.

        Plaintext entries remove their hosted subtree (including any
        encrypted blocks nested below it); an encrypted entry removes its
        block, and must be the block's root: the block is the unit of
        encryption, so any other node inside would take the rest along.
        """
        hosted = self._hosted
        if target.block_id is not None:
            self._check_block_root(target)
            placeholder = hosted.placeholders.get(target.block_id)
            if placeholder is not None:
                hosted.mark_changed(placeholder, self._stamp(), removed=True)
            self._delete_block(target.block_id)
            hosted.bump_epoch()
            return
        node = target.hosted_node
        if node is None or node.parent is None:
            raise UpdateError("cannot delete the document root")
        # Marked first, while the ancestor chain is still attached.
        hosted.mark_changed(node, self._stamp(), removed=True)
        # Remove blocks nested below the plaintext subtree first.
        for descendant in list(node.iter()):
            if isinstance(descendant, EncryptedBlockNode):
                self._delete_block(descendant.block_id)
        node.detach()
        self._remove_entries_inside(target.interval)
        self._hosted.bump_epoch()

    # ------------------------------------------------------------------
    # Update value
    # ------------------------------------------------------------------
    def update_value(self, target: IndexEntry, new_value: str) -> None:
        """Rewrite the value of a leaf entry."""
        _check_value(new_value)
        if target.block_id is None:
            node = target.hosted_node
            assert isinstance(node, Element)
            if not node.is_leaf_element:
                raise UpdateError("update_value needs a leaf element")
            text = node.children[0]
            assert isinstance(text, Text)
            text.value = new_value
            target.plaintext_value = new_value
            self._hosted.structural_index.stamp(target.key, self._stamp())
            self._hosted.mark_changed(node, self._stamp())
            self._hosted.bump_epoch()
            return

        # Encrypted leaf: only a block's root can be value-updated without
        # structural knowledge of the block internals (a grouped entry is
        # never one).
        self._check_block_root(target)
        block_id = target.block_id
        tag = self._keyring.tag_cipher.decrypt_tag(target.key)
        old_value = self._remove_block_occurrence(tag, block_id)
        if old_value is None:
            raise UpdateError("no indexed occurrence for this block")

        new_element = Element(tag)
        new_element.append(Text(new_value))
        payload = self._write_block(new_element, block_id)
        placeholder = self._hosted.placeholders[block_id]
        placeholder.payload = payload
        self._add_occurrence(tag, new_value, block_id)
        self._hosted.mark_changed(placeholder, self._stamp())
        self._hosted.bump_epoch()

    # ------------------------------------------------------------------
    # Target resolution helpers (used by the system façade)
    # ------------------------------------------------------------------
    def resolve_single(self, translated_query) -> IndexEntry:
        """Resolve a translated query to exactly one output entry.

        Only a plan whose join output is the answer itself can pin one
        (:func:`~repro.core.structural_join.superset_reason`); any other
        is refused before any state moves.
        """
        reason = superset_reason(translated_query)
        if reason is not None:
            raise UpdateError(f"the server cannot pin the target: {reason}")
        result = match_pattern(
            translated_query,
            self._hosted.structural_index,
            self._hosted.value_index,
        )
        if len(result.output_entries) != 1:
            raise UpdateError(
                f"update target must match exactly one node; "
                f"matched {len(result.output_entries)}"
            )
        return result.output_entries[0]

    def _resolve_parent(self, parent: "IndexEntry | Element") -> IndexEntry:
        if isinstance(parent, IndexEntry):
            entry = parent
        else:
            entry = next(
                (
                    candidate
                    for candidate in self._hosted.structural_index.all_entries()
                    if candidate.hosted_node is parent
                ),
                None,
            )
            if entry is None:
                raise UpdateError("parent element is not in the index")
        if entry.block_id is not None or entry.hosted_node is None:
            raise UpdateError(
                "insert parent must be a plaintext element; inserting "
                "inside an encrypted block requires delete + re-insert of "
                "the block"
            )
        return entry

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_block_root(self, target: IndexEntry) -> None:
        """Refuse an encrypted target that is not its block's root.

        The block is the unit of encryption: rewriting or deleting it on
        behalf of an entry nested inside would rewrite or delete every
        other node the block holds.
        """
        block_table = self._hosted.structural_index.block_table
        if block_table.get(target.block_id) != target.interval:
            raise UpdateError(
                "the target lies inside a larger encryption block; "
                "write to the block's root instead"
            )

    def _stamp(self) -> int:
        """The epoch the write in progress commits as.

        Every write ends in exactly one ``bump_epoch()``, and the epoch is
        persisted with the freshness anchor, so no two writes — in this
        process or after a reload — draw under the same stamp.
        """
        return self._hosted.epoch + 1

    def _allocate_child_interval(self, parent: IndexEntry) -> Interval:
        """Draw a fresh interval in the parent's trailing gap.

        The §5.1 construction leaves ``(max_N, parent.high)`` unused; we
        place the new child in the first part of whatever gap remains
        after the current last child, keeping room for further inserts.
        The two weights come from this write's own stream: §5.1's weights
        are secret, and a stream reopened per insert would put every
        inserted child at the same two fractions of its gap.
        """
        children = sorted(
            (c.interval for c in parent.children), key=lambda i: i.high
        )
        gap_low = children[-1].high if children else parent.interval.low
        gap_high = parent.interval.high
        width = gap_high - gap_low
        if width <= _MIN_WIDTH:
            raise UpdateError("no interval gap left under this parent")
        stream = self._keyring.dsi_weight_stream(self._stamp())
        w1 = stream.uniform(0.05, 0.30)
        w2 = stream.uniform(0.35, 0.60)
        return Interval(gap_low + width * w1, gap_low + width * w2)

    def _add_entry(self, entry: IndexEntry, parent: IndexEntry) -> None:
        """Link a new entry below ``parent``.

        Its interval was drawn in ``parent``'s trailing gap, past every
        existing child, so ``parent`` is the smallest interval around it.
        """
        index = self._hosted.structural_index
        entry.parent = parent
        parent.children.append(entry)
        index.table.setdefault(entry.key, []).append(entry)
        insort(index.entries, entry, key=_low)
        index.invalidate_caches((entry.key,), self._stamp())

    def _unlink_entries(
        self, span: Interval, doomed: Callable[[IndexEntry], bool]
    ) -> None:
        """Remove the entries at or inside ``span`` that ``doomed`` selects.

        ``entries`` is sorted by low bound and the intervals are laminar,
        so everything at or inside ``span`` is one contiguous run, found
        by bisection.  A removed entry is referenced from three places —
        that run, its key's table list and its parent's ``children`` —
        and only those are rewritten.
        """
        index = self._hosted.structural_index
        entries = index.entries
        start = bisect_left(entries, span.low, key=_low)
        stop = bisect_right(entries, span.high, key=_low)
        run = entries[start:stop]
        removed = [entry for entry in run if doomed(entry)]
        removed_ids = {id(entry) for entry in removed}
        entries[start:stop] = [
            entry for entry in run if id(entry) not in removed_ids
        ]
        # Compare by identity: IndexEntry equality recurses through links.
        table = index.table
        keys = {entry.key for entry in removed}
        for key in keys:
            kept = [e for e in table[key] if id(e) not in removed_ids]
            if kept:
                table[key] = kept
            else:
                del table[key]
        index.invalidate_caches(keys, self._stamp())
        survivors = {
            id(entry.parent): entry.parent
            for entry in removed
            if entry.parent is not None and id(entry.parent) not in removed_ids
        }
        for parent in survivors.values():
            parent.children = [
                c for c in parent.children if id(c) not in removed_ids
            ]

    def _remove_entries_inside(self, interval: Interval) -> None:
        """Drop the entry at ``interval`` and every entry nested in it."""
        self._unlink_entries(
            interval,
            lambda entry: interval.contains(entry.interval)
            or entry.interval == interval,
        )

    def _delete_block(self, block_id: int) -> None:
        hosted = self._hosted
        placeholder = hosted.placeholders.pop(block_id, None)
        if placeholder is not None and placeholder.parent is not None:
            placeholder.detach()
        hosted.blocks.pop(block_id, None)
        hosted.block_stamps.pop(block_id, None)
        hosted.drop_block_tag(block_id)
        # Every entry of a block lies at or inside its representative
        # interval (the block root's).
        representative = hosted.structural_index.block_table.pop(
            block_id, None
        )
        if representative is not None:
            self._unlink_entries(
                representative, lambda entry: entry.block_id == block_id
            )
        # Drop value occurrences pointing at the dead block.
        for field_name in list(hosted.occurrences):
            occurrence_list = hosted.occurrences[field_name]
            kept = [
                (value, block) for value, block in occurrence_list
                if block != block_id
            ]
            if len(kept) != len(occurrence_list):
                hosted.occurrences[field_name] = kept
                self._rebuild_field(field_name)

    def _write_block(self, subtree: Element, block_id: int) -> bytes:
        """Encrypt ``subtree`` as block ``block_id`` and store it.

        IV and decoys are derived from ``(block_id, stamp)``: the id may
        have held a payload before, the pair has not.  The stamp is kept
        with the tag — it is what the client decrypts under.
        """
        keyring, hosted, stamp = self._keyring, self._hosted, self._stamp()
        inject_decoys(subtree, keyring.decoy_stream(block_id, stamp))
        payload = cbc_encrypt(
            keyring.block_cipher,
            keyring.block_iv(block_id, stamp),
            serialize(subtree).encode("utf-8"),
        )
        hosted.blocks[block_id] = payload
        hosted.block_stamps[block_id] = stamp
        hosted.set_block_tag(block_id, keyring.block_tag(block_id, payload))
        return payload

    def _add_occurrence(self, field_name: str, value: str, block_id: int) -> None:
        self._hosted.occurrences.setdefault(field_name, []).append(
            (value, block_id)
        )
        self._hosted.encrypted_tags.add(field_name)
        self._rebuild_field(field_name)

    def _remove_block_occurrence(
        self, field_name: str, block_id: int
    ) -> Optional[str]:
        occurrence_list = self._hosted.occurrences.get(field_name, [])
        for index, (value, block) in enumerate(occurrence_list):
            if block == block_id:
                del occurrence_list[index]
                return value
        return None

    def _rebuild_field(self, field_name: str) -> None:
        """Re-plan OPESS and rebuild the value index for one field.

        The re-plan is carried from the field's current plan (see
        :func:`~repro.core.opess.build_field_plan`): equal to a plan built
        from scratch, it redraws and re-encrypts only what the old plan
        does not hold.  That plan is the owner's state, not a cache — no
        epoch or flush drops it — and it is never persisted: a loaded
        hosting re-derives its plans, so the first write to each field
        after a load encrypts every position once.
        """
        hosted = self._hosted
        occurrence_list = hosted.occurrences.get(field_name, [])
        token = hosted.field_tokens.get(
            field_name
        ) or self._keyring.tag_cipher.encrypt_tag(field_name)
        hosted.field_tokens[field_name] = token
        hosted.value_index.stamps[token] = self._stamp()
        if not occurrence_list:
            hosted.field_plans.pop(field_name, None)
            hosted.value_index.fields.pop(token, None)
            return
        histogram = Counter(value for value, _ in occurrence_list)
        previous = hosted.field_plans.get(field_name)
        plan = build_field_plan(
            field_name,
            histogram,
            self._keyring.opess_stream(field_name),
            self._keyring.ope,
            previous=previous,
        )
        carried = previous is not None and previous.key_count == plan.key_count
        count("opess_replans_carried" if carried else "opess_replans_full")
        hosted.field_plans[field_name] = plan
        rebuilt = build_value_index(
            {field_name: occurrence_list},
            {field_name: plan},
            {field_name: token},
            self._keyring.ope,
        )
        hosted.value_index.fields[token] = rebuilt.fields[token]
