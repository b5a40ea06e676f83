"""The full-scan update engine and insert-loop index build, kept as the oracle.

This is ``repro/core/updates.py`` and ``repro/core/opess.build_value_index``
as they stood before a write was made to cost what it changes:

* ``_add_entry`` finds the new entry's parent by scanning every entry for
  the smallest interval around it (the engine now takes the parent
  ``insert_element`` already resolved);
* ``_remove_entries_inside`` / ``_delete_block`` filter the whole
  ``entries`` list, rebuild every tag list of ``table`` and every surviving
  entry's ``children`` (the engine now bisects to the one run of entries
  and rewrites only the lists that held a removed entry);
* a field is re-planned from scratch, and its index is rebuilt by
  encrypting each chunk point on its own and ``insort``-ing every
  ⟨ciphertext, block⟩ entry into one list, one at a time, before
  grouping it (the engine now re-plans from the field's old plan,
  keeping what it already holds, and appends key-ordered runs as they
  are made).

Slow and obviously right.  ``test_updates_oracle.py`` runs both engines in
lockstep over seeded update streams and holds every hosted structure of
one to the other after every operation.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from operator import itemgetter
from typing import Optional

from repro.core.dsi import IndexEntry, Interval
from repro.core.opess import FieldPlan, KeyRuns, ValueIndex, build_field_plan
from repro.core.updates import UpdateEngine
from repro.crypto.ope import OrderPreservingEncryption


def build_value_index_by_insertion(
    occurrences: dict[str, list[tuple[str, int]]],
    plans: dict[str, FieldPlan],
    field_tokens: dict[str, str],
    ope: OrderPreservingEncryption,
) -> ValueIndex:
    """``build_value_index`` as one ``insort`` per index entry."""
    index = ValueIndex()
    for field_name, occurrence_list in occurrences.items():
        plan = plans[field_name]
        entries: list[tuple[int, int]] = []
        by_value: dict[str, list[int]] = {}
        for value, block_id in occurrence_list:
            by_value.setdefault(value, []).append(block_id)
        for value, block_ids in by_value.items():
            ciphertexts = [
                ope.encrypt_float(plan.mapping[value] + plan.displacement(j))
                for j in range(1, len(plan.chunk_plan[value]) + 1)
            ]
            chunks = plan.chunk_plan[value]
            scale = plan.scales[value]
            if len(block_ids) == 1 and len(chunks) > 1:
                # Singleton rule: every chunk indexes the one occurrence.
                assignments = [
                    (ciphertext, block_ids[0]) for ciphertext in ciphertexts
                ]
            else:
                assignments = []
                cursor = 0
                for ciphertext, chunk_size in zip(ciphertexts, chunks):
                    for block_id in block_ids[cursor : cursor + chunk_size]:
                        assignments.append((ciphertext, block_id))
                    cursor += chunk_size
                assert cursor == len(block_ids)
            for ciphertext, block_id in assignments:
                for _ in range(scale):
                    insort(
                        entries, (ciphertext, block_id), key=itemgetter(0)
                    )
        index.fields[field_tokens[field_name]] = KeyRuns.from_sorted(entries)
    return index


class FullScanUpdateEngine(UpdateEngine):
    """``UpdateEngine`` with the index surgery done by whole-index scans."""

    def _add_entry(self, entry: IndexEntry, parent: IndexEntry) -> None:
        del parent  # recomputed from the geometry, as the engine used to
        index = self._hosted.structural_index
        # Parent = smallest existing interval strictly containing ours.
        found: Optional[IndexEntry] = None
        for candidate in index.all_entries():
            if candidate.interval.contains(entry.interval):
                if found is None or found.interval.contains(
                    candidate.interval
                ):
                    found = candidate
        entry.parent = found
        if found is not None:
            found.children.append(entry)
        index.table.setdefault(entry.key, []).append(entry)
        insort(index.entries, entry, key=lambda e: e.interval.low)
        index.invalidate_caches((entry.key,), self._stamp())

    def _remove_entries_inside(self, interval: Interval) -> None:
        index = self._hosted.structural_index

        def doomed(entry: IndexEntry) -> bool:
            if interval.contains(entry.interval):
                return True
            return entry.interval == interval

        self._drop([e for e in index.entries if doomed(e)])

    def _drop(self, removed: list[IndexEntry]) -> None:
        index = self._hosted.structural_index
        removed_ids = {id(e) for e in removed}
        index.invalidate_caches({e.key for e in removed}, self._stamp())
        index.entries = [e for e in index.entries if id(e) not in removed_ids]
        for key in list(index.table):
            index.table[key] = [
                e for e in index.table[key] if id(e) not in removed_ids
            ]
            if not index.table[key]:
                del index.table[key]
        for entry in index.entries:
            entry.children = [
                c for c in entry.children if id(c) not in removed_ids
            ]

    def _delete_block(self, block_id: int) -> None:
        hosted = self._hosted
        placeholder = hosted.placeholders.pop(block_id, None)
        if placeholder is not None and placeholder.parent is not None:
            placeholder.detach()
        hosted.blocks.pop(block_id, None)
        hosted.block_stamps.pop(block_id, None)
        hosted.drop_block_tag(block_id)
        hosted.structural_index.block_table.pop(block_id, None)
        index = hosted.structural_index
        self._drop([e for e in index.entries if e.block_id == block_id])
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

    def _rebuild_field(self, field_name: str) -> None:
        """Re-plan OPESS and rebuild the B-tree for one field."""
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
        plan = build_field_plan(
            field_name,
            histogram,
            self._keyring.opess_stream(field_name),
            self._keyring.ope,
        )
        hosted.field_plans[field_name] = plan
        rebuilt = build_value_index_by_insertion(
            {field_name: occurrence_list},
            {field_name: plan},
            {field_name: token},
            self._keyring.ope,
        )
        hosted.value_index.fields[token] = rebuilt.fields[token]


def write_plaintext(document, method: str, xpath: str, *args: str) -> None:
    """``SecureXMLSystem.<method>(xpath, *args)`` on the plaintext document,
    for tests that hold post-write answers to ``evaluate(document, query)``."""
    from repro.xmldb.node import Element, Text
    from repro.xpath.evaluator import evaluate

    (target,) = evaluate(document, xpath)
    if method == "insert_element":
        tag, value = args
        leaf = Element(tag)
        leaf.append(Text(value))
        target.append(leaf)
    elif method == "update_value":
        (target.children[0].value,) = args
    else:
        assert method == "delete_element" and not args
        target.detach()
    document.renumber()
