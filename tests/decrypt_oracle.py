"""The tree-level decrypt pipeline, kept as the text-level one's oracle.

This is the miss path of ``Client.decrypt_fragments`` as it stood before
plaintexts were spliced into the fragment *text*: parse the fragment into
placeholders, walk it for blocks, verify, decrypt, parse each plaintext on
its own, clone it out of the block cache, ``replace_with`` it, walk again
to strip decoys, clone again out of the tree cache.  ``remove_decoys``
lived in ``repro/core/decoy.py`` and has no other caller left.

``test_decrypt_oracle.py`` holds the client to it: the same tree wherever
this returns a tree (with the same counter traffic), and
``TamperedResponseError`` wherever this raises anything at all.  Its known
holes — ``XMLParseError``, ``ValueError`` and ``UnicodeDecodeError``
escaping untyped — are what the client closes; they are left in place.
"""

from __future__ import annotations

import hmac as _compare

from repro.core.decoy import DECOY_TAG
from repro.core.encryptor import HostedDatabase
from repro.core.integrity import TamperedResponseError
from repro.crypto.keyring import ClientKeyring
from repro.crypto.modes import cbc_decrypt_many
from repro.obs.span import count
from repro.xmldb.node import Element, iter_encrypted_blocks
from repro.xmldb.parser import (
    ENCRYPTED_DATA_TAG,
    block_placeholder,
    parse_fragment,
)

_BLOCK_MARKER = ENCRYPTED_DATA_TAG.encode("ascii")


def remove_decoys(root: Element) -> int:
    """Strip every decoy child below ``root``; returns how many were removed.

    §6.4: "If there exists the encryption decoy, the decoy is removed".
    """
    decoys = [
        node
        for node in root.iter()
        if isinstance(node, Element) and node.tag == DECOY_TAG
    ]
    for decoy in decoys:
        decoy.detach()
    return len(decoys)


class OracleDecryptor:
    """``Client``'s decrypt stage over trees, with its own two caches."""

    def __init__(
        self,
        keyring: ClientKeyring,
        hosted: HostedDatabase,
        enable_cache: bool = True,
    ) -> None:
        self._keyring = keyring
        self._hosted = hosted
        self._secure = hosted.secure
        self._block_cache: "dict[int, Element] | None" = (
            {} if enable_cache else None
        )
        self._tree_cache: "dict[str, Element] | None" = (
            {} if enable_cache else None
        )

    def flush_caches(self) -> None:
        if self._block_cache is not None:
            self._block_cache.clear()
        if self._tree_cache is not None:
            self._tree_cache.clear()

    def decrypt_fragment(self, xml: str) -> Element:
        return self.decrypt_batch([xml])[0]

    def decrypt_batch(self, xmls: "list[str]") -> list[Element]:
        cache = self._tree_cache
        if cache is None:
            return self._build_trees(xmls)
        results: "list[Element | None]" = [None] * len(xmls)
        missing: dict[str, list[int]] = {}
        for index, xml in enumerate(xmls):
            cached = cache.get(xml)
            if cached is not None:
                count("tree_cache_hits")
                results[index] = cached.clone()
            elif xml in missing:
                count("tree_cache_hits")
                missing[xml].append(index)
            else:
                count("tree_cache_misses")
                missing[xml] = [index]
        if missing:
            trees = self._build_trees(list(missing))
            for (xml, slots), tree in zip(missing.items(), trees):
                cache[xml] = tree
                for index in slots:
                    results[index] = tree.clone()
        return results  # type: ignore[return-value]

    def _build_trees(self, xmls: "list[str]") -> list[Element]:
        trees = self._resolve_blocks([parse_fragment(xml) for xml in xmls])
        for tree in trees:
            remove_decoys(tree)
        return trees

    def _verify_block(self, block_id: int, payload: bytes) -> None:
        expected = self._hosted.block_tags.get(block_id)
        if expected is None:
            return
        actual = self._keyring.block_tag(block_id, payload)
        if not _compare.compare_digest(actual, expected):
            raise TamperedResponseError(
                f"block {block_id} failed integrity verification"
            )

    def _resolve_blocks(self, roots: "list[Element]") -> list[Element]:
        occurrences = [
            (index, *occurrence)
            for index, root in enumerate(roots)
            for occurrence in _block_occurrences(root)
        ]
        if not occurrences:
            return roots
        for _, _, block_id, payload in occurrences:
            self._verify_block(block_id, payload)

        cache = self._block_cache
        if cache is None:
            subtrees = self._plaintext_subtrees(
                [(block_id, payload) for _, _, block_id, payload in occurrences]
            )
        else:
            pristine: dict[int, Element] = {}
            wanted: dict[int, bytes] = {}
            for _, _, block_id, payload in occurrences:
                if block_id in pristine or block_id in wanted:
                    count("block_cache_hits")
                elif (cached := cache.get(block_id)) is not None:
                    count("block_cache_hits")
                    pristine[block_id] = cached
                else:
                    count("block_cache_misses")
                    wanted[block_id] = payload
            fresh = dict(
                zip(wanted, self._plaintext_subtrees(list(wanted.items())))
            )
            cache.update(fresh)
            pristine.update(fresh)
            subtrees = [
                pristine[block_id].clone() for _, _, block_id, _ in occurrences
            ]

        roots = list(roots)
        for (index, placeholder, _, _), subtree in zip(occurrences, subtrees):
            if placeholder is None:
                roots[index] = subtree
            else:
                placeholder.replace_with(subtree)
        return roots

    def _plaintext_subtrees(
        self, blocks: "list[tuple[int, bytes]]"
    ) -> list[Element]:
        block_iv = self._keyring.block_iv
        secure = self._secure
        stamps = self._hosted.block_stamps
        plaintexts = cbc_decrypt_many(
            self._keyring.block_cipher,
            [
                (
                    block_iv(block_id, stamps.get(block_id))
                    if secure
                    else block_iv(0),
                    payload,
                )
                for block_id, payload in blocks
            ],
        )
        subtrees = [
            parse_fragment(plaintext.decode("utf-8"))
            for plaintext in plaintexts
        ]
        nested = [
            slot for slot, plaintext in enumerate(plaintexts)
            if _BLOCK_MARKER in plaintext
        ]
        if nested:
            resolved = self._resolve_blocks([subtrees[s] for s in nested])
            for slot, subtree in zip(nested, resolved):
                subtrees[slot] = subtree
        return subtrees


def _block_occurrences(root: Element):
    """Yield ``(placeholder, block id, ciphertext)`` for each block in a tree.

    A fragment that *is* one encrypted block parses as a plain
    ``EncryptedData`` root element (the parser only builds placeholders
    below the root); it is yielded with ``placeholder=None``.
    """
    whole = block_placeholder(root)
    if whole is not None:
        yield None, whole.block_id, whole.payload
        return
    for node in iter_encrypted_blocks(root):
        yield node, node.block_id, node.payload
