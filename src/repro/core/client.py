"""The client / data owner (§6.1, §6.4).

The client owns the master key and the OPESS plans.  Its two runtime jobs:

* **translate** a plaintext XPath query into the encrypted ``Qs`` — compile
  the twig, swap encrypted tags for Vernam tokens, rewrite value predicates
  into ciphertext key ranges (Figure 7);
* **post-process** the server's fragments — decrypt blocks, strip decoys,
  rebuild a pruned document in the original shape, and re-run the original
  query on it, which restores exactness (``Q(δ(Qs(η(D)))) = Q(D)``).  A
  verified response whose fragments come back for the same query is
  answered from copies of the answer nodes instead (:meth:`Client.finish`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import hmac as _compare
import re

from repro.core.decoy import DECOY_TAG
from repro.core.encryptor import HostedDatabase
from repro.core.epoch_cache import EpochCache
from repro.core.integrity import (
    FRESH_OVERHEAD,
    IntegrityError,
    TamperedResponseError,
    count_failure,
    seal_fresh,
)
from repro.core.server import Fragment, ServerResponse
from repro.core.translate import QueryTranslator, TranslatedQuery
from repro.crypto.keyring import ClientKeyring
from repro.crypto.modes import cbc_decrypt_many
from repro.netsim.message import (
    MessageDecodeError,
    decode_response,
    encode_query,
)
from repro.obs.span import count, span
from repro.xmldb.node import Attribute, Document, Element, Node
from repro.xmldb.parser import XMLParseError, parse_fragment
from repro.xmldb.serializer import BLOCK_CLOSE, BLOCK_OPEN, serialize
from repro.xpath import ast
from repro.xpath.axes import residual_pattern
from repro.xpath.evaluator import evaluate
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import plan_query


@dataclass
class QueryAnswer:
    """The final, exact answer to a query.

    ``nodes`` are subtrees the caller owns: no other caller holds them,
    so mutating one changes no later answer.  What lies above an answer
    node is not part of the answer — one handed out by the client's
    answer memo has no ``parent``, and nested answers come back as
    independent copies.
    """

    nodes: list[Node]

    def canonical(self) -> list[str]:
        """Order-insensitive canonical form, for comparing answer sets."""
        return sorted(canonical_node(node) for node in self.nodes)

    def values(self) -> list[str]:
        """Leaf values of the answers (None-valued answers are skipped)."""
        out = []
        for node in self.nodes:
            value = node.text_value()
            if value is not None:
                out.append(value)
        return out

    def __len__(self) -> int:
        return len(self.nodes)


def canonical_node(node: Node) -> str:
    """Canonical string form of an answer node."""
    if isinstance(node, Attribute):
        return f"@{node.name}={node.value}"
    return serialize(node)


class Client:
    """The data owner's runtime state after hosting.

    Built once per hosting and kept across writes — its own or anybody
    else's.  Everything it derives from hosted state sits in one of five
    :class:`EpochCache` instances read off ``hosted.epoch`` — plans,
    verified responses, blocks, trees and answers — so a commit made
    through any handle invalidates it without any call into the client.  A plan
    holds the anchor it was made at and is sealed there, so one that a
    commit outdated between translate and seal fails freshness instead
    of reaching the index it no longer matches.  Verified block payloads
    with their plaintexts, and decrypted trees, outlive a commit that
    did not rewrite their blocks — judged by the owner's own
    ``block_tags`` / ``block_stamps``, never by anything a server sent.
    So does the answer memo: it is keyed by a digest of the verified
    fragments' content and the XPath, and an entry outlives a commit
    while every block its fragments name is live and unstamped since.
    A sealed response embeds the commit epoch, so its blob verifies in
    one epoch only; the response decoded from its payload outlives a
    commit the ending epoch used it in, and a later blob that verifies at
    the live anchor around the very same payload reuses it undecoded.
    """

    def __init__(
        self,
        keyring: ClientKeyring,
        hosted: HostedDatabase,
    ) -> None:
        self._keyring = keyring
        self._hosted = hosted
        self._root_tag = hosted.root_tag
        self._secure = hosted.secure
        self._request_key, self._response_key = keyring.session_keys()
        self._caches: list[EpochCache] = []

        def cache(bounded: int = 0, survives=None) -> EpochCache:
            return EpochCache(
                lambda: hosted.epoch, self._caches, bounded, survives
            )

        def written_since(since: int) -> tuple[frozenset[int], Callable]:
            """The ids stamped after epoch ``since``, and the test of a
            block's liveness.

            By the owner's own record alone: a live block has a tag, and
            a write that re-encrypts one stamps it with the epoch it
            commits as.  Ids are never reused, so a deleted block fails
            for good; a hosting without tags keeps nothing.  Found once
            per sweep, so each entry is tested by set operations alone.
            (A closure over ``hosted``, like the epoch reads: a bound
            method would tie client and caches into a cycle only the
            collector frees.)
            """
            written = frozenset(
                block_id
                for block_id, stamp in hosted.block_stamps.items()
                if stamp > since
            )
            return written, hosted.block_tags.__contains__

        def block_unwritten(since: int) -> Callable:
            """Is this block the one the owner held at epoch ``since``?"""
            written, live = written_since(since)
            return lambda block_id, _cached: (
                block_id not in written and live(block_id)
            )

        def blocks_unwritten(since: int) -> Callable:
            """Is every block the entry names unwritten since ``since``?"""
            written, live = written_since(since)
            return lambda _key, entry: (
                written.isdisjoint(entry[1]) and all(map(live, entry[1]))
            )

        #: XPath string → translated plan, holding its anchor and the
        #: request it sealed to
        self._plan_cache = cache(bounded=1)
        #: sealed response bytes → verified, decoded response; and, keyed
        #: by the 1-tuple of a view of a verified blob's payload (no blob a
        #: server sends can name it), ``(that response, epoch)`` — a record
        #: that outlives a commit only if the epoch that just ended used it.
        #: Each miss stores both, so the bound counts pairs.
        self._response_cache = cache(
            bounded=2,
            survives=lambda since: lambda _key, kept: (
                kept.__class__ is tuple and kept[1] == since
            ),
        )
        #: block id → (the ciphertext payload whose MAC tag verified, its
        #: plaintext text)
        self._block_cache = cache(survives=block_unwritten)
        #: fragment text → (pristine decrypted tree, ids of its blocks) —
        #: or, for a text shipped once so far, (spliced plaintext, ids)
        self._tree_cache = cache(survives=blocks_unwritten)
        #: (digest of the verified fragments, XPath) → (detached copies
        #: of the answer nodes, ids of the fragments' blocks) — or, for a
        #: pair answered once so far, ``_FIRST_SIGHT``
        self._answer_memo = cache(bounded=1, survives=blocks_unwritten)

    # ------------------------------------------------------------------
    # Query translation (§6.1)
    # ------------------------------------------------------------------
    def translate(self, query: "str | ast.LocationPath") -> TranslatedQuery:
        """Translate a query to its server-side plan.

        Every parseable query gets one: the axis lowering, or the
        residual document-root plan (``TranslatedQuery.plan_kind``
        records which, and ``plan_reason`` why).  String queries hit the
        plan cache first: a repeated XPath under an unchanged scheme
        epoch reuses the previously translated ``Qs`` — and the request
        it sealed to — without re-deriving tokens or key ranges.
        """
        if not isinstance(query, str):
            return self._translate_uncached(query)
        plan = self._plan_cache.live().get(query)
        if plan is None:
            count("plan_cache_misses")
            plan = self._translate_uncached(query)
            self._plan_cache.store(query, plan, plan.anchor[0])
        else:
            count("plan_cache_hits")
        return plan

    def naive_plan(self, query: "str | ast.LocationPath") -> TranslatedQuery:
        """The §7.3 baseline's plan: the residual document-root pattern
        (the whole hosted tree ships), labelled ``naive``.  Never in the
        plan cache, where the XPath's entry is its planned read."""
        anchor = self._hosted.anchor()  # read first: the plan is as of it
        translated = self._translator().translate(residual_pattern())
        translated.plan_kind = "naive"
        translated.path = (
            query if isinstance(query, ast.LocationPath) else parse_xpath(query)
        )
        translated.anchor = anchor
        return translated

    def _translator(self) -> QueryTranslator:
        """A translator over the hosting's tags and OPESS plans as they
        stand; a write re-plans its field, so one serves one plan."""
        hosted, keyring = self._hosted, self._keyring
        return QueryTranslator(
            tag_cipher=keyring.tag_cipher,
            ope=keyring.ope,
            encrypted_tags=hosted.encrypted_tags,
            plaintext_keys=hosted.plaintext_keys,
            field_plans=hosted.field_plans,
            field_tokens=hosted.field_tokens,
        )

    def _translate_uncached(
        self, query: "str | ast.LocationPath"
    ) -> TranslatedQuery:
        anchor = self._hosted.anchor()  # read first: the plan is as of it
        path = query if isinstance(query, ast.LocationPath) else parse_xpath(query)
        plan = plan_query(path)
        translated = self._translator().translate(plan.pattern)
        translated.plan_kind = plan.kind
        translated.plan_reason = plan.reason
        translated.path = path
        translated.anchor = anchor
        return translated

    # ------------------------------------------------------------------
    # Wire envelope (untrusted-server hardening)
    # ------------------------------------------------------------------
    def seal_request(
        self, translated: TranslatedQuery, cache_key: "str | None" = None
    ) -> bytes:
        """Encode and integrity-seal a translated query for the wire.

        A plan is sealed at the anchor it was made at, once: a repeated
        query hands back the same bytes object — same cached hash — which
        is what keeps the server's wire cache a single dict lookup.  A
        plan that a commit outdated before its seal therefore fails the
        server's freshness check, and the read's retry translates afresh.
        Asked again for a plan already sealed at an anchor that has since
        passed — a caller that keeps one plan across its attempts — the
        client makes the plan anew from its query: the bytes it holds can
        never verify again.  A plan the client did not make carries no
        anchor and is sealed at the live one each time.  ``cache_key`` is
        accepted and unused.
        """
        blob = translated.sealed
        if blob is not None:
            if translated.anchor[0] == self._hosted.epoch:
                return blob
            remake = (
                self.naive_plan if translated.plan_kind == "naive"
                else self._translate_uncached
            )
            return self.seal_request(remake(translated.path))
        payload = encode_query(translated)
        if translated.anchor is None:
            return self._hosted.seal(self._request_key, payload)[0]
        blob = translated.sealed = seal_fresh(
            self._request_key, payload, *translated.anchor
        )
        return blob

    def open_response(self, blob: bytes) -> ServerResponse:
        """Verify a sealed wire response and decode it.

        Raises :class:`~repro.core.integrity.TamperedResponseError` for
        *any* byte-level difference from what the server sealed — a
        flipped bit, a truncation, a wholesale substitution — before a
        single byte is parsed, and a
        :class:`~repro.core.integrity.FreshnessError` for a response
        sealed at any anchor but the live one.  Verified responses are
        cached by their sealed bytes, so the warm repeated-query path
        costs one dict lookup (the server hands back the identical bytes
        object).  Any other blob is unsealed first; a payload
        byte-identical to one verified this epoch or the one before is
        then answered with the response decoded from it — its size and
        digest already taken — instead of decoded again.

        Here, in :meth:`decrypt_fragments` and in :meth:`assemble` is
        where the client detects a failure, so that is where it counts.
        """
        cache = self._response_cache.live()
        cached = cache.get(blob)
        if cached is not None:
            return cached
        try:
            payload, epoch = self._hosted.unseal(
                self._response_key, blob, error=TamperedResponseError
            )
            # Taken out and put back under a view of *this* blob: the
            # kept key would otherwise hold the previous blob alive.
            kept = cache.pop((payload,), None)
            if kept is not None:
                response = kept[0]
            else:
                try:
                    response = decode_response(payload)
                except MessageDecodeError as exc:
                    raise TamperedResponseError(str(exc)) from exc
        except IntegrityError as exc:
            count_failure(exc)
            raise
        self._response_cache.store(blob, response, epoch)
        self._response_cache.store(
            (memoryview(blob)[FRESH_OVERHEAD:],), (response, epoch), epoch
        )
        return response

    # ------------------------------------------------------------------
    # Decryption (§6.4, first half)
    # ------------------------------------------------------------------
    def decrypt_fragments(
        self, response: ServerResponse
    ) -> list[tuple[Fragment, Element]]:
        """Fully decrypt and parse every shipped fragment.

        Each fragment becomes a plaintext element tree: ``EncryptedData``
        payloads are decrypted and spliced into the text, which is parsed
        once, without its decoys.  The response is one batch — every MAC
        tag is checked before the first cipher call, and all cache-missing
        payloads share one cipher pass.  Whatever shipped bytes can get
        wrong here raises :class:`TamperedResponseError`.
        """
        fragments = response.fragments
        trees = self._decrypt_batch([f.xml for f in fragments])
        return list(zip(fragments, trees))

    def decrypt_fragment(self, xml: str) -> Element:
        """Decrypt one shipped fragment: a batch of one."""
        return self._decrypt_batch([xml])[0]

    def _decrypt_batch(self, xmls: "list[str]") -> list[Element]:
        """Decrypted plaintext trees for shipped fragments, via the cache.

        The tree cache is keyed by the fragment's serialized text: the
        tree is a pure function of that text and the client's keys, and
        the server's own fragment cache hands back the identical string
        object for a repeated node, so the dict lookup reuses Python's
        cached string hash.  Assembly re-parents what it is handed, so a
        tree is either built for one caller or cloned from a pristine one
        — and most fragments of a cold read never come back, so the
        pristine one is not built until a text does:

        * first sight: the caller gets the parse itself, and the cache
          records the spliced plaintext it was parsed from (a ``str``:
          nothing built, nothing to clone);
        * second sight — the same new text twice in one response
          included: the recorded text is parsed into the pristine tree,
          which replaces it, and the caller gets a clone;
        * from then on: a clone.

        Either entry is kept with the ids of its blocks, which is what
        decides whether it outlives a write.
        """
        cache = self._tree_cache.live()
        #: texts without a pristine tree, a repeat as often as shipped
        treeless = [
            xml for xml in xmls
            if cache.get(xml, _UNSEEN)[0].__class__ is not Element
        ]
        #: text → its parse, for each text never seen before
        parsed = self._sight(treeless, cache) if treeless else {}
        hits = len(xmls) - len(parsed)
        if hits:
            count("tree_cache_hits", hits)
        if not parsed:
            return [cache[xml][0].clone() for xml in xmls]
        count("tree_cache_misses", len(parsed))
        trees = []
        for xml in xmls:
            tree = parsed.pop(xml, None)  # its first occurrence takes it
            trees.append(cache[xml][0].clone() if tree is None else tree)
        return trees

    def _sight(
        self, treeless: "list[str]", cache: "dict[str, tuple]"
    ) -> "dict[str, Element]":
        """Parse the texts that have no tree: a first sight into the tree
        returned for it, a second into the pristine tree ``cache`` keeps.

        Runs only when some text lacks a tree, so the span sits here: on
        a warm hit (one dict lookup) it would cost more than the work it
        measures.
        """
        shipped = Counter(treeless)
        first = [xml for xml in shipped if xml not in cache]
        # A new text shipped twice is a first and a second sight.
        second = [
            xml for xml, times in shipped.items() if xml in cache or times > 1
        ]
        with span("decrypt_batch", first=len(first), second=len(second)):
            try:
                return self._parse_sights(first, second, cache)
            except IntegrityError as exc:
                count_failure(exc)
                raise

    def _parse_sights(
        self, first: "list[str]", second: "list[str]", cache: "dict[str, tuple]"
    ) -> "dict[str, Element]":
        """splice every block's plaintext in → one parse per fragment."""
        try:
            texts, block_ids = self._splice_plaintexts(first)
            parsed = {
                xml: _parse_spliced(text) for xml, text in zip(first, texts)
            }
            # Nothing is recorded unless the whole batch parsed.
            cache.update(zip(first, zip(texts, block_ids)))
            for xml in second:
                text, ids = cache[xml]
                cache[xml] = (_parse_spliced(text), ids)
        except XMLParseError as exc:  # not text our serializer wrote
            raise TamperedResponseError(f"malformed fragment: {exc}") from exc
        return parsed

    def _splice_plaintexts(
        self, texts: "list[str]"
    ) -> "tuple[list[str], list[tuple[int, ...]]]":
        """The texts with every serialized block replaced by its plaintext,
        and the ids of the blocks each one held.

        scan → verify → one cipher pass → splice.  The block cache keeps,
        per block id, the payload whose MAC tag verified and its
        plaintext: a shipped payload byte-equal to the held one skips both
        the MAC and the cipher.  Any other payload is verified against the
        owner's ``block_tags`` before anything else happens, so a tampered
        payload is never masked by a cached plaintext, and one bad tag
        means no cipher call and no cache entry for the whole batch.
        Decoys stay in the text; the parse that follows drops them.

        An entry lasts until a write re-encrypts a payload under the
        *same* id: an epoch move drops the ids stamped since
        (``block_unwritten``, above).
        """
        scanned = [_BLOCK_RE.findall(text) for text in texts]
        if not any(scanned):
            return texts, [()] * len(texts)
        for text, blocks in zip(texts, scanned):
            # Inside a comment, CDATA section or processing instruction —
            # none of which the serializer writes — a block would be
            # spliced where the parse never looks for an element.
            if blocks and ("<!" in text or "<?" in text):
                raise TamperedResponseError(
                    "block shipped beside markup the serializer never emits"
                )
        try:
            parsed = [
                [
                    (int(block_id), bytes.fromhex(payload))
                    for block_id, payload in blocks
                ]
                for blocks in scanned
            ]
        except ValueError as exc:  # not hex, or an absurdly long id
            raise TamperedResponseError(f"malformed block: {exc}") from None
        occurrences = [occurrence for blocks in parsed for occurrence in blocks]
        # Gate before verifying: a commit that lands after a tag verified
        # must find these plaintexts in the old epoch's entries.
        cache = self._block_cache.live()
        tags = self._hosted.block_tags
        stamp_of = self._hosted.block_stamps.get
        block_tag = self._keyring.block_tag
        #: distinct ids shipped with a payload not held → (stamp, payload)
        wanted: dict[int, tuple[int | None, bytes]] = {}
        for block_id, payload in occurrences:
            if cache.get(block_id, _UNHELD)[0] == payload:
                continue
            if wanted.get(block_id, _UNHELD)[1] == payload:
                continue  # verified earlier in this batch
            # The write stamp is read before the tag, for the same reason:
            # a payload that then verifies is the one its stamp was kept
            # for, whatever commits afterwards.
            stamp = stamp_of(block_id)
            # The owner's own tag, never one a server sent; an id without
            # one is a block the owner never wrote.
            expected = tags.get(block_id)
            if expected is None or not _compare.compare_digest(
                block_tag(block_id, payload), expected
            ):
                raise TamperedResponseError(
                    f"block {block_id} failed integrity verification"
                )
            wanted[block_id] = (stamp, payload)

        hits = len(occurrences) - len(wanted)
        if hits:
            count("block_cache_hits", hits)
        if wanted:
            count("block_cache_misses", len(wanted))
            blocks = [
                (block_id, stamp, payload)
                for block_id, (stamp, payload) in wanted.items()
            ]
            cache.update(
                (block_id, (payload, plaintext))
                for (block_id, _, payload), plaintext
                in zip(blocks, self._decrypt_blocks(blocks))
            )
        plaintexts = [cache[block_id][1] for block_id, _ in occurrences]

        # A callable replacement: a plaintext is never read as a template.
        supply = iter(plaintexts)
        return [
            _BLOCK_RE.sub(lambda _: next(supply), text) if blocks else text
            for text, blocks in zip(texts, scanned)
        ], [tuple(block_id for block_id, _ in blocks) for blocks in parsed]

    def _decrypt_blocks(
        self, blocks: "list[tuple[int, int | None, bytes]]"
    ) -> list[str]:
        """derive IVs → one cipher pass → decode, for verified payloads.

        Each block is ``(id, write stamp, payload)``; id and stamp name
        the IV (``None``: the payload hosting wrote).
        """
        block_iv = self._keyring.block_iv
        secure = self._secure
        try:
            plaintexts = [
                plaintext.decode("utf-8")
                for plaintext in cbc_decrypt_many(
                    self._keyring.block_cipher,
                    [
                        (
                            block_iv(block_id, stamp) if secure else block_iv(0),
                            payload,
                        )
                        for block_id, stamp, payload in blocks
                    ],
                )
            ]
        except ValueError as exc:  # bad length, padding or UTF-8
            raise TamperedResponseError(f"undecryptable block: {exc}") from exc
        # A plaintext that itself holds blocks (the encryptor nests none
        # today) is resolved before anyone caches or splices it.  The outer
        # entry is kept under the outer id alone: an encryptor that nested
        # would have to stamp the outer block when it rewrites an inner one.
        nested = [
            slot for slot, plaintext in enumerate(plaintexts)
            if BLOCK_OPEN in plaintext
        ]
        resolved, _ = self._splice_plaintexts([plaintexts[s] for s in nested])
        for slot, plaintext in zip(nested, resolved):
            plaintexts[slot] = plaintext
        return plaintexts

    def flush_caches(self) -> None:
        """Drop every warm-path cache (plans, responses, blocks, trees,
        answers).

        Correctness never depends on the caches, so flushing is always
        safe; benchmarks use it to measure cold per-query costs.
        """
        for cache in self._caches:
            cache.clear()

    # ------------------------------------------------------------------
    # Post-processing (§6.4, second half)
    # ------------------------------------------------------------------
    def assemble(
        self, decrypted: list[tuple[Fragment, Element]]
    ) -> Document:
        """Rebuild a pruned plaintext document from decrypted fragments.

        Fragments re-attach under skeleton copies of their plaintext
        ancestor chains (merged by the server's stable ancestor ids), so
        absolute paths and depths in the original query keep their meaning.
        """
        whole_document = [
            root for fragment, root in decrypted if not fragment.ancestor_path
        ]
        if whole_document:
            # A fragment rooted at the document root subsumes everything.
            return Document(whole_document[0])

        pruned_root: Element | None = None
        skeleton: dict[int, Element] = {}
        for fragment, root in decrypted:
            path = fragment.ancestor_path
            top_tag, top_id = path[0]
            if pruned_root is None:
                pruned_root = Element(top_tag)
                skeleton[top_id] = pruned_root
            current = skeleton.get(top_id)
            if current is None:
                # One document has one root: the server shipped paths
                # that cannot all be true.
                failure = TamperedResponseError(
                    "fragments disagree on the document root"
                )
                count_failure(failure)
                raise failure
            for tag, ancestor_id in path[1:]:
                node = skeleton.get(ancestor_id)
                if node is None:
                    node = Element(tag)
                    skeleton[ancestor_id] = node
                    current.append(node)
                current = node
            current.append(root)
        if pruned_root is None:
            pruned_root = Element(self._root_tag)
        return Document(pruned_root)

    def post_process(
        self,
        query: "str | ast.LocationPath",
        pruned: Document,
    ) -> QueryAnswer:
        """Apply the original query to the pruned plaintext document."""
        return QueryAnswer(evaluate(pruned, query))

    def finish(
        self,
        xpath: str,
        query: ast.LocationPath,
        response: ServerResponse,
    ) -> QueryAnswer:
        """The answer to ``xpath`` on ``response``, verified at the live
        epoch: decrypt, assemble and evaluate — or fresh copies of the
        answer memoised for the pair.

        The answer is a function of the fragments that verified (each
        one's ancestor path and XML, ciphertext included) and the query,
        so the memo is keyed by the fragments' digest
        (:meth:`ServerResponse.content_digest`) and the XPath, and
        consulted only here, after :meth:`open_response`: every read
        still crosses the wire and verifies.  It keeps the answer nodes
        alone, never the pruned document, and follows the tree cache's
        sights:

        * first sight of a pair: the full pass, and the memo records only
          that the pair was seen (nothing copied);
        * second sight: the full pass, then detached copies of the answer
          nodes are kept;
        * from then on: a clone of each kept copy, inside the
          ``postprocess`` span — no decrypt, assemble or evaluate.

        Whatever a caller is handed is its own, so no caller's edits
        reach the memo or another caller.  A hit skips the block-tag
        check, so kept copies come with the ids of the blocks their
        fragments name, and outlive a commit only while each is live and
        unstamped since (``blocks_unwritten``): the payloads then still
        verify.  A write to plaintext structure changes the digest, and
        a server that replays a rewritten block finds no copies and
        meets the block-tag check.
        """
        epoch = self._hosted.epoch  # read first: the entry is as of it
        key = (response.content_digest(), xpath)
        stored = self._answer_memo.live().get(key, _UNSEEN)[0]
        if stored.__class__ is tuple:
            count("answer_memo_hits")
            with span("postprocess"):
                return QueryAnswer([node.clone() for node in stored])
        count("answer_memo_misses")
        with span("decrypt"):
            decrypted = self.decrypt_fragments(response)
        with span("postprocess"):
            with span("assemble"):
                pruned = self.assemble(decrypted)
            with span("evaluate"):
                answer = self.post_process(query, pruned)
            self._answer_memo.store(
                key,
                _FIRST_SIGHT if stored is None
                else (_detach(answer.nodes), _block_ids(response)),
                epoch,
            )
        return answer


def _detach(nodes: "list[Node]") -> "tuple[Node, ...]":
    """Parentless copies of answer nodes; a nested answer is the copy of
    itself inside its ancestor's, so each node is copied once."""
    copies: "dict[int, Node]" = {}
    detached = []
    for node in nodes:
        copy = copies.get(id(node))
        detached.append(node.clone(copies) if copy is None else copy)
    return tuple(detached)


def _block_ids(response: ServerResponse) -> frozenset[int]:
    """The ids of the blocks in a response's fragments — found by the
    scan that resolved them, so each one verified."""
    return frozenset(
        int(block_id)
        for fragment in response.fragments
        for block_id, _ in _BLOCK_RE.findall(fragment.xml)
    )


#: What the answer memo holds for a pair answered once: no copies, so
#: nothing that needs a block — a hit never reads it, and it may outlive
#: any commit.
_FIRST_SIGHT = ("seen", ())


def _parse_spliced(text: str) -> Element:
    """The tree of a fragment text whose blocks are spliced in: decoys
    left out, and no block element the scan did not resolve."""
    return parse_fragment(text, drop_tag=DECOY_TAG, reject_blocks=True)


#: What the tree cache holds for a text never shipped, and the answer
#: memo for a pair never answered: nothing.
_UNSEEN = (None,)

#: What the block cache holds for an id never verified: no payload.
_UNHELD = (None, None)

#: A block as the serializer writes it; ``bytes.fromhex`` judges the payload
#: (``[^<]*`` scans five times faster than a hex class).  Anything else that
#: claims to be a block is left for the parser to reject.
_BLOCK_RE = re.compile(
    re.escape(BLOCK_OPEN) + r'([0-9]+)">([^<]*)' + re.escape(BLOCK_CLOSE)
)
