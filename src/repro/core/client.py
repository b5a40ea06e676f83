"""The client / data owner (§6.1, §6.4).

The client owns the master key and the OPESS plans.  Its two runtime jobs:

* **translate** a plaintext XPath query into the encrypted ``Qs`` — compile
  the twig, swap encrypted tags for Vernam tokens, rewrite value predicates
  into ciphertext key ranges (Figure 7);
* **post-process** the server's fragments — decrypt blocks, strip decoys,
  rebuild a pruned document in the original shape, and re-run the original
  query on it, which restores exactness (``Q(δ(Qs(η(D)))) = Q(D)``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import hmac as _compare
import re

from repro.core.decoy import DECOY_TAG
from repro.core.encryptor import HostedDatabase
from repro.core.epoch_cache import EpochCache
from repro.core.integrity import (
    IntegrityError,
    TamperedResponseError,
    count_failure,
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
from repro.xpath.compiler import UnsupportedQuery
from repro.xpath.evaluator import evaluate
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import QueryPlan, plan_query


@dataclass
class QueryAnswer:
    """The final, exact answer to a query."""

    nodes: list[Node]
    pruned_document: Document

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
    else's.  Everything it derives from hosted state, the translator's
    view of the tags and OPESS plans included, sits in an
    :class:`EpochCache` read off ``hosted.epoch``, so a commit made
    through any handle invalidates it without any call into the client.
    Verified payloads, block plaintexts and decrypted trees outlive a
    commit that did not rewrite their blocks — judged by the owner's own
    ``block_tags`` / ``block_stamps``, never by anything a server sent.
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

        def cache(bounded: bool = False, survives=None) -> EpochCache:
            return EpochCache(
                lambda: hosted.epoch, self._caches, bounded, survives
            )

        def block_unwritten(block_id: int, _cached, since: int) -> bool:
            """Is this block the one the owner held at epoch ``since``?

            By the owner's own record alone: a live block has a tag, and
            a write that re-encrypts one stamps it with the epoch it
            commits as.  Ids are never reused, so a deleted block fails
            for good; a hosting without tags keeps nothing.  (A closure
            over ``hosted``, like the epoch reads: a bound method would
            tie client and caches into a cycle only the collector frees.)
            """
            return (
                block_id in hosted.block_tags
                and hosted.block_stamps.get(block_id, 0) <= since
            )

        def tree_unwritten(_text: str, entry, since: int) -> bool:
            return all(
                block_unwritten(block_id, None, since) for block_id in entry[1]
            )

        #: the one :class:`QueryTranslator` of this epoch
        self._translator_cache = cache()
        #: XPath string → translated plan
        self._plan_cache = cache(bounded=True)
        #: XPath string → sealed request bytes
        self._request_cache = cache(bounded=True)
        #: sealed response bytes → verified, decoded response
        self._response_cache = cache(bounded=True)
        #: block id → the ciphertext payload whose MAC tag verified
        self._verified_payloads = cache(survives=block_unwritten)
        #: block id → plaintext text
        self._block_cache = cache(survives=block_unwritten)
        #: fragment text → (pristine decrypted tree, ids of its blocks) —
        #: or, for a text shipped once so far, (spliced plaintext, ids)
        self._tree_cache = cache(survives=tree_unwritten)

    # ------------------------------------------------------------------
    # Query translation (§6.1)
    # ------------------------------------------------------------------
    def translate(self, query: "str | ast.LocationPath") -> TranslatedQuery:
        """Translate a query to its server-side plan.

        Every parseable query gets one: the axis lowering, or the
        residual document-root plan (``TranslatedQuery.plan_kind``
        records which, and ``plan_reason`` why).  String queries hit the
        plan cache first: a repeated XPath under an unchanged scheme
        epoch reuses the previously translated ``Qs`` without re-deriving
        tokens or key ranges.
        """
        if not isinstance(query, str):
            return self._translate_uncached(query)
        epoch = self._hosted.epoch  # read first: the plan is as of it
        plan = self._plan_cache.live().get(query)
        if plan is None:
            count("plan_cache_misses")
            plan = self._translate_uncached(query)
            self._plan_cache.store(query, plan, epoch)
        else:
            count("plan_cache_hits")
        return plan

    def _translator(self) -> QueryTranslator:
        """The translator over the hosting's tags and OPESS plans as they
        stand; a write re-plans its field, so it lasts one epoch."""
        cached = self._translator_cache.live()
        translator = cached.get("translator")
        if translator is None:
            hosted, keyring = self._hosted, self._keyring
            translator = cached["translator"] = QueryTranslator(
                tag_cipher=keyring.tag_cipher,
                ope=keyring.ope,
                encrypted_tags=set(hosted.encrypted_tags),
                plaintext_keys=set(hosted.plaintext_keys),
                field_plans=dict(hosted.field_plans),
                field_tokens=dict(hosted.field_tokens),
            )
        return translator

    def _translate_uncached(
        self, query: "str | ast.LocationPath"
    ) -> TranslatedQuery:
        path = query if isinstance(query, ast.LocationPath) else parse_xpath(query)
        plan = plan_query(path)
        translator = self._translator()
        try:
            translated = translator.translate(plan.pattern)
        except UnsupportedQuery as exc:
            if plan.kind == "residual":
                raise  # the residual pattern always translates
            # e.g. a value constraint on a wildcard node: degrade to the
            # residual plan rather than the naive protocol.
            plan = QueryPlan(
                kind="residual",
                pattern=residual_pattern(),
                reason=str(exc),
            )
            translated = translator.translate(plan.pattern)
        translated.plan_kind = plan.kind
        translated.plan_reason = plan.reason
        translated.path = path
        return translated

    # ------------------------------------------------------------------
    # Wire envelope (untrusted-server hardening)
    # ------------------------------------------------------------------
    def seal_request(
        self, translated: TranslatedQuery, cache_key: str | None = None
    ) -> bytes:
        """Encode and integrity-seal a translated query for the wire.

        ``cache_key`` (the original XPath string) lets a repeated query
        reuse its sealed bytes — same object, same cached hash — which is
        what keeps the server's wire cache a single dict lookup.
        """
        seal, key = self._hosted.seal, self._request_key
        if cache_key is None:
            return seal(key, encode_query(translated))[0]
        blob = self._request_cache.live().get(cache_key)
        if blob is None:
            blob, epoch = seal(key, encode_query(translated))
            self._request_cache.store(cache_key, blob, epoch)
        return blob

    def seal_naive_request(self, xpath: str) -> bytes:
        """Seal the opaque naive-path request (the raw query string)."""
        return self._hosted.seal(self._request_key, xpath.encode("utf-8"))[0]

    def open_response(self, blob: bytes) -> ServerResponse:
        """Verify a sealed wire response and decode it.

        Raises :class:`~repro.core.integrity.TamperedResponseError` for
        *any* byte-level difference from what the server sealed — a
        flipped bit, a truncation, a wholesale substitution — before a
        single byte is parsed.  Verified responses are cached by their
        sealed bytes, so the warm repeated-query path costs one dict
        lookup (the server hands back the identical bytes object).

        Here, in :meth:`decrypt_fragments` and in :meth:`assemble` is
        where the client detects a failure, so that is where it counts.
        """
        cached = self._response_cache.live().get(blob)
        if cached is not None:
            return cached
        try:
            payload, epoch = self._hosted.unseal(
                self._response_key, blob, error=TamperedResponseError
            )
            try:
                response = decode_response(payload)
            except MessageDecodeError as exc:
                raise TamperedResponseError(str(exc)) from exc
        except IntegrityError as exc:
            count_failure(exc)
            raise
        if not response.naive:
            # Naive responses hold the whole database as live fragment
            # objects; pinning one per scheme bloats the heap (and the
            # naive path is the cost baseline — it should stay honest).
            self._response_cache.store(blob, response, epoch)
        return response

    def _verify_blocks(self, blocks: "list[tuple[int, bytes]]") -> None:
        """Check ciphertext payloads against their encrypt-then-MAC tags.

        The expected tag comes from the client's *own* hosted-state
        knowledge (``hosted.block_tags``), never from the response, so a
        server cannot strip or substitute tags.  An id without a tag is a
        block the owner never wrote — on every hosting, one with no
        blocks included.
        """
        tags = self._hosted.block_tags
        verified = self._verified_payloads.live()
        for block_id, payload in blocks:
            if verified.get(block_id) == payload:
                continue
            expected = tags.get(block_id)
            if expected is None or not _compare.compare_digest(
                self._keyring.block_tag(block_id, payload), expected
            ):
                raise TamperedResponseError(
                    f"block {block_id} failed integrity verification"
                )
            verified[block_id] = payload

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

        scan → verify → one cipher pass → splice.  Every MAC tag is
        verified before anything else happens — cache hits included, so a
        tampered payload is never masked by a stale cached plaintext, and
        one bad tag means no cipher call and no cache entry for the whole
        batch.  Decoys stay in the text; the parse that follows drops them.

        The block cache keeps one plaintext string per block id, until a
        write re-encrypts a payload under the *same* id: an epoch move
        drops the ids stamped since (``block_unwritten``, above).
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
        #: distinct cache-missing ids; a repeated id keeps its first payload
        wanted: dict[int, bytes] = {}
        for block_id, payload in occurrences:
            if block_id not in cache:
                wanted.setdefault(block_id, payload)
        # Write stamps are read before the tags verify, for the same
        # reason: a payload that then verifies is the one its stamp was
        # kept for, whatever commits afterwards.
        stamp_of = self._hosted.block_stamps.get
        stamped = [
            (block_id, stamp_of(block_id), payload)
            for block_id, payload in wanted.items()
        ]
        self._verify_blocks(occurrences)

        hits = len(occurrences) - len(wanted)
        if hits:
            count("block_cache_hits", hits)
        if wanted:
            count("block_cache_misses", len(wanted))
            cache.update(zip(wanted, self._decrypt_blocks(stamped)))
        plaintexts = [cache[block_id] for block_id, _ in occurrences]

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
        """Drop every warm-path cache (plans, trees, blocks, wire blobs).

        Correctness never depends on the caches, so flushing is always
        safe; benchmarks use it to measure cold per-query costs.
        """
        for cache in self._caches:
            cache.clear()
        # The keyring memoizes per-block IV derivations; a "cold" query
        # that skipped those HMACs was not actually cold (found by the
        # flush-coverage audit; see tests/test_cache_invalidation.py).
        # They are a function of key, block id and write stamp alone, so
        # an epoch move keeps them: only this explicit flush drops them.
        self._keyring.flush_memoized()

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
        nodes = evaluate(pruned, query)
        return QueryAnswer(nodes=nodes, pruned_document=pruned)


def _parse_spliced(text: str) -> Element:
    """The tree of a fragment text whose blocks are spliced in: decoys
    left out, and no block element the scan did not resolve."""
    return parse_fragment(text, drop_tag=DECOY_TAG, reject_blocks=True)


#: What the tree cache holds for a text never shipped: no tree.
_UNSEEN = (None,)

#: A block as the serializer writes it; ``bytes.fromhex`` judges the payload
#: (``[^<]*`` scans five times faster than a hex class).  Anything else that
#: claims to be a block is left for the parser to reject.
_BLOCK_RE = re.compile(
    re.escape(BLOCK_OPEN) + r'([0-9]+)">([^<]*)' + re.escape(BLOCK_CLOSE)
)
