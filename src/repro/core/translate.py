"""Client-side query translation (§6.1, Figure 7).

The client turns a plaintext XPath query into the encrypted query ``Qs``
sent to the server: tags that appear inside encryption blocks are replaced
by their Vernam tokens ("with the same keys used for the construction of
[the] DSI index table"), and every value predicate on an encrypted field is
rewritten into one or more ciphertext key ranges using the OPESS plan
(Figure 7a).  The structure of the query — the twig — is preserved.

A tag can occur both inside and outside blocks (e.g. ``disease`` under the
``sub`` scheme where only some subtrees are encrypted); translated nodes
therefore carry a *set* of lookup keys.  The plaintext tag is included only
when plaintext occurrences exist — a purely-encrypted tag never crosses the
wire in the clear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.opess import FieldPlan, KeyRange, translate_predicate
from repro.crypto.ope import OrderPreservingEncryption
from repro.crypto.vernam import DeterministicTagCipher
from repro.xpath import ast
from repro.xpath.compiler import PatternNode, PatternTree, UnsupportedQuery


@dataclass
class TranslatedNode:
    """One pattern node of the encrypted query ``Qs``."""

    #: DSI-table lookup keys; empty tuple = wildcard (match any entry)
    keys: tuple[str, ...]
    axis: str
    children: list["TranslatedNode"] = field(default_factory=list)
    #: ciphertext key ranges for the value constraint (encrypted side)
    value_ranges: Optional[list[KeyRange]] = None
    #: value-index field to consult for the ranges (the encrypted field name)
    value_field_token: Optional[str] = None
    #: (op, literal) for plaintext occurrences of the constrained field
    plaintext_predicate: Optional[tuple[str, str]] = None
    is_output: bool = False
    is_shipped: bool = False
    #: the source step carried a positional predicate: the matchers must
    #: not prune this node's own candidate list bottom-up (the client
    #: needs the complete per-parent list to resolve ``[n]``/``last()``)
    position_sensitive: bool = False

    @property
    def is_wildcard(self) -> bool:
        return not self.keys

    @property
    def has_value_constraint(self) -> bool:
        return self.value_ranges is not None or self.plaintext_predicate is not None

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def wire_size(self) -> int:
        """Approximate serialized size in bytes (for channel accounting)."""
        size = sum(len(key) for key in self.keys) + len(self.axis) + 8
        if self.value_ranges is not None:
            size += 16 * len(self.value_ranges)
        if self.value_field_token:
            size += len(self.value_field_token)
        if self.plaintext_predicate:
            size += len(self.plaintext_predicate[0]) + len(
                self.plaintext_predicate[1]
            )
        return size + sum(child.wire_size() for child in self.children)


@dataclass
class TranslatedQuery:
    """The encrypted query ``Qs``: a translated pattern tree."""

    root: TranslatedNode
    output: TranslatedNode
    #: the server ships the union of these nodes' surviving matches
    ship_nodes: list[TranslatedNode]
    #: which lowering produced this plan ("axis" | "residual");
    #: client-side metadata only — it never crosses the wire
    plan_kind: str = "axis"
    #: why the query needs the residual plan, for explain/tracing
    plan_reason: Optional[str] = None
    #: the parsed query the plan was built from, which the client
    #: re-evaluates on the pruned document; client-side metadata only
    path: Optional[ast.LocationPath] = None
    #: the ``(epoch, state root)`` the client read before it read any of
    #: the hosted state the plan derives from: the one anchor the plan is
    #: sealed at, so a plan that outlived its epoch fails freshness
    #: instead of being evaluated against a newer index; client-side only
    anchor: Optional[tuple[int, bytes]] = field(
        default=None, compare=False, repr=False
    )
    #: the plan's sealed request bytes, once sealed; client-side only
    sealed: Optional[bytes] = field(default=None, compare=False, repr=False)

    def wire_size(self) -> int:
        return self.root.wire_size()


class QueryTranslator:
    """The client knowledge needed to translate queries: the hosting's
    own tag sets and OPESS plans, read as they stand while one plan is
    made (a write re-plans its field and may add a tag)."""

    def __init__(
        self,
        tag_cipher: DeterministicTagCipher,
        ope: OrderPreservingEncryption,
        encrypted_tags: set[str],
        plaintext_keys: set[str],
        field_plans: dict[str, FieldPlan],
        field_tokens: dict[str, str],
    ) -> None:
        self._tag_cipher = tag_cipher
        self._ope = ope
        self._encrypted_tags = encrypted_tags
        self._plaintext_keys = plaintext_keys
        self._field_plans = field_plans
        self._field_tokens = field_tokens

    def translate(self, pattern: PatternTree) -> TranslatedQuery:
        """Translate a compiled pattern into the encrypted query."""
        if len(pattern.roots) != 1:
            raise UnsupportedQuery("pattern must have a single root")
        mapping: dict[int, TranslatedNode] = {}
        root = self._translate_node(pattern.roots[0], mapping)
        ships = [mapping[id(node)] for node in pattern.ship_nodes]
        for ship in ships:
            ship.is_shipped = True
        return TranslatedQuery(
            root=root, output=mapping[id(pattern.output)], ship_nodes=ships
        )

    def _translate_node(
        self, node: PatternNode, mapping: dict[int, "TranslatedNode"]
    ) -> TranslatedNode:
        translated = TranslatedNode(
            keys=self._translate_test(node.test),
            axis=node.axis,
            is_output=node.is_output,
            position_sensitive=node.position_sensitive,
        )
        if node.value_constraint is not None:
            self._translate_constraint(node, translated)
        mapping[id(node)] = translated
        for child in node.children:
            translated.children.append(self._translate_node(child, mapping))
        return translated

    def _translate_test(self, test: str) -> tuple[str, ...]:
        if test in ("*", "@*"):
            return ()
        keys: list[str] = []
        if test in self._plaintext_keys:
            keys.append(test)
        if test in self._encrypted_tags:
            keys.append(self._tag_cipher.encrypt_tag(test))
        if not keys:
            # Unknown tag: send it in the clear; the lookup will miss.  A
            # tag absent from the data reveals nothing sensitive.
            keys.append(test)
        return tuple(keys)

    def _translate_constraint(
        self, node: PatternNode, translated: TranslatedNode
    ) -> None:
        assert node.value_constraint is not None
        op, literal = node.value_constraint
        field_name = node.test
        plan = self._field_plans.get(field_name)
        if plan is not None:
            translated.value_ranges = translate_predicate(
                plan, op, literal, self._ope
            )
            translated.value_field_token = self._field_tokens[field_name]
        if field_name in self._plaintext_keys:
            # Plaintext occurrences exist; their values are public on the
            # server already, so a clear predicate gives nothing away that
            # the hosted data doesn't.
            translated.plaintext_predicate = (op, literal)
        if plan is None and field_name not in self._plaintext_keys:
            # Constraint on a field with no data: nothing can match.
            translated.value_ranges = []
            translated.value_field_token = self._tag_cipher.encrypt_tag(
                field_name
            )

