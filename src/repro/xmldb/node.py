"""Tree node classes for the XML document model.

The model follows the paper's conventions:

* data values are attached only to leaves (paper footnote 1) — a leaf value
  is a :class:`Text` node that is the single child of its element;
* attributes are first-class leaf-like nodes (:class:`Attribute`) so that the
  attribute axis (``@coverage``) participates in encryption schemes, DSI
  indexing and OPESS exactly like leaf elements do;
* a hosted (partially encrypted) database is an ordinary tree in which some
  subtrees have been replaced by :class:`EncryptedBlockNode` placeholders
  that carry the ciphertext and the block id referenced by the server-side
  encryption block table.

Nodes know their parent and their ordinal position, which makes the axes
needed by the XPath engine (following-sibling, ancestor, ...) cheap to
compute without auxiliary indexes.
"""

from __future__ import annotations

from typing import Iterator, Optional

#: The ``attributes`` of every element that has none.
_NO_ATTRIBUTES: tuple = ()


class Node:
    """Base class for every node in a document tree.

    Concrete subclasses are :class:`Element`, :class:`Text`,
    :class:`Attribute` and :class:`EncryptedBlockNode`.  The base class
    implements the parent bookkeeping and the traversal helpers shared by
    all of them; each subclass constructor sets ``parent`` to ``None`` and
    ``node_id`` to ``-1``.
    """

    __slots__ = ("parent", "node_id")

    parent: Optional[Node]
    #: Document-order identifier, assigned by :meth:`Document.renumber`.
    #: ``-1`` until the node is attached to a numbered document.
    node_id: int
    #: A leaf's children: one shared empty tuple, so that a leaf is one
    #: object to the cyclic collector, which alone frees a tree (``parent``
    #: makes it cyclic).  :class:`Element` owns a list instead.
    children: "list[Node] | tuple[()]" = ()

    # ------------------------------------------------------------------
    # Structure mutation
    # ------------------------------------------------------------------
    def append(self, child: "Node") -> "Node":
        """Leaves have no children: only :meth:`Element.append` attaches."""
        raise ValueError(f"a {type(self).__name__} node cannot have children")

    def insert(self, index: int, child: "Node") -> "Node":
        """Leaves have no children: only :meth:`Element.insert` attaches."""
        raise ValueError(f"a {type(self).__name__} node cannot have children")

    def detach(self) -> "Node":
        """Remove this node from its parent and return it."""
        if self.parent is None:
            return self
        self.parent.children.remove(self)
        self.parent = None
        return self

    def replace_with(self, other: "Node") -> "Node":
        """Swap this node for ``other`` in the parent's child list."""
        if self.parent is None:
            raise ValueError("cannot replace the root of a tree")
        if other.parent is not None:
            raise ValueError("replacement node already has a parent")
        parent = self.parent
        index = parent.children.index(self)
        parent.children[index] = other
        other.parent = parent
        self.parent = None
        return other

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    @property
    def child_index(self) -> int:
        """Position of this node among its siblings (0-based)."""
        if self.parent is None:
            return 0
        return self.parent.children.index(self)

    @property
    def depth(self) -> int:
        """Number of ancestors between this node and the root."""
        count = 0
        node = self.parent
        while node is not None:
            count += 1
            node = node.parent
        return count

    def ancestors(self) -> Iterator["Node"]:
        """Yield ancestors from the parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def is_ancestor_of(self, other: "Node") -> bool:
        """Return True if ``other`` is a strict descendant of this node."""
        return any(ancestor is self for ancestor in other.ancestors())

    def iter(self) -> Iterator["Node"]:
        """Yield this node and all descendants in document (pre-) order."""
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendants(self) -> Iterator["Node"]:
        """Yield strict descendants in document order."""
        iterator = self.iter()
        next(iterator)  # skip self
        yield from iterator

    def following_siblings(self) -> Iterator["Node"]:
        """Yield siblings strictly after this node, in document order."""
        if self.parent is None:
            return
        seen_self = False
        for sibling in self.parent.children:
            if seen_self:
                yield sibling
            elif sibling is self:
                seen_self = True

    def preceding_siblings(self) -> Iterator["Node"]:
        """Yield siblings strictly before this node, in reverse order."""
        if self.parent is None:
            return
        before: list[Node] = []
        for sibling in self.parent.children:
            if sibling is self:
                break
            before.append(sibling)
        yield from reversed(before)

    # ------------------------------------------------------------------
    # Content helpers
    # ------------------------------------------------------------------
    @property
    def is_leaf_element(self) -> bool:
        """True for an element whose only child is a text node."""
        return (
            isinstance(self, Element)
            and len(self.children) == 1
            and isinstance(self.children[0], Text)
        )

    def text_value(self) -> Optional[str]:
        """The data value of a leaf element/attribute, or None.

        For an :class:`Attribute` this is the attribute value; for a leaf
        element it is the text content; for anything else it is None.
        """
        if isinstance(self, Attribute):
            return self.value
        if isinstance(self, Text):
            return self.value
        if self.is_leaf_element:
            child = self.children[0]
            assert isinstance(child, Text)
            return child.value
        return None

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted at this node (incl. self)."""
        return sum(1 for _ in self.iter())

    def clone(self, _map: "Optional[dict[int, Node]]" = None) -> "Node":
        """Deep-copy the subtree rooted at this node (parent left unset).

        ``_map`` (optional) is filled with ``id(original) -> copy`` for
        every node in the subtree, attributes included.
        """
        raise NotImplementedError


class Element(Node):
    """An XML element: a tag, attribute children and element/text children.

    Attributes are stored in :attr:`attributes` (document order preserved)
    and are *not* part of :attr:`Node.children`; the XPath attribute axis and
    the encryption machinery reach them through :meth:`attribute` /
    :attr:`attributes`.
    """

    __slots__ = ("tag", "attributes", "children")

    def __init__(self, tag: str) -> None:
        if not tag:
            raise ValueError("element tag must be non-empty")
        self.parent = None
        self.node_id = -1
        self.tag = tag
        #: A list once the element has an attribute, else the shared ``()``.
        self.attributes: "list[Attribute] | tuple[()]" = _NO_ATTRIBUTES
        self.children: list[Node] = []

    def append(self, child: Node) -> Node:
        """Attach ``child`` as the last child of this node and return it."""
        if child.parent is not None:
            raise ValueError("node already has a parent; detach it first")
        child.parent = self
        self.children.append(child)
        return child

    def insert(self, index: int, child: Node) -> Node:
        """Attach ``child`` at position ``index`` among the children."""
        if child.parent is not None:
            raise ValueError("node already has a parent; detach it first")
        child.parent = self
        self.children.insert(index, child)
        return child

    def set_attribute(self, name: str, value: str) -> "Attribute":
        """Set (or overwrite) an attribute and return its node."""
        for attribute in self.attributes:
            if attribute.name == name:
                attribute.value = value
                return attribute
        attribute = Attribute(name, value)
        attribute.parent = self
        if self.attributes:
            self.attributes.append(attribute)
        else:
            self.attributes = [attribute]
        return attribute

    def attribute(self, name: str) -> Optional["Attribute"]:
        """Look up an attribute node by name."""
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        return None

    def remove_attribute(self, name: str) -> None:
        """Delete an attribute if present."""
        kept = [a for a in self.attributes if a.name != name]
        self.attributes = kept or _NO_ATTRIBUTES

    def find_elements(self, tag: str) -> Iterator["Element"]:
        """Yield descendant-or-self elements with the given tag."""
        for node in self.iter():
            if isinstance(node, Element) and node.tag == tag:
                yield node

    def clone(self, _map: "Optional[dict[int, Node]]" = None) -> "Element":
        # Direct: the copies are fresh, so neither ``set_attribute``'s name
        # scan nor ``append``'s parent check has anything to find.
        copy = Element(self.tag)
        if self.attributes:
            copy.attributes = [a.clone(_map) for a in self.attributes]
            for attribute in copy.attributes:
                attribute.parent = copy
        children = copy.children
        for child in self.children:
            child_copy = child.clone(_map)
            child_copy.parent = copy
            children.append(child_copy)
        if _map is not None:
            _map[id(self)] = copy
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Element {self.tag!r} children={len(self.children)}>"


class Text(Node):
    """A text leaf carrying a data value."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.parent = None
        self.node_id = -1
        self.value = value

    def clone(self, _map: "Optional[dict[int, Node]]" = None) -> "Text":
        copy = Text(self.value)
        if _map is not None:
            _map[id(self)] = copy
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Text {self.value!r}>"


class Attribute(Node):
    """An attribute node; behaves like a named leaf for query purposes."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str) -> None:
        if not name:
            raise ValueError("attribute name must be non-empty")
        self.parent = None
        self.node_id = -1
        self.name = name
        self.value = value

    def clone(self, _map: "Optional[dict[int, Node]]" = None) -> "Attribute":
        copy = Attribute(self.name, self.value)
        if _map is not None:
            _map[id(self)] = copy
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Attribute {self.name}={self.value!r}>"


class EncryptedBlockNode(Node):
    """Placeholder for an encrypted subtree in a hosted database.

    The plaintext subtree is serialized, encrypted and stored as
    :attr:`payload`; the server addresses the block through
    :attr:`block_id`, which is also the key of the encryption block table.
    The placeholder keeps no plaintext information beyond the byte length of
    the ciphertext — which is exactly what the paper's size-based attacker
    is allowed to see.
    """

    __slots__ = ("block_id", "payload")

    def __init__(self, block_id: int, payload: bytes) -> None:
        self.parent = None
        self.node_id = -1
        self.block_id = block_id
        self.payload = payload

    def clone(
        self, _map: "Optional[dict[int, Node]]" = None
    ) -> "EncryptedBlockNode":
        copy = EncryptedBlockNode(self.block_id, self.payload)
        if _map is not None:
            _map[id(self)] = copy
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EncryptedBlock id={self.block_id} bytes={len(self.payload)}>"


def iter_encrypted_blocks(node: Node) -> Iterator[EncryptedBlockNode]:
    """Yield every :class:`EncryptedBlockNode` in ``node``'s subtree.

    Includes ``node`` itself when it is a block placeholder, in document
    (pre-) order.  The access-pattern trace recorder reads a shipped
    subtree's blocks through this; the server's ``blocks_shipped`` and the
    client's scan count ``serializer.BLOCK_OPEN`` in the serialized text,
    and must find the same set or the leakage harness keys off a lie.
    """
    for candidate in node.iter():
        if isinstance(candidate, EncryptedBlockNode):
            yield candidate


class DocumentOrder:
    """Pre-order geometry of one tree: every subtree is one rank range.

    ``elements[r]`` is the element of document-order rank ``r``,
    ``ends[r]`` the rank of the last element in its subtree and
    ``rank(element)`` the inverse of ``elements``.  The descendants of an
    element are therefore ``elements[r + 1 : ends[r] + 1]``, what follows
    it ``elements[ends[r] + 1 :]`` and what precedes it ``elements[:r]``
    less its ancestors — the interval geometry the server evaluates on DSI
    labels (§5.1), which is what lets the XPath evaluator answer a whole
    context set with one slice.

    Only elements are ranked: no name test selects anything else, and an
    attribute stands where its owner does.  Ranks come from walking the
    tree, not from ``node_id``, so absent or stale numbering cannot make
    them wrong.
    """

    __slots__ = ("elements", "ends", "_ranks")

    def __init__(self, root: Node) -> None:
        elements: list[Element] = []
        ends: list[int] = []
        ranks: dict[int, int] = {}
        # An int on the stack closes the subtree of the element of that rank.
        stack: list = [root]
        while stack:
            node = stack.pop()
            if node.__class__ is int:
                ends[node] = len(elements) - 1
            elif isinstance(node, Element):
                rank = len(elements)
                ranks[id(node)] = rank
                elements.append(node)
                ends.append(rank)
                if node.children:
                    stack.append(rank)
                    stack.extend(reversed(node.children))
        self.elements = elements
        self.ends = ends
        self._ranks = ranks

    def rank(self, element: Node) -> int:
        """Document-order rank of an element of this tree."""
        return self._ranks[id(element)]


class Document:
    """A rooted XML document with stable document-order node numbering.

    The document wraps a single root :class:`Element` and assigns every node
    (elements, text and attributes) a ``node_id`` in document order.  The DSI
    index, the encryption block table and the test oracles all key on these
    ids, so :meth:`renumber` must be called after structural mutation — the
    mutating helpers in :mod:`repro.core.encryptor` do this for you.
    """

    __slots__ = ("root", "_nodes_by_id", "_order")

    def __init__(self, root: Element) -> None:
        if not isinstance(root, Element):
            raise TypeError("document root must be an Element")
        self.root = root
        self._nodes_by_id: dict[int, Node] = {}
        self.renumber()

    def renumber(self) -> None:
        """(Re)assign document-order node ids to the whole tree."""
        self._order: Optional[DocumentOrder] = None
        self._nodes_by_id.clear()
        counter = 0
        for node in self.iter_with_attributes():
            node.node_id = counter
            self._nodes_by_id[counter] = node
            counter += 1

    def iter_with_attributes(self) -> Iterator[Node]:
        """Yield all nodes in document order, attributes after their owner."""
        stack: list[Node] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                yield from node.attributes
            stack.extend(reversed(node.children))

    def node_by_id(self, node_id: int) -> Node:
        """Resolve a document-order id back to its node."""
        return self._nodes_by_id[node_id]

    def order(self) -> DocumentOrder:
        """The tree's :class:`DocumentOrder`, built on first use.

        Kept until the next :meth:`renumber` — which structural mutation
        must be followed by anyway — so a document that is only ever asked
        child paths never builds it.
        """
        if self._order is None:
            self._order = DocumentOrder(self.root)
        return self._order

    def size(self) -> int:
        """Total number of nodes (elements + text + attributes)."""
        return len(self._nodes_by_id)

    def elements(self) -> Iterator[Element]:
        """Yield all elements in document order."""
        for node in self.iter_with_attributes():
            if isinstance(node, Element):
                yield node

    def leaves(self) -> Iterator[Node]:
        """Yield every value-bearing leaf: leaf elements and attributes."""
        for node in self.iter_with_attributes():
            if isinstance(node, Attribute) or node.is_leaf_element:
                yield node

    def clone(
        self, _map: "Optional[dict[int, Node]]" = None
    ) -> "Document":
        """Deep-copy the document (fresh numbering, same order)."""
        return Document(self.root.clone(_map))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Document root={self.root.tag!r} nodes={self.size()}>"
