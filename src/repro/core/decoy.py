"""Encryption decoys (§4.1).

"For an element e, an encryption decoy is a randomly generated data value d
that is added as a child of e and then e and d are encrypted together."
The decoy is the paper's salt: it guarantees that two equal plaintext
subtrees encrypt to *distinct* ciphertexts, defeating the frequency-based
attack on the encrypted database itself (the two ``diarrhea`` leaves of
Figure 2 get decoys ``xyya`` and ``atrw`` and become unrelated ciphertexts).

A decoy is represented as a reserved-tag child element
(``__decoy__``) holding the random value.  The reserved tag lives only
*inside* ciphertext payloads — the server never sees it — and is how the
client recognizes decoys during post-processing (§6.4: "If there exists the
encryption decoy, the decoy is removed"): its one parse of a decrypted
fragment leaves elements of this tag out of the tree.
"""

from __future__ import annotations

from repro.xmldb.node import Document, Element, Text
from repro.crypto.prf import DeterministicRandom

#: Reserved tag for decoy children.  Never appears in user data (validated
#: at hosting time) and never leaves the client in plaintext.
DECOY_TAG = "__decoy__"


def inject_decoys(block_root: Element, stream: DeterministicRandom) -> int:
    """Add a decoy child to every leaf element in the block subtree.

    Implements Theorem 4.1 condition (iii): "every leaf element that is
    encrypted is encrypted with a decoy".  A block whose subtree has no
    value leaves still receives one decoy at the root so that structurally
    identical blocks cannot be matched by ciphertext equality.  Returns the
    number of decoys injected.
    """
    leaf_elements = [
        node
        for node in block_root.iter()
        if isinstance(node, Element) and node.is_leaf_element
    ]
    count = 0
    for leaf in leaf_elements:
        leaf.append(_make_decoy(stream))
        count += 1
    if count == 0:
        block_root.append(_make_decoy(stream))
        count = 1
    return count


def _make_decoy(stream: DeterministicRandom) -> Element:
    decoy = Element(DECOY_TAG)
    length = stream.randint(4, 8)
    decoy.append(Text(stream.token(length)))
    return decoy


def assert_no_reserved_tags(document: Document) -> None:
    """Refuse to host data that already uses the reserved decoy tag."""
    for element in document.elements():
        if element.tag == DECOY_TAG:
            raise ValueError(
                f"input data uses the reserved tag {DECOY_TAG!r}; "
                "rename that element before hosting"
            )
