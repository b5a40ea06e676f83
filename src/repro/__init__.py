"""repro — Efficient secure query evaluation over encrypted XML databases.

A from-scratch reproduction of Wang & Lakshmanan, VLDB 2006.  The package is
organised as a stack of substrates with the paper's contribution on top:

``repro.xmldb``
    An XML document model (tree of :class:`~repro.xmldb.node.Element`,
    :class:`~repro.xmldb.node.Text` and :class:`~repro.xmldb.node.Attribute`
    nodes) with a recursive-descent parser and serializer.

``repro.xpath``
    A lexer, parser and evaluator for the XPath 1.0 fragment used throughout
    the paper (child/descendant/attribute axes, wildcards, value predicates).

``repro.crypto``
    From-scratch cryptographic primitives: SHA-256, HMAC, AES-128 with
    batched CBC, the Vernam (one-time pad) cipher used for tag names, and
    a keyed order-preserving encryption function.

``repro.core``
    The paper's contribution: security constraints, secure/optimal encryption
    schemes, encryption decoys, the DSI structural index, OPESS
    (order-preserving encryption with splitting and scaling), structural
    joins, and the client/server query pipeline.

``repro.security``
    The attack model (frequency- and size-based attacks), database
    indistinguishability, candidate-database counting and attacker-belief
    tracking used to validate the paper's security theorems.

``repro.workloads``
    The Figure 2 healthcare database, plus seeded XMark-like and NASA-like
    synthetic dataset generators with the query classes of the evaluation.

Quickstart::

    from repro import SecureXMLSystem, SecurityConstraint
    from repro.workloads.healthcare import build_healthcare_database

    doc = build_healthcare_database()
    constraints = [
        SecurityConstraint.parse("//insurance"),
        SecurityConstraint.parse("//patient:(/pname, /SSN)"),
    ]
    system = SecureXMLSystem.host(doc, constraints, scheme="opt")
    answer = system.query("//patient[.//insurance//@coverage>=10000]//SSN")
"""

__all__ = [
    "SecurityConstraint",
    "EncryptionScheme",
    "SecureXMLSystem",
]

__version__ = "1.0.0"


def __getattr__(name: str):
    """Lazy re-exports so importing a substrate doesn't pull in the stack."""
    if name == "SecurityConstraint":
        from repro.core.constraints import SecurityConstraint

        return SecurityConstraint
    if name == "EncryptionScheme":
        from repro.core.scheme import EncryptionScheme

        return EncryptionScheme
    if name == "SecureXMLSystem":
        from repro.core.system import SecureXMLSystem

        return SecureXMLSystem
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
