"""The once-classified comparator against the two-sided rule.

:func:`repro.xpath.evaluator.comparator` classifies a predicate's literal
once and tests every candidate against it; the rule it must keep is the
one ``tests/xpath_evaluator_oracle.py::compare_values`` states on each
pair — numeric when both sides parse as floats, string otherwise.  The
property is checked on the comparator itself and through both of its
users: the server's structural join, on the plaintext values it checks
in the clear, and the client's evaluator.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.structural_join import match_pattern
from repro.core.system import SecureXMLSystem
from repro.core.translate import TranslatedNode, TranslatedQuery
from repro.xmldb.node import Document, Element, Text
from repro.xpath.evaluator import comparator, compare_values, evaluate
from xpath_evaluator_oracle import compare_values as two_sided

_OPS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])

#: strings where float() and string order part ways, or float() is
#: lenient: special values, padding, digit separators, non-ASCII digits
_EDGES = (
    "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "12", "12.0", "1e1",
    "-0", "+5", " 12 ", "12 ", "1_000", "1__000", "_1", "", " ", "0x10",
    "١٢", "١٢.٥", "１２", "abc", "Graz", "graz", "ä", "10", "9",
)

_VALUES = st.one_of(
    st.sampled_from(_EDGES),
    st.text(max_size=6),
    st.integers(-1000, 1000).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(str),
)

#: the values a hosting accepts: no leaf is empty or padded
_HOSTABLE = tuple(v for v in _EDGES if v and v == v.strip())


def _leaves(values) -> Document:
    root = Element("r")
    for value in values:
        leaf = Element("v")
        if value:
            leaf.append(Text(value))
        root.append(leaf)
    return Document(root)


@given(_VALUES, _OPS, _VALUES)
@settings(max_examples=400, deadline=None)
def test_comparator_is_the_two_sided_rule(value, op, literal):
    expected = two_sided(value, op, literal)
    assert comparator(op, literal)(value) is expected
    assert compare_values(value, op, literal) is expected


_SYSTEM = SecureXMLSystem.host(_leaves(_HOSTABLE), [], scheme="opt")


@given(_OPS, _VALUES)
@settings(max_examples=200, deadline=None)
def test_server_join_keeps_what_the_two_sided_rule_keeps(op, literal):
    node = TranslatedNode(
        keys=("v",),
        axis="root-descendant",
        plaintext_predicate=(op, literal),
        is_output=True,
        is_shipped=True,
    )
    hosted = _SYSTEM.hosted
    result = match_pattern(
        TranslatedQuery(root=node, output=node, ship_nodes=[node]),
        hosted.structural_index,
        hosted.value_index,
    )
    assert sorted(entry.plaintext_value for entry in result.output_entries) == (
        sorted(v for v in _HOSTABLE if two_sided(v, op, literal))
    )


_DOCUMENT = _leaves(_EDGES)


@given(_OPS, _VALUES)
@settings(max_examples=200, deadline=None)
def test_evaluator_keeps_what_the_two_sided_rule_keeps(op, literal):
    quote = "'" if "'" not in literal else '"'
    assume(quote not in literal)
    answer = evaluate(_DOCUMENT, f"//v[. {op} {quote}{literal}{quote}]")
    assert answer == [
        leaf
        for leaf in _DOCUMENT.root.children
        if leaf.text_value() is not None
        and two_sided(leaf.text_value(), op, literal)
    ]
