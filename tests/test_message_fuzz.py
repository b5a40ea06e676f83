"""Decoder fuzz target for the wire codec (``repro.netsim.message``).

A response crosses as one record of flat columns: ``a`` names every
distinct ancestor once as a ``(parent row, tag, id)`` row, ``f`` gives each
fragment's parent row and ``x`` its text.  The properties:

* any ``ServerResponse`` round-trips, including the shapes that interning
  rows could get wrong — an empty path, shared prefixes, the same
  ``(tag, id)`` under two parents, non-ASCII tags and texts, a whole-tree
  ship;
* every response the server gives for the three pinned plan corpora
  round-trips, and fragments under one parent share one path tuple;
* untrusted bytes — arbitrary JSON values, and byte mutations of real
  payloads — decode to a message or raise ``MessageDecodeError``, never
  any other exception, for both directions;
* a row table cannot chain deeper than ``MAX_DEPTH``, and decoding a
  hostile table allocates within a fixed multiple of its length.
"""

import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_plan_bytes_pinned import CORPORA, PINS_PATH
from repro.core.server import Fragment, ServerResponse
from repro.core.system import SecureXMLSystem
from repro.netsim.message import (
    MessageDecodeError,
    decode_query,
    decode_response,
    encode_query,
    encode_response,
)
from repro.xmldb.parser import MAX_DEPTH

# ----------------------------------------------------------------------
# (a) Any response round-trips
# ----------------------------------------------------------------------
#: A few tags and ids, so drawn paths share prefixes and collide.
_tags = st.sampled_from(["a", "b", "person", "ü", "名前", ""]) | st.text(
    max_size=6
)
_ids = st.integers(min_value=0, max_value=3) | st.integers()
_paths = st.lists(st.tuples(_tags, _ids), max_size=5).map(tuple)
_responses = st.builds(
    ServerResponse,
    fragments=st.lists(
        st.builds(Fragment, ancestor_path=_paths, xml=st.text(max_size=20)),
        max_size=8,
    ),
    blocks_shipped=st.integers(min_value=0),
    candidate_counts=st.dictionaries(st.text(max_size=8), st.integers()),
)

_ROOT = (("site", 0),)


@settings(max_examples=300, deadline=None)
@given(_responses)
@example(ServerResponse(fragments=[]))
@example(ServerResponse(fragments=[Fragment((), "<site/>")]))
@example(  # shared prefixes: siblings, cousins, and a fragment at the root
    ServerResponse(
        fragments=[
            Fragment(_ROOT + (("people", 1),), "<person/>"),
            Fragment(_ROOT + (("people", 1),), "<person/>"),
            Fragment(_ROOT + (("people", 1), ("person", 2)), "<name/>"),
            Fragment(_ROOT, "<regions/>"),
        ]
    )
)
@example(  # one (tag, id) under two parents is two rows
    ServerResponse(
        fragments=[
            Fragment((("a", 0), ("c", 5)), "<x/>"),
            Fragment((("b", 1), ("c", 5)), "<x/>"),
        ]
    )
)
@example(
    ServerResponse(
        fragments=[Fragment((("名前", 3), ("ü", 4)), "<t>ünïcödé 名前</t>")],
        blocks_shipped=1,
        candidate_counts={"tök": 2},
    )
)
def test_any_response_round_trips(response):
    assert decode_response(encode_response(response)) == response


def test_a_row_is_interned_by_its_parent_too():
    response = ServerResponse(
        fragments=[
            Fragment((("a", 0), ("c", 5)), "<x/>"),
            Fragment((("b", 1), ("c", 5)), "<y/>"),
            Fragment((("a", 0), ("c", 5)), "<z/>"),
        ]
    )
    record = json.loads(encode_response(response))
    assert record["a"] == [[-1, "a", 0], [0, "c", 5], [-1, "b", 1], [2, "c", 5]]
    assert record["f"] == [1, 3, 1]
    assert record["x"] == ["<x/>", "<y/>", "<z/>"]


# ----------------------------------------------------------------------
# (b) Every response of the pinned plan corpora round-trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_corpus_responses_round_trip(corpus):
    with open(PINS_PATH, encoding="utf-8") as handle:
        pins = json.load(handle)[corpus]
    queries = sorted(set(pins["request"]) | set(pins["fragments"]))
    document, constraints = CORPORA[corpus]()
    system = SecureXMLSystem.host(document, constraints, scheme="opt")
    shared = 0
    try:
        responses = [
            system.server.answer(system.client.translate(query))
            for query in queries
        ] + [system.server.answer(system.client.naive_plan("//*"))]
        for response in responses:
            decoded = decode_response(encode_response(response))
            assert decoded == response
            # Each distinct path is one tuple, whichever fragments share it.
            by_path = {}
            for fragment in decoded.fragments:
                first = by_path.setdefault(
                    fragment.ancestor_path, fragment.ancestor_path
                )
                assert first is fragment.ancestor_path
            shared += len(decoded.fragments) - len(by_path)
    finally:
        system.close()
    assert shared > 0  # some corpus fragments do share a parent


# ----------------------------------------------------------------------
# (c) Untrusted bytes: a message or a typed error, never anything else
# ----------------------------------------------------------------------
_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["a", "b", "cc", "f", "n", "x", "q", "k", "c", "r", "p"])
        | st.text(max_size=3),
        inner,
        max_size=6,
    ),
    max_leaves=30,
)


def _decodes_or_refuses(payload):
    for decode in (decode_response, decode_query):
        try:
            decode(payload)
        except MessageDecodeError:
            pass


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_json)
@example({"a": [[0, "a", 1]], "b": 0, "cc": {}, "f": [], "n": 0, "x": []})
@example({"a": [], "b": 0, "cc": {}, "f": [-2], "n": 0, "x": [""]})
@example({"a": [], "b": 0, "cc": {}, "f": [0], "n": 0, "x": [""]})
@example({"a": [], "b": 0, "cc": {}, "f": [True], "n": 0, "x": [""]})
@example({"a": [], "b": 0, "cc": {}, "f": [], "n": 0, "x": [""]})
@example({"a": [[-1, "a"]], "b": 0, "cc": {}, "f": [], "n": 0, "x": []})
@example({"q": {"k": [], "a": "child", "r": [[1, 2, 3]]}})
@example({"q": {"k": [], "a": "child", "c": ["x"]}})
@example({"q": {"k": 5, "a": "child"}})
def test_any_json_value_decodes_or_is_refused(value):
    _decodes_or_refuses(json.dumps(value).encode())


def test_deep_nesting_is_refused_typed():
    for payload in (b"[" * 100_000, b'{"q":' * 100_000):
        with pytest.raises(MessageDecodeError):
            decode_response(payload)
        with pytest.raises(MessageDecodeError):
            decode_query(payload)


@pytest.mark.parametrize("bound", [None, 1.5, "3", True, [1], {}])
def test_a_key_range_bound_that_is_not_an_integer_is_refused(bound):
    """The index compares bounds with its integer keys: anything else is
    a typed refusal here, not an error inside the join."""
    for pair in ([bound, 5], [5, bound]):
        payload = json.dumps(
            {"q": {"k": [], "a": "child", "r": [pair], "t": "T"}}
        ).encode()
        with pytest.raises(MessageDecodeError, match="must be integers"):
            decode_query(payload)
    query = decode_query(b'{"q":{"a":"child","k":[],"r":[[-3,5]],"t":"T"}}')
    assert [(r.low, r.high) for r in query.root.value_ranges] == [(-3, 5)]


@pytest.fixture(scope="module")
def real_payloads():
    document, constraints = CORPORA["healthcare"]()
    system = SecureXMLSystem.host(document, constraints, scheme="opt")
    try:
        queries = ["//patient", "//treat/disease", "//SSN", "/hospital"]
        translated = [system.client.translate(query) for query in queries]
        responses = [system.server.answer(query) for query in translated]
        return [encode_query(query) for query in translated] + [
            encode_response(response) for response in responses
        ]
    finally:
        system.close()


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.data(),
    st.lists(
        st.tuples(
            st.sampled_from(["flip", "drop", "insert", "truncate"]),
            st.floats(min_value=0, max_value=1, exclude_max=True),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_mutated_real_payloads_decode_or_are_refused(
    real_payloads, data, mutations
):
    payload = bytearray(data.draw(st.sampled_from(real_payloads)))
    for kind, where, byte in mutations:
        at = int(where * len(payload))
        if kind == "flip" and payload:
            payload[at] ^= byte or 1
        elif kind == "drop" and payload:
            del payload[at]
        elif kind == "insert":
            payload.insert(at, byte)
        else:
            del payload[at:]
    _decodes_or_refuses(bytes(payload))


# ----------------------------------------------------------------------
# (d) The row table's depth cap, and allocation on a hostile table
# ----------------------------------------------------------------------
def _table_payload(rows, parents):
    return json.dumps(
        {
            "a": rows,
            "b": 0,
            "cc": {},
            "f": parents,
            "n": 0,
            "x": [""] * len(parents),
        },
        separators=(",", ":"),
    ).encode()


def _chain(depth):
    return [[row - 1, "", 0] for row in range(depth)]


def test_a_chain_of_max_depth_decodes_and_one_more_is_refused():
    deepest = decode_response(_table_payload(_chain(MAX_DEPTH), [MAX_DEPTH - 1]))
    assert deepest.fragments[0].ancestor_path == (("", 0),) * MAX_DEPTH
    with pytest.raises(MessageDecodeError, match="deeper than"):
        decode_response(_table_payload(_chain(MAX_DEPTH + 1), []))


def test_a_row_may_only_name_an_earlier_row():
    for parent in (0, 1, -2):
        with pytest.raises(MessageDecodeError):
            decode_response(_table_payload([[parent, "a", 1]], []))


#: Hostile tables: each row as deep as the cap allows, as cheaply written
#: as the format allows.
HOSTILE_TABLES = {
    "one-deep-chain": (_chain(MAX_DEPTH), [MAX_DEPTH - 1]),
    "leaves-at-the-cap": (
        _chain(MAX_DEPTH - 1) + [[MAX_DEPTH - 2, "", 0]] * 4000,
        [],
    ),
    "leaves-at-the-cap-each-shipped": (
        _chain(MAX_DEPTH - 1) + [[MAX_DEPTH - 2, "", 0]] * 2000,
        list(range(MAX_DEPTH - 1, MAX_DEPTH + 1999)),
    ),
    "every-fragment-under-the-deepest-row": (
        _chain(MAX_DEPTH),
        [MAX_DEPTH - 1] * 5000,
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_TABLES))
def test_decode_allocation_is_linear_in_the_payload(name):
    """A row costs at least 11 payload bytes at the cap and allocates one
    path tuple of at most ``MAX_DEPTH`` pointers, so the peak stays under
    ``MAX_DEPTH`` times the payload however the table is drawn."""
    payload = _table_payload(*HOSTILE_TABLES[name])
    decode_response(_table_payload([], []))  # imports happen outside
    tracemalloc.start()
    try:
        decode_response(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= MAX_DEPTH * len(payload)
