"""Property-based update sequences: random ops, oracle-checked exactness.

Hypothesis drives random sequences of insert / update / delete operations
against a hosted system and a plaintext oracle in lockstep; after the
sequence, a battery of queries must agree exactly.  This is the strongest
guarantee the update extension offers.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from test_core_dsi import assert_children_are_parent_image
from test_updates_oracle import apply, choose_operation
from updates_oracle import write_plaintext
from repro.core.client import Client, canonical_node
from repro.core.system import SecureXMLSystem
from repro.core.updates import UpdateEngine, UpdateError
from repro.workloads.axes import AxisWorkload
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.xmldb.node import Element, EncryptedBlockNode, Text
from repro.xmldb.serializer import serialize
from repro.xpath.evaluator import evaluate

_CHECK_QUERIES = (
    "//pname",
    "//SSN",
    "//disease",
    "//doctor",
    "//patient/age",
    "//patient[age>36]/pname",
    "//treat[disease='diarrhea']/doctor",
    "//insurance/policy#",
    "//note",
)

_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["insert_note", "insert_disease", "update_age",
                         "update_ssn", "delete_insurance"]),
        st.sampled_from(["Betty", "Matt"]),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=1,
    max_size=6,
)


def _apply(system, oracle, op, who, salt):
    """Apply one op to both sides; returns False if it was a no-op."""
    anchor = f"//patient[pname='{who}']"
    if not evaluate(oracle, anchor):
        return False
    if op == "insert_note":
        system.insert_element(anchor, "note", f"n{salt}")
        parent = evaluate(oracle, anchor)[0]
        leaf = Element("note")
        leaf.append(Text(f"n{salt}"))
        parent.append(leaf)
        oracle.renumber()
    elif op == "insert_disease":
        treats = evaluate(oracle, f"{anchor}/treat")
        if len(treats) != 1:
            return False  # target must be unique for the engine
        system.insert_element(f"{anchor}/treat", "disease", f"d{salt}")
        leaf = Element("disease")
        leaf.append(Text(f"d{salt}"))
        treats[0].append(leaf)
        oracle.renumber()
    elif op == "update_age":
        system.update_value(f"{anchor}/age", str(20 + salt))
        evaluate(oracle, f"{anchor}/age")[0].children[0].value = str(20 + salt)
    elif op == "update_ssn":
        system.update_value(f"{anchor}/SSN", f"{100000 + salt}")
        evaluate(oracle, f"{anchor}/SSN")[0].children[0].value = (
            f"{100000 + salt}"
        )
    elif op == "delete_insurance":
        if not evaluate(oracle, f"{anchor}/insurance"):
            return False
        system.delete_element(f"{anchor}/insurance")
        evaluate(oracle, f"{anchor}/insurance")[0].detach()
        oracle.renumber()
    return True


class TestRandomUpdateSequences:
    @given(_OPERATIONS, st.sampled_from(["opt", "app"]))
    @settings(max_examples=20, deadline=None)
    def test_sequence_preserves_exactness(self, operations, scheme):
        document = build_healthcare_database()
        oracle = build_healthcare_database()
        system = SecureXMLSystem.host(
            document, healthcare_constraints(), scheme=scheme
        )
        for op, who, salt in operations:
            try:
                applied = _apply(system, oracle, op, who, salt)
            except UpdateError:
                # Ambiguous target after earlier inserts: acceptable
                # refusal, state must still be consistent.
                applied = False
            assert_children_are_parent_image(system.hosted.structural_index)
            if not applied:
                continue
        for query in _CHECK_QUERIES:
            expected = sorted(
                canonical_node(n) for n in evaluate(oracle, query)
            )
            assert system.query(query).canonical() == expected, query

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_repeated_ssn_rotation(self, salt):
        """Rotating the same encrypted value repeatedly stays consistent."""
        document = build_healthcare_database()
        system = SecureXMLSystem.host(
            document, healthcare_constraints(), scheme="opt"
        )
        for round_index in range(3):
            value = f"{200000 + salt + round_index}"
            system.update_value("//patient[pname='Betty']/SSN", value)
            answer = system.query(f"//patient[SSN='{value}']/pname")
            assert answer.values() == ["Betty"]


# ----------------------------------------------------------------------
# What a write invalidates: a warm system against a cold one and the oracle
# ----------------------------------------------------------------------
_DATASETS = {
    "healthcare": (build_healthcare_database, healthcare_constraints),
    "nasa-20": (lambda: build_nasa_database(20, seed=13), nasa_constraints),
}


def _plaintext_path(probe, node):
    """The positional path that names hosted ``node`` in the plaintext
    document: a placeholder stands where its block's root element stood."""

    def tag_of(sibling):
        if isinstance(sibling, EncryptedBlockNode):
            return probe.decrypt_fragment(serialize(sibling)).tag
        return sibling.tag if isinstance(sibling, Element) else None

    steps = []
    while node is not None:
        tag = tag_of(node)
        before = node.parent.children[: node.child_index] if node.parent else []
        position = 1 + sum(tag_of(sibling) == tag for sibling in before)
        steps.append(f"{tag}[{position}]")
        node = node.parent
    return "/" + "/".join(reversed(steps))


def _plaintext_write(system, probe, operation):
    """``operation`` (see ``test_updates_oracle``) as a ``write_plaintext``
    call, read off the hosted tree before the engine changes it."""
    kind, position, tag, value = operation
    entry = system.hosted.structural_index.entries[position]
    node = (
        entry.hosted_node if entry.block_id is None
        else system.hosted.placeholders[entry.block_id]
    )
    path = _plaintext_path(probe, node)
    if kind == "insert":
        return "insert_element", path, tag, value
    if kind == "update":
        return "update_value", path, value
    return "delete_element", path


def _assert_surviving_fragments_are_fresh(system):
    nodes = {node.node_id: node for node in system.hosted.hosted_root.iter()}
    server = system.server
    for node_id, fragment in server._fragment_cache.live().items():
        assert fragment == server._build_fragment(nodes[node_id]), node_id


class TestWhatAWriteInvalidates:
    @given(
        st.sampled_from(sorted(_DATASETS)),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.booleans(), min_size=4, max_size=14),
    )
    @settings(max_examples=12, deadline=None)
    def test_warm_equals_cold_equals_oracle(self, dataset, seed, steps):
        build, constraints = _DATASETS[dataset]
        oracle = build()
        warm = SecureXMLSystem.host(build(), constraints(), scheme="opt")
        cold = SecureXMLSystem.host(build(), constraints(), scheme="opt")
        probe = Client(warm.keyring, warm.hosted)
        queries = AxisWorkload(oracle, seed=seed % 97, per_axis=2).queries()
        rng = random.Random(seed)

        def read(query):
            cold.flush_caches()
            expected = sorted(
                canonical_node(node) for node in evaluate(oracle, query)
            )
            assert warm.query(query).canonical() == expected, query
            assert cold.query(query).canonical() == expected, query

        for query in queries:  # every cache of the warm side filled
            read(query)
        for step, is_write in enumerate(steps):
            if not is_write:
                read(rng.choice(queries))
                continue
            operation = choose_operation(warm, rng, step)
            if operation is None:
                continue
            plaintext_write = _plaintext_write(warm, probe, operation)
            try:
                apply(warm, UpdateEngine, operation)
            except UpdateError:
                continue  # refused before anything changed
            apply(cold, UpdateEngine, operation)
            write_plaintext(oracle, *plaintext_write)
            for system in (warm, cold):
                assert_children_are_parent_image(
                    system.hosted.structural_index
                )
            _assert_surviving_fragments_are_fresh(warm)
        for query in queries:
            read(query)
