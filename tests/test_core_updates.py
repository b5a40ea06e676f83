"""Tests for the incremental-update extension (paper §8 future work)."""

import pytest

from repro.core.client import canonical_node
from repro.core.system import SecureXMLSystem
from repro.core.updates import UpdateError
from repro.xmldb.node import Element, Text
from repro.xpath.evaluator import evaluate


@pytest.fixture
def pair(healthcare_doc, healthcare_scs):
    """A hosted system plus a plaintext oracle mutated in lockstep."""
    from repro.workloads.healthcare import build_healthcare_database

    system = SecureXMLSystem.host(
        healthcare_doc, healthcare_scs, scheme="opt"
    )
    oracle = build_healthcare_database()
    return system, oracle


def check(system, oracle, query):
    truth = sorted(canonical_node(n) for n in evaluate(oracle, query))
    assert system.query(query).canonical() == truth, query


def oracle_append_leaf(oracle, parent_query, tag, value):
    parent = evaluate(oracle, parent_query)[0]
    leaf = Element(tag)
    leaf.append(Text(value))
    parent.append(leaf)
    oracle.renumber()


class TestInsert:
    def test_insert_plaintext_leaf(self, pair):
        system, oracle = pair
        system.insert_element("//patient[pname='Matt']", "phone", "555-1234")
        oracle_append_leaf(oracle, "//patient[pname='Matt']", "phone", "555-1234")
        check(system, oracle, "//patient/phone")
        check(system, oracle, "//patient[phone='555-1234']/pname")

    def test_insert_encrypted_leaf(self, pair):
        """A covered-field insert becomes a fresh encryption block."""
        system, oracle = pair
        blocks_before = system.hosted.block_count()
        system.insert_element("//patient[pname='Matt']/treat", "disease", "flu")
        oracle_append_leaf(
            oracle, "//patient[pname='Matt']/treat", "disease", "flu"
        )
        assert system.hosted.block_count() == blocks_before + 1
        check(system, oracle, "//patient[pname='Matt']//disease")
        check(system, oracle, "//treat[disease='flu']/doctor")

    def test_inserted_value_not_in_hosted_clear(self, pair):
        from repro.xmldb.serializer import serialize

        system, _ = pair
        system.insert_element("//patient[pname='Matt']/treat", "disease", "zika")
        hosted_xml = serialize(system.hosted.hosted_root)
        assert ">zika<" not in hosted_xml

    def test_insert_rebuilds_field_index(self, pair):
        system, oracle = pair
        plan_before = system.hosted.field_plans["disease"]
        system.insert_element("//patient[pname='Matt']/treat", "disease", "flu")
        plan_after = system.hosted.field_plans["disease"]
        assert "flu" in plan_after.ordered_values
        assert "flu" not in plan_before.ordered_values

    def test_insert_needs_unique_parent(self, pair):
        system, _ = pair
        with pytest.raises(UpdateError):
            system.insert_element("//treat", "disease", "flu")  # 3 matches

    def test_insert_into_encrypted_parent_rejected(self, pair):
        system, _ = pair
        with pytest.raises(UpdateError):
            system.insert_element(
                "//patient[pname='Betty']/insurance", "policy#", "1"
            )

    def test_repeated_inserts(self, pair):
        system, oracle = pair
        for index in range(4):
            system.insert_element(
                "//patient[pname='Matt']", "note", f"n{index}"
            )
            oracle_append_leaf(
                oracle, "//patient[pname='Matt']", "note", f"n{index}"
            )
        check(system, oracle, "//patient/note")
        check(system, oracle, "//patient[note='n2']/pname")


class TestUpdateValue:
    def test_update_plaintext_leaf(self, pair):
        system, oracle = pair
        system.update_value("//patient[pname='Matt']/age", "41")
        evaluate(oracle, "//patient[pname='Matt']/age")[0].children[0].value = "41"
        check(system, oracle, "//patient[age>40]/pname")
        check(system, oracle, "//patient/age")

    def test_update_encrypted_leaf(self, pair):
        system, oracle = pair
        system.update_value("//patient[pname='Betty']/SSN", "999999")
        evaluate(oracle, "//patient[pname='Betty']/SSN")[0].children[0].value = (
            "999999"
        )
        check(system, oracle, "//SSN")
        check(system, oracle, "//patient[SSN='999999']/pname")

    def test_updated_value_range_queries(self, pair):
        system, oracle = pair
        system.update_value("//patient[pname='Betty']/SSN", "999999")
        evaluate(oracle, "//patient[pname='Betty']/SSN")[0].children[0].value = (
            "999999"
        )
        check(system, oracle, "//patient[SSN>500000]/pname")

    def test_update_needs_unique_target(self, pair):
        system, _ = pair
        with pytest.raises(UpdateError):
            system.update_value("//age", "50")  # two matches


class TestDelete:
    def test_delete_encrypted_block(self, pair):
        system, oracle = pair
        blocks_before = system.hosted.block_count()
        system.delete_element("//patient[pname='Matt']/insurance")
        evaluate(oracle, "//patient[pname='Matt']/insurance")[0].detach()
        oracle.renumber()
        assert system.hosted.block_count() == blocks_before - 1
        check(system, oracle, "//insurance/policy#")
        check(system, oracle, "//insurance//@coverage")

    def test_delete_plaintext_subtree_with_nested_blocks(self, pair):
        system, oracle = pair
        system.delete_element("//patient[pname='Betty']")
        evaluate(oracle, "//patient[pname='Betty']")[0].detach()
        oracle.renumber()
        check(system, oracle, "//pname")
        check(system, oracle, "//SSN")
        check(system, oracle, "//disease")
        check(system, oracle, "//insurance/policy#")

    def test_delete_refreshes_value_index(self, pair):
        system, oracle = pair
        system.delete_element("//patient[pname='Matt']/treat")
        evaluate(oracle, "//patient[pname='Matt']/treat")[0].detach()
        oracle.renumber()
        check(system, oracle, "//treat[disease='leukemia']/doctor")
        check(system, oracle, "//disease")

    def test_delete_root_rejected(self, pair):
        system, _ = pair
        with pytest.raises(UpdateError):
            system.delete_element("/hospital")


class TestUpdateSafety:
    def test_updates_require_secure_hosting(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="leaf", secure=False
        )
        with pytest.raises(UpdateError):
            system.insert_element("//patient[pname='Matt']", "x", "1")

    def test_mixed_update_sequence_stays_exact(self, pair):
        """A longer randomized-ish sequence keeps every query exact."""
        system, oracle = pair
        operations = [
            ("insert", "//patient[pname='Matt']/treat", "disease", "flu"),
            ("update", "//patient[pname='Matt']/age", "41", None),
            ("insert", "//patient[pname='Betty']", "phone", "555-0000"),
            ("update", "//patient[pname='Betty']/SSN", "111111", None),
            ("delete", "//patient[pname='Matt']/insurance", None, None),
            ("insert", "//patient[pname='Matt']", "note", "check-up"),
        ]
        for op, path, tag_or_value, value in operations:
            if op == "insert":
                system.insert_element(path, tag_or_value, value)
                oracle_append_leaf(oracle, path, tag_or_value, value)
            elif op == "update":
                system.update_value(path, tag_or_value)
                evaluate(oracle, path)[0].children[0].value = tag_or_value
                oracle.renumber()
            else:
                system.delete_element(path)
                evaluate(oracle, path)[0].detach()
                oracle.renumber()
        for query in (
            "//pname",
            "//SSN",
            "//disease",
            "//patient[age>40]/pname",
            "//patient[SSN='111111']/pname",
            "//treat[disease='flu']/doctor",
            "//insurance/policy#",
            "//note",
        ):
            check(system, oracle, query)

    def test_aggregate_after_updates(self, pair):
        system, oracle = pair
        system.insert_element("//patient[pname='Matt']/treat", "disease", "flu")
        oracle_append_leaf(
            oracle, "//patient[pname='Matt']/treat", "disease", "flu"
        )
        assert system.aggregate("//disease", "count") == 4
        assert system.aggregate("//disease", "min", mode="server") == (
            system.aggregate("//disease", "min")
        )


class TestTargetsTheJoinCannotPin:
    """A write acts on the join's output entries, a sound superset of the
    answer unless the plan is ``axis`` with no positional step and no
    order edge: every other target is refused before any state moves,
    never written."""

    @pytest.mark.parametrize(
        "write",
        [
            # Matt has one SSN: the path selects nothing.
            ("delete_element", "//patient[pname='Matt']/SSN[2]"),
            ("update_value", "//patient[pname='Matt']/SSN[2]", "111111"),
            # Residual plans: the join's output is the document root.
            ("insert_element", "hospital/nothing", "note", "hello"),
            ("insert_element", "patient", "note", "hello"),
            # Matt is the last patient; the relaxed join keeps his age.
            (
                "update_value",
                "//patient[pname='Matt']/following-sibling::patient/age",
                "99",
            ),
        ],
    )
    def test_refused_before_any_state_moves(self, pair, write):
        system, oracle = pair
        name, *args = write
        epoch = system.hosted.epoch
        with pytest.raises(UpdateError, match="cannot pin the target"):
            getattr(system, name)(*args)
        assert system.hosted.epoch == epoch
        for query in ("//SSN", "//note", "//patient/pname", "//age"):
            check(system, oracle, query)


#: XML text does not keep these: the parser strips character data and
#: builds no node for what is then empty.
UNCARRIABLE = [" padded ", "  hi ", "", "\n", "tail\t"]


class TestValuesXmlTextCannotCarry:
    """Refused, never accepted-and-altered: before this check the value
    index held the written value while every read returned it stripped, so
    ``//patient[treat/disease=' padded ']/pname`` answered ``[]``."""

    QUERIES = (
        "//patient[pname='Matt']//disease",
        "//disease",
        "//patient[treat/disease='leukemia']/pname",
        "//patient/note",
        "//patient",
    )

    @pytest.mark.parametrize("value", UNCARRIABLE, ids=repr)
    @pytest.mark.parametrize(
        "target",
        ["//patient[pname='Matt']/treat/disease", "//patient[pname='Matt']/age"],
        ids=["encrypted", "plaintext"],
    )
    def test_update_value_refuses_and_changes_nothing(self, pair, target, value):
        system, oracle = pair
        epoch, root = system.hosted.anchor()
        with pytest.raises(UpdateError, match="whitespace"):
            system.update_value(target, value)
        assert system.hosted.anchor() == (epoch, root)
        for query in (
            *self.QUERIES,
            f"//patient[treat/disease='{value}']/pname",
            f"//patient[age='{value}']/pname",
        ):
            check(system, oracle, query)

    @pytest.mark.parametrize("value", UNCARRIABLE, ids=repr)
    @pytest.mark.parametrize(
        "parent,tag",
        [("//patient[pname='Matt']/treat", "disease"), ("//patient[pname='Matt']", "note")],
        ids=["encrypted", "plaintext"],
    )
    def test_insert_element_refuses_and_changes_nothing(
        self, pair, parent, tag, value
    ):
        system, oracle = pair
        epoch, root = system.hosted.anchor()
        blocks = system.hosted.block_count()
        with pytest.raises(UpdateError, match="whitespace"):
            system.insert_element(parent, tag, value)
        assert system.hosted.anchor() == (epoch, root)
        assert system.hosted.block_count() == blocks
        for query in (*self.QUERIES, f"//patient[{tag}='{value}']/pname"):
            check(system, oracle, query)

    @pytest.mark.parametrize("value", UNCARRIABLE, ids=repr)
    def test_hosting_refuses_a_built_document_holding_one(
        self, healthcare_doc, healthcare_scs, value
    ):
        (leaf,) = evaluate(healthcare_doc, "//patient[pname='Matt']/treat/disease")
        leaf.children[0].value = value
        with pytest.raises(ValueError, match="whitespace"):
            SecureXMLSystem.host(healthcare_doc, healthcare_scs)

    def test_inner_whitespace_is_carried(self, pair):
        """What the XML form does keep is still accepted, exactly."""
        system, oracle = pair
        system.update_value("//patient[pname='Matt']/treat/disease", "a  b\nc")
        evaluate(oracle, "//patient[pname='Matt']/treat/disease")[0].children[
            0
        ].value = "a  b\nc"
        system.insert_element("//patient[pname='Matt']", "note", "x \t y")
        oracle_append_leaf(oracle, "//patient[pname='Matt']", "note", "x \t y")
        for query in (*self.QUERIES, "//patient[note='x \t y']/pname"):
            check(system, oracle, query)
