"""Tests for query translation (§6.1) and the server structural join (§6.2)."""

import pytest

from repro.core.encryptor import host_database
from repro.core.scheme import build_scheme
from repro.core.structural_join import match_pattern
from repro.crypto.keyring import ClientKeyring
from repro.core.translate import QueryTranslator
from repro.xpath.plan import plan_for


@pytest.fixture
def hosted_opt(healthcare_doc, healthcare_scs):
    keyring = ClientKeyring(b"k" * 16)
    scheme = build_scheme(healthcare_doc, healthcare_scs, "opt")
    hosted = host_database(healthcare_doc, scheme, keyring)
    translator = QueryTranslator(
        tag_cipher=keyring.tag_cipher,
        ope=keyring.ope,
        encrypted_tags=hosted.encrypted_tags,
        plaintext_keys=hosted.plaintext_keys,
        field_plans=hosted.field_plans,
        field_tokens=hosted.field_tokens,
    )
    return hosted, translator, keyring


def translate(translator, query):
    return translator.translate(plan_for(query).pattern)


class TestTranslation:
    def test_plaintext_tags_survive(self, hosted_opt):
        _, translator, _ = hosted_opt
        translated = translate(translator, "//patient/age")
        assert translated.root.keys == ("patient",)
        assert translated.root.children[0].keys == ("age",)

    def test_encrypted_tags_become_tokens(self, hosted_opt):
        hosted, translator, keyring = hosted_opt
        translated = translate(translator, "//insurance")
        token = keyring.tag_cipher.encrypt_tag("insurance")
        assert translated.root.keys == (token,)
        assert "insurance" not in translated.root.keys

    def test_sensitive_tag_never_in_clear(self, hosted_opt):
        """A purely-encrypted tag must not cross the wire in plaintext."""
        hosted, translator, _ = hosted_opt
        purely_encrypted = hosted.encrypted_tags - hosted.plaintext_keys
        for tag in purely_encrypted:
            if tag.startswith("@"):
                query = f"//*[{'@' + tag[1:]}]" if False else None
                continue
            translated = translate(translator, f"//{tag}")
            assert tag not in translated.root.keys

    def test_value_predicate_on_encrypted_field(self, hosted_opt):
        hosted, translator, keyring = hosted_opt
        covered = next(
            f for f in sorted(hosted.field_plans) if not f.startswith("@")
        )
        plan = hosted.field_plans[covered]
        literal = plan.ordered_values[0]
        translated = translate(translator, f"//{covered}[.='{literal}']")
        node = translated.root
        assert node.value_ranges is not None and node.value_ranges
        assert node.value_field_token == hosted.field_tokens[covered]
        assert node.plaintext_predicate is None  # field fully encrypted

    def test_value_predicate_on_plaintext_field(self, hosted_opt):
        _, translator, _ = hosted_opt
        translated = translate(translator, "//patient[age>36]/pname")
        branch = next(
            c for c in translated.root.children if c.axis == "child"
            and c.plaintext_predicate is not None
        )
        assert branch.plaintext_predicate == (">", "36")
        assert branch.value_ranges is None

    def test_unknown_tag_passes_through(self, hosted_opt):
        _, translator, _ = hosted_opt
        translated = translate(translator, "//nonexistent")
        assert translated.root.keys == ("nonexistent",)

    def test_wildcard_constraint_unsupported(self):
        """The planner, not the translator, sends it to the residual plan."""
        plan = plan_for("//patient/*[.='x']")
        assert plan.kind == "residual"
        assert plan.reason == (
            "value constraints on wildcard nodes are client-only"
        )

    def test_output_and_ship_marked(self, hosted_opt):
        _, translator, _ = hosted_opt
        translated = translate(
            translator, "//patient[pname='Betty']//disease"
        )
        assert translated.output.is_output
        (ship,) = translated.ship_nodes
        assert ship is translated.root  # predicate at patient

    def test_ship_node_is_output_without_predicates(self, hosted_opt):
        _, translator, _ = hosted_opt
        translated = translate(translator, "/hospital/patient/age")
        (ship,) = translated.ship_nodes
        assert ship is translated.output

    def test_wire_size_positive(self, hosted_opt):
        _, translator, _ = hosted_opt
        translated = translate(translator, "//patient[age>36]/pname")
        assert translated.wire_size() > 0


class TestStructuralJoin:
    def run(self, hosted_opt, query):
        hosted, translator, _ = hosted_opt
        translated = translate(translator, query)
        return match_pattern(
            translated, hosted.structural_index, hosted.value_index
        )

    def test_structural_only_query(self, hosted_opt):
        result = self.run(hosted_opt, "/hospital/patient/age")
        assert len(result.output_entries) == 2

    def test_root_axis_constraint(self, hosted_opt):
        result = self.run(hosted_opt, "/patient")  # wrong root
        assert result.output_entries == []

    def test_descendant_axis(self, hosted_opt):
        result = self.run(hosted_opt, "//doctor")
        assert len(result.output_entries) == 3

    def test_encrypted_output_entries(self, hosted_opt):
        hosted, translator, keyring = hosted_opt
        result = self.run(hosted_opt, "//insurance")
        assert len(result.output_entries) == 2
        assert all(e.block_id is not None for e in result.output_entries)

    def test_plaintext_value_predicate_filters(self, hosted_opt):
        result = self.run(hosted_opt, "//patient[age>36]/pname")
        assert len(result.ship_entries) == 1

    def test_encrypted_value_predicate_filters_to_blocks(self, hosted_opt):
        hosted, translator, _ = hosted_opt
        covered = next(
            f for f in sorted(hosted.field_plans) if not f.startswith("@")
        )
        plan = hosted.field_plans[covered]
        literal = plan.ordered_values[0]
        result = self.run(hosted_opt, f"//{covered}[.='{literal}']")
        assert result.output_entries  # at least the matching blocks

    def test_impossible_structure_empty(self, hosted_opt):
        result = self.run(hosted_opt, "/hospital/doctor")  # doctor not child
        assert result.output_entries == []

    def test_candidate_counts_reported(self, hosted_opt):
        result = self.run(hosted_opt, "//patient/age")
        assert any(count > 0 for count in result.candidate_counts.values())

    def test_existence_branch_prunes(self, hosted_opt):
        result = self.run(hosted_opt, "//patient[treat]/age")
        assert len(result.output_entries) == 2  # both patients have treat

    def test_wildcard_candidates(self, hosted_opt):
        result = self.run(hosted_opt, "//patient/*")
        assert len(result.output_entries) >= 4
