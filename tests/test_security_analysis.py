"""Tests for the security-audit report."""

import pytest

from repro.core.system import SecureXMLSystem
from repro.security.analysis import audit_system
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)


@pytest.fixture
def report_pair():
    document = build_healthcare_database()
    system = SecureXMLSystem.host(
        document, healthcare_constraints(), scheme="opt"
    )
    return audit_system(system, document), system


class TestAuditReport:
    def test_every_encrypted_field_audited(self, report_pair):
        report, system = report_pair
        audited = {audit.field_name for audit in report.fields}
        assert audited == set(system.hosted.field_plans)

    def test_secure_hosting_passes(self, report_pair):
        report, _ = report_pair
        assert not report.any_value_cracked
        assert "PASS" in report.render()

    def test_margins_positive(self, report_pair):
        report, _ = report_pair
        for audit in report.fields:
            assert audit.database_candidates >= 2
            assert audit.partition_candidates >= 1
            assert audit.ciphertext_values >= audit.plaintext_values
        assert report.structural_candidates >= 1

    def test_out_of_model_exposure_reported(self, report_pair):
        """The healthcare hosting has a unique-count encrypted tag."""
        report, _ = report_pair
        assert report.tags_cracked_with_priors  # §8 item 2 is real
        assert "OUT-OF-MODEL" in report.render()

    def test_render_contains_key_sections(self, report_pair):
        report, _ = report_pair
        text = report.render()
        assert "SECURITY AUDIT" in text
        assert "Thm4.1" in text and "Thm5.2" in text
        assert "Theorem 5.1" in text

    def test_strawman_hosting_fails_audit(self):
        """The insecure mode is caught: deterministic blocks crack."""
        from repro.security.attacks import (
            FrequencyAttack,
            ciphertext_block_histogram,
        )
        from repro.xmldb.stats import value_frequencies

        document = build_healthcare_database()
        system = SecureXMLSystem.host(
            document, healthcare_constraints(), scheme="leaf", secure=False
        )
        # The audit's value-index check still passes (OPESS is intact);
        # the block-level frequency attack is what breaks the strawman.
        fields = value_frequencies(document)
        token = system.hosted.field_tokens["disease"]
        attack = FrequencyAttack(fields["disease"])
        result = attack.run(
            ciphertext_block_histogram(system.hosted, token), "disease"
        )
        assert result.cracked

    def test_audit_after_updates(self):
        document = build_healthcare_database()
        system = SecureXMLSystem.host(
            document, healthcare_constraints(), scheme="opt"
        )
        system.insert_element(
            "//patient[pname='Matt']/treat", "disease", "flu"
        )
        # Audit against the *updated* plaintext view.
        from repro.xmldb.node import Element, Text
        from repro.xpath.evaluator import evaluate

        oracle = build_healthcare_database()
        treat = evaluate(oracle, "//patient[pname='Matt']/treat")[0]
        leaf = Element("disease")
        leaf.append(Text("flu"))
        treat.append(leaf)
        oracle.renumber()
        report = audit_system(system, oracle)
        assert not report.any_value_cracked


class TestAuditCLI:
    def test_cli_audit_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["audit", "--workload", "healthcare"]) == 0
        assert "SECURITY AUDIT" in capsys.readouterr().out
