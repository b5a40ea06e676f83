"""Tests for the benchmark measurement harness."""

import pytest

from repro.bench.harness import (
    average_traces,
    format_table,
    run_query_class,
    saving_ratio,
    trimmed_mean,
)
from repro.core.system import QueryTrace, SecureXMLSystem
from repro.obs.span import activate, span


class TestTrimmedMean:
    def test_drops_one_max_one_min(self):
        # 100 and 0 dropped, mean of [10, 20, 30] = 20.
        assert trimmed_mean([10, 100, 20, 0, 30]) == 20

    def test_small_samples_plain_mean(self):
        assert trimmed_mean([4, 8]) == 6
        assert trimmed_mean([7]) == 7

    def test_empty(self):
        assert trimmed_mean([]) == 0.0

    def test_paper_protocol_five_trials(self):
        """'average of 5 trials after dropping the maximum and minimum'."""
        trials = [1.0, 1.1, 1.2, 5.0, 0.1]
        assert trimmed_mean(trials) == pytest.approx((1.0 + 1.1 + 1.2) / 3)


class TestSavingRatio:
    def test_definition(self):
        # S = (T_worse - T_better) / T_worse
        assert saving_ratio(10.0, 4.0) == pytest.approx(0.6)

    def test_no_saving(self):
        assert saving_ratio(5.0, 5.0) == 0.0

    def test_negative_when_slower(self):
        assert saving_ratio(4.0, 6.0) == pytest.approx(-0.5)

    def test_zero_baseline(self):
        assert saving_ratio(0.0, 1.0) == 0.0


class TestAverageTraces:
    def _trace(self, server, decrypt):
        trace = QueryTrace(query="//x")
        with activate(trace.span):
            span("server").set_duration(server)
            span("decrypt").set_duration(decrypt)
        trace.transfer_bytes = 100
        return trace

    def test_stage_keys_present(self):
        averaged = average_traces([self._trace(1.0, 2.0)])
        assert set(averaged) >= {
            "t_server", "t_decrypt", "t_post", "t_translate",
            "t_transfer", "bytes", "blocks", "t_total",
        }

    def test_values_averaged(self):
        traces = [self._trace(s, 0.0) for s in (1.0, 2.0, 3.0, 4.0, 100.0)]
        averaged = average_traces(traces)
        assert averaged["t_server"] == pytest.approx(3.0)  # trims 1 and 100


class TestFormatTable:
    def test_alignment_and_title(self):
        table = format_table(
            ["name", "value"], [["alpha", 1.5], ["b", 20]], "My Title"
        )
        lines = table.splitlines()
        assert lines[0] == "My Title"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "1.5000" in table  # floats rendered with 4 decimals

    def test_empty_rows(self):
        table = format_table(["a"], [])
        assert "a" in table


class TestRunQueryClass:
    def test_end_to_end(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        result = run_query_class(system, "Qs", ["//patient", "//treat"])
        assert result.scheme == "opt"
        assert result.query_class == "Qs"
        assert result.query_count == 2
        assert result.total_s > 0

    def test_naive_flag(self, healthcare_doc, healthcare_scs):
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        targeted = run_query_class(system, "Qs", ["//SSN"])
        naive = run_query_class(system, "Qs", ["//SSN"], naive=True)
        assert naive.transfer_bytes > targeted.transfer_bytes
