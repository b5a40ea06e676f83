"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, build_workload, main


class TestBuildWorkload:
    def test_healthcare(self):
        document, constraints = build_workload("healthcare", 10, 1)
        assert document.root.tag == "hospital"
        assert len(constraints) == 4

    def test_xmark_scales(self):
        small, _ = build_workload("xmark", 5, 1)
        large, _ = build_workload("xmark", 20, 1)
        assert large.size() > small.size()

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            build_workload("mystery", 10, 1)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_requires_xpath(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query"])

    def test_defaults(self):
        args = build_parser().parse_args(["host"])
        assert args.workload == "healthcare"
        assert args.scheme == "opt"

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster"],
            ["host", "--shards", "4"],
            ["stats", "--shards", "4", "--replicas", "2"],
            ["serve", "--replicas", "2"],
        ],
    )
    def test_cluster_command_and_flags_are_errors(self, argv, capsys):
        """Gone with the sharded join — and loudly, not as silent no-ops."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "763895" in output and "276543" in output
        assert "t_decrypt" in output

    def test_host(self, capsys):
        assert main(["host", "--workload", "healthcare"]) == 0
        output = capsys.readouterr().out
        assert "blocks" in output and "hosted bytes" in output

    def test_query(self, capsys):
        assert main(
            ["query", "--workload", "healthcare",
             "//treat[disease='leukemia']/doctor"]
        ) == 0
        output = capsys.readouterr().out
        assert "<doctor>Brown</doctor>" in output

    def test_query_on_generated_workload(self, capsys):
        assert main(
            ["query", "--workload", "nasa", "--size", "5", "//publisher"]
        ) == 0
        assert "answers" in capsys.readouterr().out

    def test_attack(self, capsys):
        assert main(
            ["attack", "--workload", "healthcare"]
        ) == 0
        output = capsys.readouterr().out
        assert "disease: strawman correctly cracked 1.00 of 2 values" in output
        assert "claims right over 20 keys" in output
        # No field's OPESS index gives up more than a stray coincidence.
        for line in output.splitlines():
            if "OPESS" in line:
                correct = int(line.split("OPESS ")[1].split("/")[0])
                assert correct <= 2, line

    def test_schemes(self, capsys):
        assert main(
            ["schemes", "--workload", "xmark", "--size", "10"]
        ) == 0
        output = capsys.readouterr().out
        for kind in ("top", "sub", "app", "opt"):
            assert kind in output

    def test_save_and_load_roundtrip(self, capsys, tmp_path):
        directory = str(tmp_path / "hosting")
        assert main(
            ["host", "--workload", "healthcare", "--save", directory]
        ) == 0
        capsys.readouterr()
        assert main(
            ["query", "--load", directory,
             "//treat[disease='leukemia']/doctor"]
        ) == 0
        assert "<doctor>Brown</doctor>" in capsys.readouterr().out

    def test_save_and_load_with_passphrase(self, capsys, tmp_path):
        directory = str(tmp_path / "hosting")
        assert main(
            ["host", "--workload", "healthcare", "--key", "s3cret",
             "--save", directory]
        ) == 0
        capsys.readouterr()
        assert main(
            ["query", "--load", directory, "--key", "s3cret", "//SSN"]
        ) == 0
        assert "763895" in capsys.readouterr().out

    def test_load_with_wrong_passphrase_sees_nothing(self, capsys, tmp_path):
        directory = str(tmp_path / "hosting")
        main(["host", "--workload", "healthcare", "--key", "right",
              "--save", directory])
        capsys.readouterr()
        assert main(
            ["query", "--load", directory, "--key", "wrong", "//SSN"]
        ) == 0
        assert "answers (0)" in capsys.readouterr().out


class TestObservabilityCommands:
    def test_trace_prints_tree_and_reconciliation(self, capsys):
        assert main(["trace", "//patient/SSN"]) == 0
        out = capsys.readouterr().out
        assert "answers: 2" in out
        for stage in ("query", "translate", "server", "decrypt",
                      "postprocess"):
            assert stage in out
        assert "reconciliation" in out

    def test_trace_nests_server_stages(self, capsys):
        assert main(["trace", "/hospital/patient"]) == 0
        out = capsys.readouterr().out
        assert "server.join" in out
        assert "server.serialize" in out

    def test_stats_table(self, capsys):
        assert main(["stats", "--per-class", "1"]) == 0
        out = capsys.readouterr().out
        assert "latency histograms" in out
        assert "query_seconds" in out
        assert "slow-query log" in out

    def test_stats_table_includes_serving_metrics(self, capsys):
        assert main(["stats", "--per-class", "1"]) == 0
        out = capsys.readouterr().out
        assert "serving gauges + labeled counters" in out
        assert "serving_connections" in out
        assert "serving_request_seconds" in out

    def test_stats_json(self, capsys):
        import json

        assert main(["stats", "--per-class", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["histograms"]["query_seconds"]["count"] > 0
        assert "slow_queries" in payload

    def test_stats_prometheus_is_lint_clean(self, capsys):
        from prometheus_lint import lint_prometheus, parse_prometheus

        for argv in (
            ["stats", "--per-class", "1", "--format", "prometheus"],
            # The default --per-class, as an operator's first run sees it.
            ["stats", "--workload", "healthcare", "--format", "prometheus"],
        ):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert lint_prometheus(out) == []
            samples = parse_prometheus(out)
            assert samples["repro_query_seconds_count"] > 0
            assert samples["repro_serving_connections"] == 0
            assert not [name for name in samples if "shard" in name]
            assert "repro_replica_epoch_lag_count" in samples


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.tenant == "default"
        assert args.port == 0
        assert args.max_inflight == 64
        assert args.serve_for is None

    def test_serve_for_duration_then_drains(self, capsys, tmp_path):
        directory = str(tmp_path / "hosting")
        assert main(
            ["serve", "--serve-for", "0.1", "--storage", directory,
             "--tenant", "clinic"]
        ) == 0
        out = capsys.readouterr().out
        assert "serving tenant 'clinic'" in out
        assert "drained and stopped" in out
        capsys.readouterr()
        # The drain persisted a loadable hosting.
        assert main(["query", "--load", directory, "//SSN"]) == 0
        assert "763895" in capsys.readouterr().out

    def test_serve_with_the_countermeasures_on(self, capsys):
        assert main(["serve", "--leakage", "--serve-for", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "access-pattern countermeasures on" in out
        assert "seed" not in out
        assert "drained and stopped" in out

    def test_leakage_is_a_serve_flag_only(self, capsys):
        assert build_parser().parse_args(["serve"]).leakage is False
        for command in ("host", "query", "trace", "stats", "attack"):
            argv = [command, "--leakage"]
            if command in ("query", "trace"):
                argv.append("//SSN")
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
        capsys.readouterr()

    def test_served_tenant_answers_over_the_socket(self):
        """The same stack ``repro serve`` wires, driven by a remote peer."""
        from repro.core.system import SecureXMLSystem
        from repro.serving import ServingServer, remote_system
        from repro.workloads.healthcare import (
            build_healthcare_database,
            healthcare_constraints,
        )

        local = SecureXMLSystem.host(
            build_healthcare_database(), healthcare_constraints(),
            scheme="opt",
        )
        server = ServingServer()
        server.register_tenant("default", local)
        remote = remote_system(local, server.start(), "default")
        try:
            assert remote.query("//SSN").canonical() == (
                local.query("//SSN").canonical()
            )
        finally:
            remote.close()
            server.stop()
            local.close()
