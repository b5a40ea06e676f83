"""Smoke tests of the benchmark itself: ``pytest bench/`` (not tier-1).

Tiny documents and a fixed number of rounds, so the whole file runs in
well under half a minute.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import bootstrap
from measure import run_workload
from workloads import BY_NAME, WORKLOADS, Plan, build_document

SIZE = 30
ROUNDS = 2
SEED = 5

with open(os.path.join(bootstrap.REPO_ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


def run(name: str, traced: bool, seed: int = SEED):
    return run_workload(
        BY_NAME[name], seed, seconds=0, traced=traced, rounds=ROUNDS, size=SIZE
    )


@pytest.fixture(scope="module")
def results():
    return {
        (workload.name, traced): run(workload.name, traced)
        for workload in WORKLOADS
        for traced in (False, True)
    }


def test_names_are_plain():
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert names[: len(WORKLOADS)] == [w.name for w in WORKLOADS]


def test_every_declared_metric_is_emitted_for_every_workload(results):
    for (name, traced), result in results.items():
        declared = CONTRACT["per_layer" if traced else "end_to_end"]
        assert sorted(result.metrics) == sorted(m["name"] for m in declared)
        for metric in declared:
            value, unit = result.metrics[metric["name"]]
            assert unit == metric["unit"], metric["name"]
            assert value == value and abs(value) != float("inf")
            if not traced:
                assert value > 0, (name, metric["name"])


def test_no_op_fails(results):
    for (name, traced), result in results.items():
        assert result.failed == 0, (name, traced, result.failures)
        assert result.attempted >= 1


def test_stages_and_unaccounted_sum_to_op_wall(results):
    stages = [
        "client.translate_ms", "client.seal_ms", "netsim.transfer_wall_ms",
        "client.verify_ms", "client.decrypt_ms", "client.assemble_ms",
        "client.postprocess_ms", "pipeline.unaccounted_ms",
    ]
    for workload in WORKLOADS:
        metrics = results[workload.name, True].metrics
        exchange = "serving.rtt_ms" if workload.connections else "server.answer_wire_ms"
        total = sum(metrics[name][0] for name in stages + [exchange])
        path = os.path.join(bootstrap.OUT_DIR, f"trace-{workload.name}.jsonl")
        with open(path) as handle:
            spans = [json.loads(line) for line in handle]
        by_id = {span["id"]: span for span in spans}
        read_ids = {
            span["parent"] for span in spans if span["name"] == "client.translate"
        }
        reads = [span for span in spans if span["id"] in read_ids]
        wall = sum(
            (span["end"] - span["start"]) * span["scale"] for span in reads
        ) / len(reads)
        assert total == pytest.approx(wall * 1000, rel=0.01), workload.name
        for span in spans:
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]
                assert span["op"] == parent["op"]


def test_workloads_discriminate(results):
    share = {
        w.name: results[w.name, True].metrics["pipeline.decrypt_share"][0]
        for w in WORKLOADS
    }
    assert share["cold-ship"] >= 0.8
    assert share["cold-select"] <= 0.3
    hit = {
        w.name: results[w.name, True].metrics["client.plan_cache_hit_rate"][0]
        for w in WORKLOADS
    }
    assert hit["cold-ship"] == 0 and hit["cold-select"] == 0
    assert hit["hot-rw"] > 0.5
    shipped = {
        w.name: results[w.name, True].metrics["server.blocks_shipped"][0]
        for w in WORKLOADS
    }
    assert shipped["cold-ship"] > 0 and shipped["cold-select"] == 0


def test_same_seed_same_inputs_and_counts(results):
    for workload in WORKLOADS:
        document, _ = build_document(workload, SIZE)
        first = Plan(workload, document, SEED)
        again = Plan(workload, build_document(workload, SIZE)[0], SEED)
        for connection in range(max(1, workload.connections)):
            for index in range(3):
                assert first.round_ops(index, connection) == again.round_ops(
                    index, connection
                )
    for name in ("cold-select", "hot-rw"):
        again = run(name, traced=False)
        for metric in ("bytes_per_query", "storage_expansion"):
            assert again.metrics[metric] == results[name, False].metrics[metric]
        traced = run(name, traced=True)
        assert (
            traced.metrics["server.blocks_shipped"]
            == results[name, True].metrics["server.blocks_shipped"]
        )


def test_oracle_memo_never_goes_stale():
    """The oracle keeps answers a write cannot have changed; check it did."""
    from oracle import Oracle, canonical_answer
    from repro.xpath.evaluator import evaluate

    for workload in WORKLOADS:
        oracle = Oracle(build_document(workload, SIZE)[0])
        plan = Plan(workload, oracle.document, SEED)
        for index in range(12):
            for xpath in plan.distinct_reads():
                oracle.expected(xpath)
            for op in plan.round_ops(index):
                if op.is_write:
                    oracle.apply(op)
            for xpath in plan.distinct_reads():
                assert oracle.expected(xpath) == canonical_answer(
                    evaluate(oracle.document, xpath)
                ), (workload.name, index, xpath)


def test_oracle_reports_a_wrong_answer():
    from oracle import Observation, Oracle, canonical_answer, digest

    workload = BY_NAME["hot-rw"]
    oracle = Oracle(build_document(workload, SIZE)[0])
    right = digest(oracle.expected("//dataset/title"))
    stale = digest(canonical_answer([]))
    failures = oracle.check(
        [],
        [
            Observation("//dataset/title", 0, 0, right, 1),
            Observation("//dataset/title", 0, 0, stale, 2),
        ],
    )
    assert len(failures) == 1 and failures[0].startswith("op 2:")


def test_another_seed_changes_the_sampled_predicate_values():
    workload = BY_NAME["cold-select"]
    document, _ = build_document(workload, SIZE)
    reads = {
        seed: Plan(workload, document, seed).reads for seed in (SEED, SEED + 1)
    }
    assert reads[SEED] != reads[SEED + 1]
    assert len(reads[SEED]) == len(reads[SEED + 1])


def test_command_line_contract():
    done = subprocess.run(
        [
            sys.executable, os.path.join(bootstrap.BENCH_DIR, "run.py"),
            "--workload", "cold-select", "--seed", "3", "--seconds", "1",
            "--trace", "0", "--rounds", "1", "--size", str(SIZE),
        ],
        capture_output=True, text=True, env={**os.environ, "REPRO_BACKEND": "columnar"},
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in CONTRACT["end_to_end"]
    )
