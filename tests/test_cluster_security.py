"""Sharding must not *create* leakage: per-shard attacks vs monolithic.

The cluster replicates the index metadata (the paper already counts it
as server-visible) but partitions the ciphertext payloads, so a single
compromised shard observes the same index and **strictly fewer** block
payloads than the monolithic server.  These tests pin the consequence
with the existing attack toolkit: the frequency attack run against any
one shard's view cracks no more than the same attack against the whole
hosting — on the secure schemes (nothing, on both) and on the §4.1
strawman, where the monolithic histogram genuinely cracks.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cluster import ClusterConfig
from repro.core.system import SecureXMLSystem
from repro.security.attacks import (
    FrequencyAttack,
    ciphertext_block_histogram,
    correctly_cracked,
)
from repro.security.indistinguishability import (
    indistinguishable,
    permute_field_values,
)
from repro.xmldb.stats import value_frequencies

SHARDS = 3
FIELD = "disease"


def shard_views(system):
    return [
        replica_set.replicas[0].server.shard_view()
        for replica_set in system.coordinator.replica_sets
    ]


def run_attack(document, view, token):
    fields = value_frequencies(document)
    attack = FrequencyAttack(fields[FIELD])
    return attack.run(ciphertext_block_histogram(view, token), FIELD)


class TestShardedFrequencyAttack:
    @pytest.fixture
    def strawman(self, healthcare_doc, healthcare_scs):
        return SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="leaf", secure=False,
            cluster=ClusterConfig(shards=SHARDS),
        )

    def test_shard_views_partition_the_histogram(
        self, healthcare_doc, strawman
    ):
        token = strawman.hosted.field_tokens[FIELD]
        whole = ciphertext_block_histogram(strawman.hosted, token)
        merged: Counter = Counter()
        for view in shard_views(strawman):
            merged += ciphertext_block_histogram(view, token)
        assert merged == whole

    def test_per_shard_advantage_not_above_monolithic(
        self, healthcare_doc, strawman
    ):
        token = strawman.hosted.field_tokens[FIELD]
        monolithic = run_attack(
            healthcare_doc, strawman.hosted, token
        )
        assert monolithic.cracked, "strawman no longer cracks — bad fixture"
        whole_correct = correctly_cracked(strawman, monolithic)
        assert whole_correct == len(monolithic.cracked), (
            "monolithic strawman cracks should all be true"
        )
        for view in shard_views(strawman):
            report = run_attack(healthcare_doc, view, token)
            assert (
                correctly_cracked(strawman, report) <= whole_correct
            ), f"shard {view.shard_id} out-cracked the whole view"

    def test_secure_hosting_no_shard_gains_advantage(
        self, healthcare_doc, healthcare_scs
    ):
        """On the secure scheme, no shard's success probability rises.

        A partial histogram can trip the frequency matcher into a
        *claimed* crack (the matcher assumes it saw every block of the
        field, so a lone frequency-1 payload "matches" the unique-count
        value) — but such a claim is a guess at exactly the baseline
        rate.  The formal advantage — the attack's success probability
        of a full correct assignment — must not exceed the monolithic
        attacker's, and the monolithic attacker must truly crack
        nothing.
        """
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            cluster=ClusterConfig(shards=SHARDS),
        )
        token = system.hosted.field_tokens[FIELD]
        monolithic = run_attack(healthcare_doc, system.hosted, token)
        assert correctly_cracked(system, monolithic) == 0
        assert monolithic.success_probability < 1
        for view in shard_views(system):
            report = run_attack(healthcare_doc, view, token)
            assert (
                report.success_probability
                <= monolithic.success_probability
            ), f"shard {view.shard_id} amplified the attack"


class TestShardIndistinguishability:
    def test_candidate_database_indistinguishable_per_shard(
        self, healthcare_doc, healthcare_scs
    ):
        """A Theorem 4.1 candidate stays indistinguishable shard by shard.

        D′ permutes the protected field's values (same structure, same
        per-field histograms), so the placements coincide and a shard
        compromise must observe the same ciphertext frequency profile
        for D and D′ — otherwise sharding would have broken the
        candidate family the security theorems quantify over.
        """
        candidate = permute_field_values(healthcare_doc, FIELD, seed=5)
        assert indistinguishable(healthcare_doc, candidate)

        original = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt",
            cluster=ClusterConfig(shards=SHARDS),
        )
        permuted = SecureXMLSystem.host(
            candidate, healthcare_scs, scheme="opt",
            cluster=ClusterConfig(shards=SHARDS),
        )
        token_a = original.hosted.field_tokens[FIELD]
        token_b = permuted.hosted.field_tokens[FIELD]
        for view_a, view_b in zip(
            shard_views(original), shard_views(permuted)
        ):
            profile_a = sorted(
                ciphertext_block_histogram(view_a, token_a).values()
            )
            profile_b = sorted(
                ciphertext_block_histogram(view_b, token_b).values()
            )
            assert profile_a == profile_b, (
                f"shard {view_a.shard_id} frequency profiles diverged"
            )
