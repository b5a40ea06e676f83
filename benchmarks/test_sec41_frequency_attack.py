"""E10 — §4.1 motivation: the frequency attack vs the defences, over keys.

The paper motivates decoys with the leukemia/age-40 example: naive
deterministic per-leaf encryption preserves occurrence frequencies, so an
attacker with exact frequency knowledge cracks unique-frequency values and
the protected association.  This benchmark mounts the attack against
*real hosted ciphertext* three ways:

1. the §4.1 strawman hosting (``scheme="leaf"``, ``secure=False``:
   deterministic per-leaf blocks, no decoys) — cracks;
2. the same leaf scheme hosted securely (decoys + randomized IVs) — fails;
3. the OPESS B-tree value index of the production ``opt`` hosting — fails.

"Fails" is scored, not read off one hosting.  The attack *claims* a match
whenever a unique plaintext frequency is met by exactly one ciphertext
count; against OPESS's secretly scaled counts that meeting is a
coincidence most master keys draw at least once on this document, and it
names the right ciphertext no more often than picking one of the field's
ciphertexts at random would.  So the
document is hosted under ``KEYS`` master keys and every claim is
adjudicated with the owner's keys
(:func:`repro.security.attacks.correctly_cracked`).
"""

from math import sqrt

from repro.bench.harness import format_table
from repro.security.attacks import frequency_attack_over_keys, sweep_keys
from repro.workloads.nasa import build_nasa_database, nasa_constraints

from conftest import write_result

KEYS = 40


def _run():
    document = build_nasa_database(dataset_count=40, seed=9)
    return frequency_attack_over_keys(
        document, nasa_constraints(), sweep_keys(KEYS)
    )


def test_sec41_frequency_attack(benchmark):
    tallies = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = [
        [
            field,
            design,
            str(tally.claimed),
            str(tally.correct),
            f"{tally.chance:.1f}",
            f"{tally.correct_fraction:.3f}",
        ]
        for field, by_design in tallies.items()
        for design, tally in by_design.items()
    ]
    table = format_table(
        ["field", "design", "claimed", "correct", "by chance",
         "values cracked"],
        rows,
        f"§4.1 — frequency attack on real hosted ciphertext, three designs, "
        f"summed over {KEYS} master keys",
    )
    write_result("sec41_frequency_attack", table)

    for field, by_design in tallies.items():
        strawman, decoys, opess = (
            by_design[design] for design in ("strawman", "decoys", "opess")
        )
        # Everything the strawman claims is true: equal plaintexts are
        # equal ciphertexts under any key.
        assert strawman.correct == strawman.claimed, field
        # With decoys every payload is distinct: nothing to claim.
        assert decoys.claimed == 0, field
        # OPESS: claims happen, and are right at the rate of a random
        # pick (three Poisson standard deviations of slack).
        assert opess.correct <= opess.chance + 3 * sqrt(opess.chance) + 1, (
            field, opess,
        )
        assert opess.correct_fraction < 0.02, (field, opess)
    # The strawman leaks `last` outright: 5 of its 12 values, every key.
    assert tallies["last"]["strawman"].correct_fraction >= 5 / 12
