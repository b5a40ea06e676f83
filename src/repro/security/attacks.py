"""Attack simulators for the §3.3 adversary.

The adversary is honest-but-curious with exact background knowledge of the
domain values and their occurrence frequencies per field, but no knowledge
of the tag distribution or value correlations.  Two attacks are modelled:

:class:`FrequencyAttack`
    Match plaintext values to ciphertext values by frequency.  Against a
    *naive* deterministic per-leaf encryption (no decoys, no OPESS) the
    frequency histogram is preserved and unique-frequency values are
    cracked outright — the §4.1 motivating failure.  Against the decoy
    construction every ciphertext has frequency 1 (database side), and
    against OPESS every ciphertext frequency is in {m−1, m, m+1} scaled by
    secret factors (index side), so the attack degrades to guessing among
    the Theorem 4.1 / 5.2 candidate sets.  What :meth:`FrequencyAttack.run`
    reports as *cracked* is a **claim** — a unique-frequency value met by
    exactly one ciphertext count.  Against randomly scaled counts such a
    meeting is a coincidence that some master keys draw and others do
    not, so a claim is only attacker success when it names the right
    ciphertext: :func:`correctly_cracked` adjudicates with the owner's
    keys, and :func:`frequency_attack_over_keys` sums claims, correct
    claims and the chance rate over many hostings.

:class:`SizeAttack`
    Eliminate candidate databases whose encryption has a different size
    than the observed ciphertext.  Candidates built by value-permutation
    of the true database survive (equal sizes) — condition (1) of
    Definition 3.1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from repro.core.opess import chunk_ciphertexts
from repro.crypto.hmac import derive_key
from repro.security.counting import database_candidates
from repro.xmldb.node import EncryptedBlockNode
from repro.xmldb.serializer import serialize
from repro.xmldb.stats import value_frequencies


@dataclass
class AttackReport:
    """Outcome of a simulated attack on one field."""

    field: str
    #: plaintext values the attacker recovered with certainty
    cracked: dict[str, object]
    #: number of plaintext values in the field
    domain_size: int
    #: attacker's success probability of a full correct assignment
    success_probability: Fraction

    @property
    def cracked_fraction(self) -> float:
        if self.domain_size == 0:
            return 0.0
        return len(self.cracked) / self.domain_size


class FrequencyAttack:
    """Frequency matching between known plaintext and observed ciphertext."""

    def __init__(self, plaintext_histogram: Counter) -> None:
        """``plaintext_histogram``: the attacker's exact prior knowledge."""
        self._plaintext = Counter(plaintext_histogram)

    def run(self, ciphertext_histogram: Counter, field: str = "") -> AttackReport:
        """Attack one field's observed ciphertext frequency profile.

        A plaintext value is *cracked* when its frequency is unique in the
        prior and exactly one ciphertext shows that frequency.  The overall
        success probability is ``1 / #consistent assignments``, where
        assignments map each plaintext value to a disjoint set of
        ciphertexts whose frequencies sum to the known count (0 if the
        profiles are inconsistent).
        """
        plain_frequencies = Counter(self._plaintext.values())
        cipher_by_frequency: dict[int, list[object]] = {}
        for ciphertext, count in ciphertext_histogram.items():
            cipher_by_frequency.setdefault(count, []).append(ciphertext)

        cracked: dict[str, object] = {}
        for value, count in self._plaintext.items():
            if plain_frequencies[count] != 1:
                continue
            exact = cipher_by_frequency.get(count, [])
            if len(exact) == 1 and sum(
                1
                for other_count, bucket in cipher_by_frequency.items()
                if other_count == count
                for _ in bucket
            ) == 1:
                cracked[value] = exact[0]

        success = self._assignment_probability(ciphertext_histogram)
        return AttackReport(
            field=field,
            cracked=cracked,
            domain_size=len(self._plaintext),
            success_probability=success,
        )

    def _assignment_probability(
        self, ciphertext_histogram: Counter
    ) -> Fraction:
        """1 / #(order-free consistent assignments), coarse but sound.

        Exact assignment counting is subset-sum-hard in general; we use the
        paper's own bounds: if the ciphertext profile equals the plaintext
        profile (naive encryption), the count is the product over frequency
        classes of (class size)! permutations; if every ciphertext has
        frequency 1 (decoy encryption), the count is Theorem 4.1's
        multinomial; otherwise we report the conservative lower bound 1
        (attacker may be able to crack it) unless the totals differ, in
        which case the observation is inconsistent and probability is 0.
        """
        plain_counts = sorted(self._plaintext.values())
        cipher_counts = sorted(ciphertext_histogram.values())
        if sum(plain_counts) != sum(cipher_counts):
            # Scaling broke the total-count invariant: no consistent
            # assignment the attacker can pin down.
            candidates = database_candidates(plain_counts)
            return Fraction(1, max(candidates, 1))
        if plain_counts == cipher_counts:
            permutations = 1
            for class_size in Counter(plain_counts).values():
                for i in range(2, class_size + 1):
                    permutations *= i
            return Fraction(1, permutations)
        if all(count == 1 for count in cipher_counts):
            return Fraction(1, database_candidates(plain_counts))
        return Fraction(1, 1)


class TagDistributionAttack:
    """The §8 item-2 limitation, demonstrated: tag-frequency matching.

    "Our current scheme cannot provide security against an attacker who
    has the prior knowledge of tag distribution" — the Vernam tag cipher
    is deterministic per tag, so an attacker who knows how often each tag
    occurs can match token *occurrence counts* in the DSI index table
    against the known tag histogram, exactly as the frequency attack
    matches values.  This class mounts that attack so the limitation is a
    reproducible fact rather than a remark.

    A tag cracks when its occurrence count is unique in the prior and
    exactly one token shows that count.  (Grouping blunts the attack a
    little: the table exposes entry/member counts, and we give the
    attacker the stronger member count.)
    """

    def __init__(self, tag_histogram: Counter) -> None:
        self._tags = Counter(tag_histogram)

    def run(self, hosted) -> dict[str, str]:
        """Return cracked {tag: token} against a hosted database's index."""
        token_counts: Counter = Counter()
        for key, entries in hosted.structural_index.table.items():
            encrypted = [e for e in entries if e.block_id is not None]
            if not encrypted or len(encrypted) != len(entries):
                continue  # plaintext tags are not hidden to begin with
            token_counts[key] = sum(len(e.member_ids) for e in encrypted)

        count_frequency = Counter(self._tags.values())
        tokens_by_count: dict[int, list[str]] = {}
        for token, count in token_counts.items():
            tokens_by_count.setdefault(count, []).append(token)

        cracked: dict[str, str] = {}
        for tag, count in self._tags.items():
            if count_frequency[count] != 1:
                continue
            candidates = tokens_by_count.get(count, [])
            if len(candidates) == 1:
                cracked[tag] = candidates[0]
        return cracked


def ciphertext_block_histogram(hosted, field_token: str) -> Counter:
    """The block-payload frequency profile of one field, as the attacker sees it.

    The DSI index table maps every tag token to interval entries, and each
    entry resolves to an encryption block; grouping blocks by identical
    ciphertext payload gives the attacker the per-field ciphertext
    histogram.  With decoys and randomized IVs every payload is unique
    (frequency 1 across the board); with the §4.1 strawman, equal
    plaintext leaves collide and the plaintext histogram shines through.
    """
    histogram: Counter = Counter()
    for entry in hosted.structural_index.lookup(field_token):
        if entry.block_id is None:
            continue
        payload = hosted.blocks.get(entry.block_id)
        if payload is not None:
            histogram[payload] += len(entry.member_ids)
    return histogram


def correctly_cracked(system, report: AttackReport) -> int:
    """How many of the report's claimed cracks name the right ciphertext.

    A frequency match can assert a value→ciphertext mapping with false
    certainty (a partial view, or OPESS counts that happen to
    coincide); only a mapping that is *true* is attacker advantage.  The
    caller holds the client keys, so it can adjudicate: a claimed block
    payload must decrypt to the value, a claimed value-index key must be
    one of the value's chunk ciphertexts under the field's plan.
    """
    hosted = system.hosted
    correct = 0
    for value, ciphertext in report.cracked.items():
        if isinstance(ciphertext, int):
            plan = hosted.field_plans[report.field]
            correct += ciphertext in chunk_ciphertexts(
                plan, value, system.keyring.ope
            )
            continue
        block_id = next(
            (i for i, stored in hosted.blocks.items() if stored == ciphertext),
            None,
        )
        if block_id is None:
            continue
        subtree = system.client.decrypt_fragment(
            serialize(EncryptedBlockNode(block_id, ciphertext))
        )
        correct += any(
            getattr(node, "text_value", lambda: None)() == value
            for node in subtree.iter()
        )
    return correct


@dataclass(frozen=True)
class CrackTally:
    """Frequency-attack claims on one design of one field, over hostings."""

    #: hostings (master keys) summed over
    hostings: int
    #: plaintext values in the field
    domain_size: int
    #: value→ciphertext matches the attack asserted
    claimed: int
    #: of those, matches that name the right ciphertext
    correct: int
    #: expected correct matches had each claim named one of the field's
    #: observed ciphertexts uniformly at random
    chance: float

    @property
    def correct_fraction(self) -> float:
        """Plaintext values truly recovered, per value per hosting."""
        total = self.hostings * self.domain_size
        return self.correct / total if total else 0.0



def sweep_keys(count: int) -> list[bytes]:
    """``count`` independent master keys for an across-key experiment."""
    return [
        derive_key(b"frequency-attack-key-sweep", str(index))
        for index in range(count)
    ]


def frequency_attack_over_keys(
    document, constraints, master_keys: Iterable[bytes]
) -> dict[str, dict[str, CrackTally]]:
    """Mount the frequency attack on three designs under every key.

    For each master key the document is hosted as the §4.1 strawman
    (``leaf`` scheme, ``secure=False``), as the same leaf scheme with
    decoys, and as the production ``opt`` hosting whose OPESS value index
    is attacked; returns ``{field: {design: CrackTally}}`` — designs
    ``"strawman"``, ``"decoys"``, ``"opess"`` — over the fields all three
    protect.  One draw of one key says little — whether
    a scaled OPESS count lands on a unique plaintext frequency is a coin
    the key flips — so claims are scored for correctness and summed.
    """
    from repro.core.system import SecureXMLSystem

    prior = value_frequencies(document)
    sums: dict[str, dict[str, list]] = {}
    hostings = 0
    for master_key in master_keys:
        hostings += 1
        systems = {
            "strawman": SecureXMLSystem.host(
                document, constraints, scheme="leaf", secure=False,
                master_key=master_key,
            ),
            "decoys": SecureXMLSystem.host(
                document, constraints, scheme="leaf", master_key=master_key
            ),
            "opess": SecureXMLSystem.host(
                document, constraints, scheme="opt", master_key=master_key
            ),
        }
        try:
            fields = sorted(
                set.intersection(
                    *(set(s.hosted.field_plans) for s in systems.values())
                )
            )
            for field in fields:
                attack = FrequencyAttack(prior[field])
                for design, system in systems.items():
                    hosted = system.hosted
                    token = hosted.field_tokens[field]
                    # ``right[value]``: how many observed ciphertexts a
                    # claim about ``value`` could correctly name.
                    if design == "opess":
                        histogram = hosted.value_index.ciphertext_histogram(
                            token
                        )
                        chunk_plan = hosted.field_plans[field].chunk_plan
                        right = {v: len(c) for v, c in chunk_plan.items()}
                    else:
                        histogram = ciphertext_block_histogram(hosted, token)
                        # Leaf blocks: equal values share one payload
                        # without decoys and none with them.
                        right = (
                            prior[field]
                            if hosted.secure
                            else dict.fromkeys(prior[field], 1)
                        )
                    report = attack.run(histogram, field)
                    tally = sums.setdefault(field, {}).setdefault(
                        design, [0, 0, 0.0]
                    )
                    tally[0] += len(report.cracked)
                    tally[1] += correctly_cracked(system, report)
                    tally[2] += sum(
                        right[value] / len(histogram)
                        for value in report.cracked
                    )
        finally:
            for system in systems.values():
                system.close()
    return {
        field: {
            design: CrackTally(
                hostings=hostings,
                domain_size=len(prior[field]),
                claimed=claimed,
                correct=correct,
                chance=chance,
            )
            for design, (claimed, correct, chance) in by_design.items()
        }
        for field, by_design in sums.items()
    }


class SizeAttack:
    """Candidate elimination by ciphertext size (Definition 3.1 cond. 1)."""

    def __init__(self, observed_size: int) -> None:
        self._observed = observed_size

    def surviving(self, candidate_sizes: list[int]) -> list[int]:
        """Indices of candidates whose encrypted size matches."""
        return [
            index
            for index, size in enumerate(candidate_sizes)
            if size == self._observed
        ]

    def eliminates(self, candidate_size: int) -> bool:
        return candidate_size != self._observed
