"""Update-trace attacker: a shared-prefix distinguisher over rewritten blocks.

The fourth observer of the suite, after the ciphertext-distribution
attacker (:mod:`repro.security.attacks`), the rollback attacker
(:mod:`repro.netsim.faults`) and the access-pattern attacker
(:mod:`repro.security.leakage`): an honest-but-curious server that keeps
what a block location held *before* a write and compares it with what it
holds after.  It never sees plaintext or keys — only two ciphertexts and
the fact that the owner wrote between them, which is exactly what
*Information Flows in Encrypted Databases* asks an update to be priced by.

CBC under a repeated IV is deterministic block by block until the
plaintexts part: two encryptions of ``P`` and ``P'`` under one IV agree in
their leading cipher blocks for exactly as long as ``P`` and ``P'`` agree
in whole 16-byte blocks.  A leaf block's plaintext opens with
``<tag>value…``, so an owner who re-encrypts a block under the IV (and the
decoy draws) its previous payload used tells the server whether the value
kept its first ``16 − len("<tag>")`` characters — and, after a delete →
insert that reuses the deleted block's id, whether the *whole* value came
back.  The distinguisher guesses "same leading plaintext block" iff the
leading cipher blocks are equal; against a derivation that never repeats a
nonce that rule degenerates to always answering "different".

The game (:func:`run_shared_prefix_game`) is a known-distribution
challenge: the challenger writes an old and a new value through a
caller-supplied ``write`` (a hosted system's update API, or a strawman
derivation a test wants to demonstrate the attack on), labels the pair
with the ground truth, and scores the distinguisher against the best
blind guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.decoy import DECOY_TAG

#: AES block size: the granularity at which CBC under one IV leaks.
CIPHER_BLOCK = 16


def leading_plaintext_block(tag: str, value: str) -> bytes:
    """First cipher-block's worth of a single-leaf block's plaintext.

    A leaf block serializes as ``<tag>value<__decoy__>…``; the decoy's own
    random value starts past the bytes this returns whenever they span a
    full block, which the game checks.
    """
    return f"<{tag}>{value}<{DECOY_TAG}>".encode("utf-8")[:CIPHER_BLOCK]


def guess_same_prefix(old: bytes, new: bytes) -> bool:
    """The distinguisher: equal leading cipher blocks ⇒ "same prefix"."""
    return old[:CIPHER_BLOCK] == new[:CIPHER_BLOCK]


@dataclass(frozen=True)
class SharedPrefixReport:
    """Outcome of one game, in the shape of the other attack reports."""

    #: (old, new) ciphertext pairs the distinguisher judged.
    trials: int
    #: Pairs whose plaintexts really shared their leading block.
    same: int
    #: Correct guesses.
    correct: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.trials if self.trials else 0.0

    @property
    def baseline(self) -> float:
        """Accuracy of the best guess that ignores the ciphertexts."""
        if not self.trials:
            return 0.0
        return max(self.same, self.trials - self.same) / self.trials

    @property
    def advantage(self) -> float:
        """Excess accuracy over the blind guess, clamped at zero."""
        return max(0.0, self.accuracy - self.baseline)

    def describe(self) -> str:
        return (
            f"shared-prefix distinguisher: {self.correct}/{self.trials} "
            f"correct (accuracy {self.accuracy:.3f}, blind "
            f"{self.baseline:.3f}, advantage {self.advantage:.3f})"
        )


def run_shared_prefix_game(
    write: Callable[[str], bytes],
    tag: str,
    pairs: Iterable[tuple[str, str]],
) -> SharedPrefixReport:
    """Play the distinguisher over ``(old value, new value)`` pairs.

    ``write(value)`` stores ``value`` at the location under attack — one
    ``update_value``, or a delete followed by an insert — and returns the
    ciphertext the server holds there afterwards.  A balanced ``pairs``
    (half sharing their leading plaintext block) makes the blind baseline
    0.5 and the advantage range ``[0, 0.5]``.
    """
    trials = same = correct = 0
    for old_value, new_value in pairs:
        old_block = leading_plaintext_block(tag, old_value)
        new_block = leading_plaintext_block(tag, new_value)
        if len(old_block) != CIPHER_BLOCK or len(new_block) != CIPHER_BLOCK:
            raise ValueError("values too short to fill a cipher block")
        truth = old_block == new_block
        old_cipher = write(old_value)
        new_cipher = write(new_value)
        trials += 1
        same += truth
        correct += guess_same_prefix(old_cipher, new_cipher) == truth
    return SharedPrefixReport(trials=trials, same=same, correct=correct)
