"""Security analysis: the paper's attack model and theorem machinery.

* :mod:`repro.security.attacks` — frequency-based and size-based attack
  simulators (§3.3), used to demonstrate that naive per-leaf encryption is
  crackable while the decoy/OPESS constructions are not (§4.1, §5.2).
* :mod:`repro.security.indistinguishability` — the Definition 3.1 checker.
* :mod:`repro.security.counting` — exact candidate-database counts behind
  Theorems 4.1, 5.1 and 5.2 (big-integer arithmetic).
* :mod:`repro.security.belief` — the attacker-belief tracker of
  Definition 3.5 / Theorem 6.1.
* :mod:`repro.security.leakage` — the access-pattern attacker's
  known-query recovery game.

The update-trace attacker (a shared-prefix distinguisher over the
ciphertexts a write replaces) and the rollback attacker are test doubles:
``tests/nonce_reuse.py`` and ``tests/fault_channel.py``.
"""

from repro.security.attacks import FrequencyAttack, SizeAttack
from repro.security.counting import (
    database_candidates,
    structural_candidates,
    value_index_candidates,
)
from repro.security.belief import BeliefTracker

__all__ = [
    "FrequencyAttack",
    "SizeAttack",
    "database_candidates",
    "structural_candidates",
    "value_index_candidates",
    "BeliefTracker",
]
