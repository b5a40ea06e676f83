"""Workloads: the paper's running example plus the two evaluation datasets.

* :mod:`repro.workloads.healthcare` — the Figure 2 hospital database and
  the Example 3.1 security constraints, reproduced exactly.
* :mod:`repro.workloads.xmark` — a seeded XMark-like auction-site generator
  (the paper's synthetic dataset) with the Figure 8(a) constraint graph.
* :mod:`repro.workloads.nasa` — a seeded NASA-like astronomy dataset
  generator (the paper's real dataset) with the Figure 8(b) constraint
  graph.
* :mod:`repro.workloads.queries` — the Qs / Qm / Ql query classes of §7.1.
* :mod:`repro.workloads.rng` — the seeded stream all of the above draw
  from, kept apart from the keyring's so that documents never move with it.
"""
