"""The paper's contribution: secure encryption schemes, metadata and querying.

Module map (paper section in parentheses):

* :mod:`repro.core.constraints` — security constraints (§3.2)
* :mod:`repro.core.constraint_graph` — the tag/association graph (§4.2, Fig. 8)
* :mod:`repro.core.optimal` — optimal & approximate vertex-cover solvers (§4.2)
* :mod:`repro.core.scheme` — encryption schemes: top/sub/app/opt (§4, §7.1)
* :mod:`repro.core.decoy` — encryption decoys (§4.1)
* :mod:`repro.core.encryptor` — block extraction and AES encryption (§4.1)
* :mod:`repro.core.dsi` — the DSI structural index + block table (§5.1)
* :mod:`repro.core.opess` — order-preserving encryption with splitting and
  scaling, and the value index of key-ordered runs (§5.2)
* :mod:`repro.core.translate` — client-side query translation (§6.1)
* :mod:`repro.core.structural_join` — interval pattern matching (§6.2)
* :mod:`repro.core.server` — the untrusted server (§6.2)
* :mod:`repro.core.client` — the data owner (§6.1, §6.4)
* :mod:`repro.core.system` — the end-to-end façade with per-stage tracing
"""
