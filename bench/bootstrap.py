"""Process hygiene shared by every benchmark entry point."""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def scrubbed_environment() -> dict[str, str]:
    """A copy of the environment without any ``REPRO_*`` variable.

    ``REPRO_BACKEND``, ``REPRO_WORKERS``, ``REPRO_SHARDS``,
    ``REPRO_REPLICAS`` and ``REPRO_LEAKAGE`` all select alternative code
    paths; the benchmark measures the defaults.
    """
    return {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }


def prepare() -> None:
    """Scrub ``REPRO_*`` and make this checkout's ``repro`` importable.

    Call before importing anything from ``repro``.  Refuses to go on if
    ``repro`` would resolve outside this checkout's ``src/`` — a benchmark
    that silently measured an installed copy would compare a commit
    against itself.
    """
    for name in set(os.environ) - set(scrubbed_environment()):
        del os.environ[name]
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SystemExit(
            f"bench: no program to measure: {SRC_DIR}/repro does not exist"
        )
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC_DIR + os.sep):
        raise SystemExit(
            f"bench: 'repro' resolved to {repro.__file__}, outside {SRC_DIR}"
        )
