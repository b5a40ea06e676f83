"""Soak guard: no long-lived structure grows without the live state.

One seeded NASA hosting runs a fixed operation mix: reads of several
shapes with literals a peer picks, encrypted and plaintext inserts,
plaintext and encrypted value updates, and deletes.  The mix runs once on
the hosted handle, which is then saved and loaded, and twice more on the
loaded handle.  Every round of the mix deletes what it inserted, so the
live tree, blocks and index entries end each window as they began.

After each of the last two windows the ``len()`` of every container
attribute is taken, of: the hosted database, its structural index, value
index and Merkle tree; every ``EpochCache`` of the client and the server;
the keyring and the ciphers it derives; each field's ``KeyRuns``.  Each
must stay within the live node, block and entry counts, or within its
cache's share of ``EpochCache.BOUND``.  And none may grow across the
second window by more than the live state did: a structure that keeps
something per operation grows in both windows alike.

A ``len()`` cannot see a structure that grows inside one entry, or a
module-level one, so the mix also runs under ``tracemalloc``: after a
warm window, one snapshot follows each of two more equal windows, and no
allocation site in the package may hold more than
:data:`SITE_GROWTH_BOUND` bytes more after the second than after the
first.  A log that keeps ~100 bytes per read grows by tens of kilobytes
a window; what the bounded caches churn nets out to a few.
"""

import gc
import random
import tracemalloc

from repro.core.epoch_cache import EpochCache
from repro.core.storage import load_system, save_system
from repro.core.system import SecureXMLSystem
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.xpath.evaluator import evaluate

MASTER = b"soak-guard-master-key-16"
ROUNDS = 24
#: Bytes one allocation site may gain across the second traced window.
SITE_GROWTH_BOUND = 16 * 1024
_CONTAINERS = (dict, list, set, frozenset, tuple, EpochCache)


def _mix(titles: list[str], seed: int) -> list[tuple]:
    """One window's operations, as ``(method, *arguments)``."""
    rng = random.Random(seed)
    lasts = ["Hubble", "Kepler", "Rubin", "Sagan", "Nobody"]
    operations: list[tuple] = []
    for round_ in range(ROUNDS):
        title = rng.choice(titles)
        dataset = f"//dataset[title='{title}']"
        where = f"{dataset}/distribution"
        operations += [
            ("query", f"{dataset}/distribution/size"),
            ("query", f"//author[last='{rng.choice(lasts)}']/initial"),
            ("query", f"//author[initial='{chr(65 + rng.randrange(26))}']/last"),
            ("query", f"//author[last > '{rng.choice(lasts)}']/age"),
            # A literal no value spells: a fresh plan-cache key each time.
            ("query", f"//author[last='x{rng.randrange(10**6)}']/initial"),
            ("query", "//dataset/history//date"),
            ("insert_element", where, "initial", "Q"),
            ("insert_element", where, "note", f"n{round_}"),
            ("query", f"{where}/initial"),
            ("update_value", f"{where}/size", str(rng.randrange(1, 5000))),
            ("update_value", f"{where}/initial", rng.choice("RST")),
            ("query", f"{where}/*"),
            ("delete_element", f"{where}/initial"),
            ("delete_element", f"{where}/note"),
            ("query", f"{dataset}//last"),
        ]
    return operations


def _run(system, operations) -> None:
    for method, *arguments in operations:
        getattr(system, method)(*arguments)


def _owners(system) -> dict[str, object]:
    """Every long-lived object whose containers the guard measures."""
    hosted = system.hosted
    keyring = system.keyring
    owners = {
        "hosted": hosted,
        "structural_index": hosted.structural_index,
        "value_index": hosted.value_index,
        "merkle": hosted.merkle,
        "client": system.client,
        "server": system.server,
        "keyring": keyring,
        "ope": keyring.ope,
        "tag_cipher": keyring.tag_cipher,
    }
    for token, runs in hosted.value_index.fields.items():
        owners[f"fields[{token}]"] = runs
    return owners


def _attributes(owner) -> dict[str, object]:
    names = list(getattr(owner, "__dict__", ()))
    for cls in type(owner).__mro__:
        names += [n for n in getattr(cls, "__slots__", ()) if hasattr(owner, n)]
    return {name: getattr(owner, name) for name in names}


def _lengths(system) -> dict[str, tuple[int, "int | None"]]:
    """``owner.attribute`` → (its len, its cap) for every container: the
    cap of a bounded cache is its share of ``EpochCache.BOUND``; anything
    else (``None``) is bounded by the live state."""
    lengths = {}
    for owner_name, owner in _owners(system).items():
        for name, value in _attributes(owner).items():
            if not isinstance(value, _CONTAINERS):
                continue
            cap = None
            if isinstance(value, EpochCache) and value._bounded:
                cap = value._bounded * EpochCache.BOUND
            lengths[f"{owner_name}.{name}"] = (len(value), cap)
    return lengths


def _live(system) -> tuple[int, int, int]:
    """The live hosted nodes, blocks and value-index entries."""
    hosted = system.hosted
    return (
        sum(1 for _ in hosted.hosted_root.iter()),
        len(hosted.blocks),
        hosted.value_index.total_entries(),
    )


def test_no_structure_grows_across_equal_windows(tmp_path):
    document = build_nasa_database(dataset_count=8, seed=13)
    titles = [
        title.text_value() for title in evaluate(document, "//dataset/title")
    ]
    operations = _mix(titles, seed=49)
    system = SecureXMLSystem.host(
        document, nasa_constraints(), scheme="opt", master_key=MASTER
    )
    _run(system, operations)
    save_system(system, str(tmp_path / "saved"))
    system.close()
    system = load_system(str(tmp_path / "saved"), MASTER)
    try:
        _run(system, operations)
        first, first_live = _lengths(system), _live(system)
        _run(system, operations)
        second, second_live = _lengths(system), _live(system)
    finally:
        system.close()

    assert first.keys() == second.keys()
    over = {
        name: (size, cap if cap is not None else max(second_live))
        for name, (size, cap) in second.items()
        if size > (cap if cap is not None else max(second_live))
    }
    assert not over, over
    allowance = max(0, sum(second_live) - sum(first_live))
    grew = {
        name: (first[name][0], size)
        for name, (size, cap) in second.items()
        if cap is None and size - first[name][0] > allowance
    }
    assert not grew, (grew, first_live, second_live)
    # The guard reaches what it is meant to: caches that filled, and the
    # per-field index of both encrypted fields.
    assert second["client._plan_cache"][0] > 0
    assert second["server._fragment_cache"][0] > 0
    assert sum(name.startswith("fields[") for name in second) == 4


def _snapshot() -> tracemalloc.Snapshot:
    gc.collect()
    return tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, "*/repro/*")]
    )


def test_no_allocation_site_grows_across_equal_windows():
    document = build_nasa_database(dataset_count=8, seed=13)
    titles = [
        title.text_value() for title in evaluate(document, "//dataset/title")
    ]
    operations = _mix(titles, seed=49)
    system = SecureXMLSystem.host(
        document, nasa_constraints(), scheme="opt", master_key=MASTER
    )
    was_tracing = tracemalloc.is_tracing()
    try:
        _run(system, operations)  # warm: every cache filled once
        if not was_tracing:
            tracemalloc.start(1)
        _run(system, operations)
        first = _snapshot()
        _run(system, operations)
        second = _snapshot()
    finally:
        if not was_tracing:
            tracemalloc.stop()
        system.close()
    grew = {
        str(stat.traceback): stat.size_diff
        for stat in second.compare_to(first, "lineno")
        if stat.size_diff > SITE_GROWTH_BOUND
    }
    assert not grew, grew
