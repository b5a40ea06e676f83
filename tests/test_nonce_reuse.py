"""Every write encrypts under a nonce that has never been used.

``tests/nonce_reuse.py`` is the attacker: a server that compares what
a block location held before and after a write and guesses "same leading
plaintext block" iff the leading 16-byte cipher blocks are equal.  It is
played here against two derivations:

* the **strawman**, kept in this file on purpose — what a write did up to
  hosted format 2: the IV a function of the block id alone, the decoy
  stream reopened from the same key for every write, the next block id
  ``max(existing) + 1``.  The distinguisher wins outright;
* the **system**, through ``update_value`` / ``insert_element`` /
  ``delete_element``, before and after a ``save_system`` → ``load_system``
  (the write stamp and the block-id high-water mark have to survive a
  restart for the guarantee to).  The distinguisher is at the blind guess.
"""

import random

import pytest

from repro.core import updates
from repro.core.decoy import inject_decoys
from repro.core.storage import load_system, save_system
from repro.core.system import SecureXMLSystem
from repro.crypto.aes import aes128_for_key
from repro.crypto.hmac import derive_key
from repro.crypto.modes import cbc_encrypt
from repro.crypto.prf import DeterministicRandom
from nonce_reuse import (
    guess_same_prefix,
    leading_plaintext_block,
    run_shared_prefix_game,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.xmark import build_xmark_database, xmark_constraints
from repro.xmldb.node import Element, Text
from repro.xmldb.serializer import serialize

MASTER = b"nonce-reuse-test-master-key-0123"
CARD_QUERY = "//person[@id='person3']/creditcard"
DATASET = "//dataset[title='Radial Velocities catalogue 0']"
TRIALS = 40


def card_pairs(seed):
    """Balanced (old, new) card numbers: half keep the first group — the
    four characters that share ``<creditcard>``'s cipher block — half
    change it.  Every later group always changes."""
    rng = random.Random(seed)

    def groups(count):
        return [str(rng.randint(1000, 9999)) for _ in range(count)]

    pairs = []
    for trial in range(TRIALS):
        first = groups(1)
        new_first = first if trial % 2 else [str(int(first[0]) % 9000 + 1000)]
        assert (new_first == first) == bool(trial % 2)
        pairs.append(
            (" ".join(first + groups(3)), " ".join(new_first + groups(3)))
        )
    return pairs


def name_pairs(seed):
    """Balanced (deleted, re-inserted) two-character values: half equal."""
    rng = random.Random(seed)
    pairs = []
    for trial in range(TRIALS):
        old = f"w{rng.randint(0, 9)}"
        pairs.append((old, old if trial % 2 else f"x{rng.randint(0, 9)}"))
    return pairs


# ----------------------------------------------------------------------
# The strawman: a write as hosted format 2 derived it
# ----------------------------------------------------------------------
class FixedIvPerIdWriter:
    """IV from the block id alone, decoys from a stream restarted per
    write, block ids from ``max(existing) + 1``."""

    def __init__(self, existing_ids):
        self._cipher = aes128_for_key(derive_key(MASTER, "block")[:16])
        self.ids = set(existing_ids)

    def encrypt(self, block_id, tag, value):
        leaf = Element(tag)
        leaf.append(Text(value))
        inject_decoys(leaf, DeterministicRandom(derive_key(MASTER, "decoys")))
        iv = derive_key(MASTER, "block-iv", str(block_id))[:16]
        return cbc_encrypt(self._cipher, iv, serialize(leaf).encode("utf-8"))

    def insert(self, tag, value):
        block_id = max(self.ids, default=0) + 1
        self.ids.add(block_id)
        return block_id, self.encrypt(block_id, tag, value)


class TestStrawmanLeaks:
    def test_update_value_under_one_iv_reveals_the_shared_prefix(self):
        writer = FixedIvPerIdWriter(range(1, 9))
        report = run_shared_prefix_game(
            lambda value: writer.encrypt(8, "creditcard", value),
            "creditcard",
            card_pairs("strawman-update"),
        )
        assert report.baseline == 0.5
        assert report.advantage >= 0.4, report.describe()

    def test_delete_then_insert_reuses_the_id_and_the_whole_payload(self):
        writer = FixedIvPerIdWriter(range(1, 83))
        newest = []

        def delete_then_insert(value):
            if newest:
                writer.ids.remove(newest.pop())
            block_id, payload = writer.insert("last", value)
            newest.append(block_id)
            return payload

        report = run_shared_prefix_game(
            delete_then_insert, "last", name_pairs("strawman-cycle")
        )
        assert report.advantage >= 0.4, report.describe()
        # ... and an equal value comes back byte for byte.
        assert delete_then_insert("w0") == delete_then_insert("w0")


# ----------------------------------------------------------------------
# The system
# ----------------------------------------------------------------------
class SystemWriter:
    """The two write shapes under attack, through the public API, on a
    system that can be restarted underneath them."""

    def __init__(self, system, tmp_path):
        self.system = system
        self._directory = str(tmp_path / "hosting")

    def restart(self):
        save_system(self.system, self._directory)
        self.system.close()
        self.system = load_system(self._directory, MASTER)

    def update_card(self, value):
        (before,) = self.system.query(CARD_QUERY).values()
        assert before != value
        self.system.update_value(CARD_QUERY, value)
        assert self.system.query(CARD_QUERY).values() == [value]
        return self.system.hosted.blocks[self.card_block]

    @property
    def card_block(self):
        (block_id,) = (
            block
            for value, block in self.system.hosted.occurrences["creditcard"]
            if value == self.system.query(CARD_QUERY).values()[0]
        )
        return block_id

    def delete_then_insert_name(self, value):
        target = f"{DATASET}/distribution/last"
        if self.system.query(target).values():
            self.system.delete_element(target)
        self.system.insert_element(f"{DATASET}/distribution", "last", value)
        assert self.system.query(target).values() == [value]
        hosted = self.system.hosted
        return hosted.blocks[hosted.max_block_id]


@pytest.fixture
def xmark_writer(tmp_path):
    writer = SystemWriter(
        SecureXMLSystem.host(
            build_xmark_database(20), xmark_constraints(), master_key=MASTER
        ),
        tmp_path,
    )
    yield writer
    writer.system.close()


@pytest.fixture
def nasa_writer(tmp_path):
    writer = SystemWriter(
        SecureXMLSystem.host(
            build_nasa_database(20), nasa_constraints(), master_key=MASTER
        ),
        tmp_path,
    )
    yield writer
    writer.system.close()


class TestSystemDoesNot:
    def test_update_value_before_and_after_a_restart(self, xmark_writer):
        for phase in ("hosted", "reloaded"):
            report = run_shared_prefix_game(
                xmark_writer.update_card, "creditcard", card_pairs(phase)
            )
            assert report.same == TRIALS // 2
            assert report.advantage <= 0.05, (phase, report.describe())
            last_before = xmark_writer.system.hosted.blocks[
                xmark_writer.card_block
            ]
            last_value = xmark_writer.system.query(CARD_QUERY).values()[0]
            xmark_writer.restart()
        # Across the restart itself: the first write of the new process
        # keeps the value's first group and still shares no cipher block
        # with the last write of the old one.
        kept = last_value[:4] + " 0000 0000 0000"
        assert leading_plaintext_block(
            "creditcard", kept
        ) == leading_plaintext_block("creditcard", last_value)
        assert not guess_same_prefix(last_before, xmark_writer.update_card(kept))

    def test_delete_then_insert_before_and_after_a_restart(self, nasa_writer):
        for phase in ("hosted", "reloaded"):
            report = run_shared_prefix_game(
                nasa_writer.delete_then_insert_name, "last", name_pairs(phase)
            )
            assert report.advantage <= 0.05, (phase, report.describe())
            newest = nasa_writer.system.hosted.max_block_id
            nasa_writer.restart()
            # The mark outlives the process even when its block does not.
            nasa_writer.system.delete_element(f"{DATASET}/distribution/last")
            nasa_writer.restart()
            assert nasa_writer.system.hosted.max_block_id == newest
            assert newest not in nasa_writer.system.hosted.blocks

    def test_the_two_reproductions_of_the_issue_no_longer_reproduce(
        self, xmark_writer, nasa_writer
    ):
        a = xmark_writer.update_card("1234 5678 9012 3456")
        b = xmark_writer.update_card("1234 9999 0000 1111")
        assert a[:16] != b[:16]

        first = nasa_writer.delete_then_insert_name("w0")
        first_id = nasa_writer.system.hosted.max_block_id
        second = nasa_writer.delete_then_insert_name("w0")
        assert nasa_writer.system.hosted.max_block_id == first_id + 1
        assert first_id not in nasa_writer.system.hosted.blocks
        assert second != first and second[:16] != first[:16]


def test_no_id_and_no_nonce_is_written_twice_in_200_ops_of_the_hot_rw_cycle(
    nasa_writer, monkeypatch
):
    """``hot-rw``'s five-step cycle (encrypted insert, plaintext insert,
    update of the inserted leaf, one delete per insert), 40 times over
    rotating datasets with a restart in the middle: every IV handed to the
    cipher is new, every ``(block id, stamp)`` is new, and no block id is
    allocated twice."""
    ivs, real_encrypt = [], updates.cbc_encrypt

    def recording_encrypt(cipher, iv, plaintext):
        ivs.append(iv)
        return real_encrypt(cipher, iv, plaintext)

    monkeypatch.setattr(updates, "cbc_encrypt", recording_encrypt)
    titles = nasa_writer.system.query("//dataset/title").values()
    hosting_ids = set(nasa_writer.system.hosted.blocks)
    written, allocated = [], []
    for cycle in range(40):
        dataset = f"//dataset[title='{titles[cycle % 3]}']"
        for method, *args in (
            ("insert_element", f"{dataset}/distribution", "last", f"w{cycle}"),
            ("insert_element", dataset, "note", f"n{cycle}"),
            ("update_value", f"{dataset}/distribution/last", f"x{cycle}"),
            ("delete_element", f"{dataset}/distribution/last"),
            ("delete_element", f"{dataset}/note"),
        ):
            hosted = nasa_writer.system.hosted
            before = dict(hosted.blocks)
            getattr(nasa_writer.system, method)(*args)
            for block_id, payload in hosted.blocks.items():
                if before.get(block_id) != payload:
                    written.append((block_id, hosted.block_stamps[block_id]))
                if block_id not in before:
                    allocated.append(block_id)
        if cycle == 19:
            nasa_writer.restart()
    assert len(written) == 80 and len(set(written)) == 80
    assert len(allocated) == 40 and len(set(allocated)) == 40
    assert not set(allocated) & hosting_ids
    assert len(ivs) == 80 and len(set(ivs)) == 80
    # Net effect of the cycles on what is stored: none.
    assert set(nasa_writer.system.hosted.blocks) == hosting_ids
    assert nasa_writer.system.hosted.block_stamps == {}
