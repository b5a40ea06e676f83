"""Integrity envelope for wire payloads (untrusted-server hardening).

The paper's threat model (§3.3) assumes an honest-but-curious server; this
module moves the reproduction toward an *actively adversarial* one: every
payload crossing the client↔server channel is wrapped in a keyed
HMAC-SHA256 envelope, and every encryption block carries an
encrypt-then-MAC tag (see :meth:`repro.crypto.keyring.ClientKeyring
.block_tag`).  Tampering — whether injected by the fault channel or by the
server — becomes *detection* (a typed error the retry layer can handle),
never a silent wrong answer.

Envelope layout::

    b"rxi1" | tag (32 bytes, HMAC-SHA256 over the payload) | payload

Two MAC keys exist (both derived from the master key, see
``ClientKeyring.session_keys``): the *request* key authenticates
client→server messages, the *response* key server→client messages.  They
model an authenticated session, so they defend the wire; the per-block
tags use a third, client-only key and defend against the server itself.

Freshness envelope (layout 2)
-----------------------------

A MAC proves a payload was not *tampered with*, not that it is *fresh*:
a rollback attacker can replay an earlier validly-MACed response.  The
``rxi2`` layout binds two pieces of client-anchored state into the tag::

    b"rxi2" | epoch (8 bytes BE) | root (32 bytes) | tag (32) | payload

where *epoch* is the monotonic commit counter (``HostedDatabase.epoch``)
and *root* the Merkle root over the per-block integrity tags
(:class:`BlockMerkleTree`).  The tag is HMAC-SHA256 over
``magic | epoch | root | payload``, so an attacker cannot re-stamp an
old payload with a newer header.  Verification order is strict: MAC
first, and only then is the (now authenticated) header compared against
the verifier's own state — an *older* epoch raises
:class:`RollbackDetectedError`, any other divergence raises
:class:`StaleStateError`.  Both derive from :class:`IntegrityError`, so
the existing retry/failover machinery treats stale answers exactly like
tampered ones: typed error, never a silent stale answer.
"""

from __future__ import annotations

import bisect
import hashlib
import hmac as _compare

from repro.crypto.hmac import hmac_sha256
from repro.obs.span import count

#: Envelope magic: "repro xml integrity, layout 1".
MAGIC = b"rxi1"
TAG_BYTES = 32
OVERHEAD = len(MAGIC) + TAG_BYTES

#: Freshness envelope magic: "repro xml integrity, layout 2".
MAGIC_FRESH = b"rxi2"
EPOCH_BYTES = 8
ROOT_BYTES = 32
#: magic | epoch | root | tag
FRESH_HEADER = len(MAGIC_FRESH) + EPOCH_BYTES + ROOT_BYTES
FRESH_OVERHEAD = FRESH_HEADER + TAG_BYTES


class IntegrityError(Exception):
    """Base class for integrity-envelope verification failures."""


class TamperedResponseError(IntegrityError):
    """A server→client payload failed MAC verification (or a block tag)."""


class TamperedRequestError(IntegrityError):
    """A client→server payload failed MAC verification at the server."""


class FreshnessError(IntegrityError):
    """A validly-MACed payload does not derive from the freshest state.

    Carries the authenticated ``observed_epoch`` from the envelope and
    the verifier's ``expected_epoch`` so callers (and error messages)
    can report the exact lag.  Subclassing :class:`IntegrityError` makes
    freshness failures retryable under the existing ``RetryPolicy``
    budget with no changes to that layer.
    """

    def __init__(
        self, message: str, *, observed_epoch: int = -1,
        expected_epoch: int = -1,
    ) -> None:
        super().__init__(message)
        self.observed_epoch = observed_epoch
        self.expected_epoch = expected_epoch

    @property
    def epoch_lag(self) -> int:
        """How many commits behind the observed state is (0 if unknown)."""
        if self.observed_epoch < 0 or self.expected_epoch < 0:
            return 0
        return max(0, self.expected_epoch - self.observed_epoch)


class RollbackDetectedError(FreshnessError):
    """The envelope authenticates an *earlier* commit epoch: a replayed
    (rolled-back) snapshot from before one or more committed updates."""


class StaleStateError(FreshnessError):
    """The envelope's authenticated state diverges from the verifier's
    (future epoch, or a Merkle root that does not match this epoch)."""


def count_failure(exc: IntegrityError) -> None:
    """Count one detected failure on the open span — once, by whoever
    detected it (or first saw a refusal the server detected)."""
    count("integrity_failures")
    if isinstance(exc, FreshnessError):
        count("freshness_failures")
        if isinstance(exc, RollbackDetectedError):
            count("rollback_detected")


def seal(key: bytes, payload: bytes) -> bytes:
    """Wrap ``payload`` in the integrity envelope under ``key``."""
    return MAGIC + hmac_sha256(key, payload) + payload


def unseal(
    key: bytes,
    blob: bytes,
    error: type[IntegrityError] = TamperedResponseError,
) -> bytes:
    """Verify and strip the envelope; raises ``error`` on any mismatch.

    Every failure mode — truncation below the header, a wrong magic, a
    flipped bit anywhere in tag or payload — raises the same typed error,
    so callers cannot be tricked into partial parses.
    """
    if len(blob) < OVERHEAD or blob[: len(MAGIC)] != MAGIC:
        raise error("envelope header missing or truncated")
    tag = blob[len(MAGIC) : OVERHEAD]
    payload = blob[OVERHEAD:]
    if not _compare.compare_digest(tag, hmac_sha256(key, payload)):
        raise error("envelope MAC mismatch")
    return payload


def seal_fresh(key: bytes, payload: bytes, epoch: int, root: bytes) -> bytes:
    """Wrap ``payload`` in the freshness envelope under ``key``.

    ``epoch`` and ``root`` are bound into the MAC, so the header cannot
    be swapped without the session key.
    """
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    if len(root) != ROOT_BYTES:
        raise ValueError(f"root must be {ROOT_BYTES} bytes")
    header = MAGIC_FRESH + epoch.to_bytes(EPOCH_BYTES, "big") + root
    tag = hmac_sha256(key, header + payload)
    return header + tag + payload


def unseal_fresh(
    key: bytes,
    blob: bytes,
    expected_epoch: int,
    expected_root: bytes,
    error: type[IntegrityError] = TamperedResponseError,
) -> bytes:
    """Verify MAC *and* freshness; return the payload.

    Raises ``error`` (a tamper error) for anything that fails MAC
    verification, so an attacker cannot forge a "stale" signal.  Only
    once the header is authenticated is it compared against the
    verifier's ``(expected_epoch, expected_root)``:

    - an older epoch → :class:`RollbackDetectedError` (replayed
      pre-update snapshot);
    - a newer epoch, or a root mismatch at the same epoch →
      :class:`StaleStateError` (the verifier itself cannot attest this
      state is current).
    """
    if len(blob) < FRESH_OVERHEAD or blob[: len(MAGIC_FRESH)] != MAGIC_FRESH:
        raise error("freshness envelope header missing or truncated")
    header = blob[:FRESH_HEADER]
    tag = blob[FRESH_HEADER:FRESH_OVERHEAD]
    payload = blob[FRESH_OVERHEAD:]
    if not _compare.compare_digest(
        tag, hmac_sha256(key, header + payload)
    ):
        raise error("freshness envelope MAC mismatch")
    observed_epoch = int.from_bytes(
        blob[len(MAGIC_FRESH) : len(MAGIC_FRESH) + EPOCH_BYTES], "big"
    )
    observed_root = blob[len(MAGIC_FRESH) + EPOCH_BYTES : FRESH_HEADER]
    if observed_epoch < expected_epoch:
        raise RollbackDetectedError(
            f"rollback detected: envelope attests epoch {observed_epoch}, "
            f"freshest committed epoch is {expected_epoch}",
            observed_epoch=observed_epoch, expected_epoch=expected_epoch,
        )
    if observed_epoch > expected_epoch:
        raise StaleStateError(
            f"stale verifier state: envelope attests epoch "
            f"{observed_epoch}, verifier holds epoch {expected_epoch}",
            observed_epoch=observed_epoch, expected_epoch=expected_epoch,
        )
    if not _compare.compare_digest(observed_root, expected_root):
        raise StaleStateError(
            f"state-root mismatch at epoch {observed_epoch}: the envelope "
            "derives from a different committed state",
            observed_epoch=observed_epoch, expected_epoch=expected_epoch,
        )
    return payload


def envelope_payload(blob: bytes) -> bytes:
    """Strip the (rxi1 or rxi2) envelope header without verifying.

    Names the *logical* request across epochs: the sealed request bytes
    change whenever the epoch moves, but the query payload underneath
    does not.  The chaos tests' rollback attacker
    (``tests/fault_channel.py``) keys its recorded responses on it.
    """
    if len(blob) >= FRESH_OVERHEAD and blob[: len(MAGIC_FRESH)] == MAGIC_FRESH:
        return blob[FRESH_OVERHEAD:]
    if len(blob) >= OVERHEAD and blob[: len(MAGIC)] == MAGIC:
        return blob[OVERHEAD:]
    return blob


class BlockMerkleTree:
    """Merkle tree over the per-block integrity tags.

    Leaves are the ``(block_id, tag)`` pairs of
    ``HostedDatabase.block_tags`` in sorted ``block_id`` order; the leaf
    hash domain-separates id from tag (``sha256(b"leaf" | id | tag)``),
    interior nodes are ``sha256(b"node" | left | right)``, odd nodes are
    promoted.  The empty tree has a fixed sentinel root, so a hosting
    with no encrypted blocks still anchors a well-defined state.

    The common update path (``update_value`` re-tags an existing block)
    is a true O(log n) incremental path update; inserting or deleting a
    block shifts sorted positions, so those rebuild the interior levels
    (n − 1 node hashes) over the leaf hashes, which are computed once per
    ``set_leaf`` and kept.
    """

    _EMPTY_ROOT = hashlib.sha256(b"repro-merkle-empty").digest()

    def __init__(self, tags: dict[int, bytes] | None = None) -> None:
        #: block id → leaf hash
        self._leaves: dict[int, bytes] = {
            block_id: self._leaf_hash(block_id, tag)
            for block_id, tag in (tags or {}).items()
        }
        self._ids: list[int] = []
        self._levels: list[list[bytes]] = []
        self._dirty = True

    @property
    def leaf_count(self) -> int:
        return len(self._leaves)

    @staticmethod
    def _leaf_hash(block_id: int, tag: bytes) -> bytes:
        return hashlib.sha256(
            b"leaf" + block_id.to_bytes(8, "big", signed=True) + tag
        ).digest()

    def _rebuild(self) -> None:
        self._ids = sorted(self._leaves)
        level = [self._leaves[i] for i in self._ids]
        self._levels = [level]
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(
                    hashlib.sha256(
                        b"node" + level[i] + level[i + 1]
                    ).digest()
                )
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
            self._levels.append(level)
        self._dirty = False

    def set_leaf(self, block_id: int, tag: bytes) -> None:
        """Insert or update one leaf; re-tagging is an O(log n) path."""
        known = block_id in self._leaves
        leaf = self._leaves[block_id] = self._leaf_hash(block_id, tag)
        if known and not self._dirty:
            index = bisect.bisect_left(self._ids, block_id)
            self._levels[0][index] = leaf
            for depth in range(len(self._levels) - 1):
                level = self._levels[depth]
                parent = index // 2
                left = level[2 * parent]
                if 2 * parent + 1 < len(level):
                    digest = hashlib.sha256(
                        b"node" + left + level[2 * parent + 1]
                    ).digest()
                else:
                    digest = left
                self._levels[depth + 1][parent] = digest
                index = parent
            return
        self._dirty = True

    def remove_leaf(self, block_id: int) -> None:
        if self._leaves.pop(block_id, None) is not None:
            self._dirty = True

    def root(self) -> bytes:
        if self._dirty:
            self._rebuild()
        if not self._levels or not self._levels[-1]:
            return self._EMPTY_ROOT
        return self._levels[-1][0]
