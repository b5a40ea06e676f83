"""Persistence of hosted databases (deployment support).

In the DAS setting of Figure 1 the encrypted database and its metadata
*live* at the server between sessions.  This module serializes everything
a server stores — the hosted tree with its ciphertext blocks, the DSI
index table, the encryption block table and the B-tree value index — plus
a separate client-state file that stays with the data owner, and rebuilds
a working :class:`~repro.core.system.SecureXMLSystem` from disk + the
master key.

Layout of a saved hosting::

    <directory>/
      hosted.xml          # the partially encrypted tree (server-side)
      server_meta.json    # DSI table, block table, value index (server-side)
      client_state.json   # owner's knowledge: tag sets, occurrences,
                          # per-block MAC tags (client-side — contains
                          # plaintext values; it must never be given to
                          # the server)
      manifest.json       # SHA-256 of each file above (commit marker)

Field plans, tag tokens and every key are *re-derived* from the master key
on load (the whole pipeline is deterministic in it), so the client file
holds only what cannot be derived: which tags/fields exist on which side,
the per-field occurrence lists that power incremental updates, the
encrypt-then-MAC block tags, and the two pieces of state that keep a
write's nonce from ever repeating — the write stamp of every block
rewritten since hosting (``block_stamps``) and the block-id high-water
mark (``max_block_id``).

Format versions
---------------
``version: 3`` is what :func:`save_system` writes: every keyed draw —
OPE rectangles, OPESS weights, DSI gaps, decoys — comes from HMAC-SHA256.
``version: 2`` drew them from another PRF (a pure-Python one the workload
generators still use), and is still read: intervals
are persisted numbers, block IVs never depended on the PRF, and field
plans are re-derived from ``occurrences`` in either version — so the only
bytes of a version-2 directory that the old PRF shaped *and* that are read
back are the value-index keys.  Loading them beside plans drawn under the
new PRF would answer every value predicate wrongly and silently, so a
version-2 load ignores the persisted ``value_index`` rows and rebuilds the
index from ``occurrences`` under the current OPE.  Its blocks carry no
stamps and decrypt under the id-only IV they were written with; the next
:func:`save_system` writes version 3.  Any other version is a
:class:`StorageError`.

Crash safety
------------
A save is a two-phase commit: every file is first *staged* next to its
target as ``<name>.new`` (written, flushed and fsynced), then the data
files are published with atomic :func:`os.replace` and the manifest is
replaced **last**.  The manifest therefore acts as the commit record — a
directory whose files all hash to the manifest's digests is a consistent
hosting.  :func:`load_system` first runs recovery: an interrupted save is
rolled *forward* when the staged generation is complete (every file either
already published or still staged intact) and rolled *back* (stale ``.new``
files discarded) otherwise, so a save killed at any instant leaves the
directory loadable — either entirely the old hosting or entirely the new
one, never a mix.  Any file that fails its manifest digest afterwards
raises :class:`StorageError` naming the bad file.

The module-level crash hook (:func:`set_crash_point`) lets tests kill a
save at every labelled step of the protocol and prove that claim.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter

from repro.btree import BTree
from repro.core.client import Client
from repro.core.dsi import IndexEntry, Interval, StructuralIndex
from repro.core.encryptor import (
    HostedDatabase,
    _renumber_hosted,
    renumbered_hosted_ids,
)
from repro.core.opess import ValueIndex, build_field_plan, build_value_index
from repro.core.scheme import EncryptionScheme
from repro.core.server import Server
from repro.core.system import HostingTrace, RetryPolicy, SecureXMLSystem
from repro.crypto.keyring import ClientKeyring
from repro.netsim.channel import Channel
from repro.xmldb.node import Element, EncryptedBlockNode, Node
from repro.xmldb.parser import block_placeholder, parse_fragment
from repro.xmldb.serializer import serialize

_FORMAT_VERSION = 3
#: The format before the PRF changed: read (see the module docstring),
#: never written.
_OLD_PRF_FORMAT_VERSION = 2

_DATA_FILES = ("hosted.xml", "server_meta.json", "client_state.json")
_MANIFEST = "manifest.json"


class StorageError(ValueError):
    """A saved hosting is corrupt, tampered with, or unreadable.

    Always names the offending file in :attr:`path`/the message, so an
    operator knows *which* artifact to restore.  Subclasses
    :class:`ValueError` for compatibility with pre-hardening callers.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{message}: {path}")


class CrashInjected(RuntimeError):
    """Raised by the crash hook to simulate a kill mid-save (tests only)."""


_crash_point: str | None = None


def set_crash_point(point: str | None) -> None:
    """Arm the crash hook: the next save raises at the named step.

    Steps are ``stage:<file>`` (before that file's ``.new`` is written)
    and ``commit:<file>`` (before that file's :func:`os.replace`), with
    files in the order hosted.xml, server_meta.json, client_state.json,
    manifest.json.  Pass ``None`` to disarm.
    """
    global _crash_point
    _crash_point = point


def crash_points() -> list[str]:
    """Every step a save can be killed at, in protocol order."""
    names = (*_DATA_FILES, _MANIFEST)
    return [f"stage:{name}" for name in names] + [
        f"commit:{name}" for name in names
    ]


def _maybe_crash(point: str) -> None:
    if _crash_point == point:
        raise CrashInjected(point)


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str | None:
    """SHA-256 of a file, or None when it is absent/unreadable."""
    try:
        with open(path, "rb") as f:
            return _sha256_hex(f.read())
    except OSError:
        return None


def _write_staged(directory: str, name: str, data: bytes) -> None:
    """Write ``<name>.new`` durably (flush + fsync before returning)."""
    staged = os.path.join(directory, name + ".new")
    with open(staged, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())


def _fsync_directory(directory: str) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platforms without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def save_system(system: SecureXMLSystem, directory: str) -> None:
    """Persist a hosted system's server and client state to a directory.

    Atomic with respect to crashes: see the module docstring for the
    stage-then-commit protocol.
    """
    os.makedirs(directory, exist_ok=True)
    hosted = system.hosted

    entries = hosted.structural_index.all_entries()
    entry_index = {id(entry): position for position, entry in enumerate(entries)}
    # ``load_system`` renumbers the parsed tree in document order, while a
    # live tree that took an insert holds a high-water id out of order:
    # persist every hosted id as the one the reload will assign.
    saved_id = renumbered_hosted_ids(hosted.hosted_root)
    server_meta = {
        "version": _FORMAT_VERSION,
        "dsi": [
            {
                "key": entry.key,
                "low": entry.interval.low,
                "high": entry.interval.high,
                "members": list(entry.member_ids),
                "block": entry.block_id,
                "parent": entry_index.get(id(entry.parent)),
                "value": entry.plaintext_value,
                "hosted_id": (
                    saved_id[entry.hosted_node.node_id]
                    if entry.hosted_node is not None
                    else None
                ),
            }
            for entry in entries
        ],
        "block_table": {
            str(block_id): [interval.low, interval.high]
            for block_id, interval in (
                hosted.structural_index.block_table.items()
            )
        },
        "value_index": {
            token: [[key, block] for key, block in tree.items()]
            for token, tree in hosted.value_index.trees.items()
        },
    }

    client_state = {
        "version": _FORMAT_VERSION,
        "root_tag": hosted.root_tag,
        "secure": hosted.secure,
        "scheme_kind": system.scheme.kind,
        "covered_fields": sorted(system.scheme.covered_fields),
        "encrypted_tags": sorted(hosted.encrypted_tags),
        "plaintext_keys": sorted(hosted.plaintext_keys),
        "occurrences": {
            field: [[value, block] for value, block in occurrence_list]
            for field, occurrence_list in hosted.occurrences.items()
        },
        "block_tags": {
            str(block_id): tag.hex()
            for block_id, tag in sorted(hosted.block_tags.items())
        },
        "block_stamps": {
            str(block_id): stamp
            for block_id, stamp in sorted(hosted.block_stamps.items())
        },
        "max_block_id": hosted.max_block_id,
        "decoy_count": hosted.decoy_count,
        # Freshness anchor: the commit epoch and Merkle root over the
        # block tags travel with the client state, inside the same
        # stage-then-commit transaction as the data they attest — crash
        # recovery can only ever yield a committed (epoch, root) pair.
        "epoch": hosted.epoch,
        "state_root": hosted.state_root().hex(),
    }

    contents: dict[str, bytes] = {
        "hosted.xml": serialize(hosted.hosted_root).encode("utf-8"),
        "server_meta.json": json.dumps(server_meta).encode("utf-8"),
        "client_state.json": json.dumps(client_state).encode("utf-8"),
    }
    manifest = {
        "version": _FORMAT_VERSION,
        "files": {name: _sha256_hex(data) for name, data in contents.items()},
    }
    contents[_MANIFEST] = json.dumps(manifest).encode("utf-8")

    # Phase 1: stage everything as .new (data files first, manifest last,
    # so a complete staged manifest implies a complete staged generation).
    for name in (*_DATA_FILES, _MANIFEST):
        _maybe_crash(f"stage:{name}")
        _write_staged(directory, name, contents[name])

    # Phase 2: publish.  The manifest replace is the commit point.
    for name in (*_DATA_FILES, _MANIFEST):
        _maybe_crash(f"commit:{name}")
        path = os.path.join(directory, name)
        os.replace(path + ".new", path)
    _fsync_directory(directory)


# ----------------------------------------------------------------------
# Recovery + verification (load path)
# ----------------------------------------------------------------------
def _recover(directory: str) -> None:
    """Finish or undo an interrupted save so the directory is consistent.

    Roll forward when the staged generation is complete — the staged
    manifest parses and every listed file is available at its staged
    digest (already published or still in ``.new``) — otherwise roll
    back by discarding every stale ``.new`` file.
    """
    staged_manifest = os.path.join(directory, _MANIFEST + ".new")
    if not os.path.exists(staged_manifest):
        _discard_staged(directory)
        return
    try:
        with open(staged_manifest, "rb") as f:
            manifest = json.loads(f.read().decode("utf-8"))
        files = dict(manifest["files"])
    except (ValueError, KeyError, TypeError, OSError):
        # The save died while writing the staged manifest itself; the old
        # generation is untouched and authoritative.
        _discard_staged(directory)
        return

    for name, digest in files.items():
        path = os.path.join(directory, name)
        if _file_digest(path) == digest:
            continue
        if _file_digest(path + ".new") == digest:
            continue
        # A staged file is missing or mangled: the new generation cannot
        # be completed, keep the old one.
        _discard_staged(directory)
        return

    # Complete the interrupted commit.
    for name, digest in files.items():
        path = os.path.join(directory, name)
        if _file_digest(path) != digest:
            os.replace(path + ".new", path)
        else:
            _remove_quietly(path + ".new")
    os.replace(staged_manifest, os.path.join(directory, _MANIFEST))
    _fsync_directory(directory)


def _discard_staged(directory: str) -> None:
    for name in (*_DATA_FILES, _MANIFEST):
        _remove_quietly(os.path.join(directory, name + ".new"))


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def _verify_manifest(directory: str) -> None:
    """Check every file against the manifest; raise StorageError if bad."""
    manifest_path = os.path.join(directory, _MANIFEST)
    if not os.path.exists(manifest_path):
        # Pre-hardening hosting (no manifest): nothing to verify against.
        return
    manifest = _read_json(manifest_path)
    try:
        files = dict(manifest["files"])
    except (KeyError, TypeError) as exc:
        raise StorageError(manifest_path, "malformed manifest") from exc
    for name, digest in files.items():
        path = os.path.join(directory, name)
        actual = _file_digest(path)
        if actual is None:
            raise StorageError(path, "file listed in manifest is missing")
        if actual != digest:
            raise StorageError(
                path, "checksum mismatch (corrupted or tampered file)"
            )


def _read_text(path: str) -> str:
    try:
        with open(path, "rb") as f:
            return f.read().decode("utf-8")
    except FileNotFoundError as exc:
        raise StorageError(path, "missing file") from exc
    except OSError as exc:
        raise StorageError(path, f"unreadable file ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise StorageError(path, "file is not valid UTF-8") from exc


def _read_json(path: str) -> dict:
    text = _read_text(path)
    try:
        decoded = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StorageError(path, f"invalid JSON ({exc})") from exc
    if not isinstance(decoded, dict):
        raise StorageError(path, "expected a JSON object")
    return decoded


def _check_version(meta: dict, path: str) -> int:
    version = meta.get("version")
    if version not in (_FORMAT_VERSION, _OLD_PRF_FORMAT_VERSION):
        raise StorageError(
            path,
            f"unsupported format version {version!r} "
            f"(expected {_FORMAT_VERSION} or {_OLD_PRF_FORMAT_VERSION})",
        )
    return version


def _check_server_meta(meta: dict, path: str, with_rows: bool) -> None:
    """Refuse, typed, sections that are not the shapes :func:`save_system`
    writes.

    ``server_meta.json`` comes from the untrusted side and its manifest
    digest is unkeyed, so whoever holds the files can rewrite both: a
    section of the wrong JSON type must be a :class:`StorageError`, never
    an ``AttributeError`` out of the loader.  ``dsi`` is an array of entry
    records — a record's ``parent`` names an *earlier* record, as the
    interval order saves them, so the links cannot form a cycle;
    ``block_table`` maps block ids to ``[low, high]``; ``value_index``
    (read when ``with_rows``) maps tokens to ``[key, block]`` integer rows.
    """

    def refuse(message: str) -> None:
        raise StorageError(path, f"malformed server metadata: {message}")

    records = meta.get("dsi")
    if not isinstance(records, list):
        refuse("'dsi' is not a JSON array")
    for position, record in enumerate(records):
        if not (
            isinstance(record, dict)
            and record.keys() >= _DSI_FIELDS
            and type(record["key"]) is str
            and _is_number(record["low"])
            and _is_number(record["high"])
            and isinstance(record["members"], list)
            and all(type(member) is int for member in record["members"])
            and _is_optional(record["block"], int)
            and _is_optional(record["value"], str)
            and _is_optional(record["hosted_id"], int)
            and _is_optional(record["parent"], int)
            and (record["parent"] is None or 0 <= record["parent"] < position)
        ):
            refuse(f"'dsi' record {position} is not an entry: {record!r:.80}")
    table = meta.get("block_table")
    if not isinstance(table, dict):
        refuse("'block_table' is not a JSON object")
    for block_id, bounds in table.items():
        if not (
            block_id.isdigit()
            and isinstance(bounds, list)
            and len(bounds) == 2
            and all(_is_number(bound) for bound in bounds)
        ):
            refuse(f"'block_table' row {block_id!r:.40} is not [low, high]")
    if not with_rows:
        return
    rows = meta.get("value_index")
    if not isinstance(rows, dict):
        refuse("'value_index' is not a JSON object")
    for token, flat_entries in rows.items():
        if not isinstance(flat_entries, list):
            refuse(f"value index {token!r:.40} is not a JSON array")
        for row in flat_entries:
            if not (isinstance(row, list) and list(map(type, row)) == [int, int]):
                refuse(
                    f"value index {token!r:.40} holds a row that is not "
                    f"[int, int]: {row!r:.40}"
                )


#: The fields of a ``dsi`` record, as :func:`save_system` writes them.
_DSI_FIELDS = frozenset(
    ("key", "low", "high", "members", "block", "parent", "value", "hosted_id")
)


def _is_number(cell: object) -> bool:
    return type(cell) in (int, float)


def _is_optional(cell: object, kind: type) -> bool:
    return cell is None or type(cell) is kind


def _index_from_records(
    records: list[dict],
    block_table: dict,
    node_for,
) -> StructuralIndex:
    """Materialize the structural index from persisted records.

    ``records`` is the ``server_meta.json`` ``"dsi"`` list; ``node_for``
    maps a hosted node id to its parsed tree node.
    """
    entries: list[IndexEntry] = []
    for record in records:
        entry = IndexEntry(
            key=record["key"],
            interval=Interval(record["low"], record["high"]),
            member_ids=tuple(record["members"]),
            block_id=record["block"],
            plaintext_value=record["value"],
            hosted_node=(
                node_for(record["hosted_id"])
                if record["hosted_id"] is not None
                else None
            ),
        )
        entries.append(entry)
    for record, entry in zip(records, entries):
        if record["parent"] is not None:
            parent = entries[record["parent"]]
            entry.parent = parent
            parent.children.append(entry)
    table: dict[str, list[IndexEntry]] = {}
    for entry in entries:
        table.setdefault(entry.key, []).append(entry)
    return StructuralIndex(
        table=table,
        block_table={
            int(block_id): Interval(low, high)
            for block_id, (low, high) in block_table.items()
        },
        entries=sorted(entries, key=lambda e: e.interval.low),
    )


def load_system(
    directory: str,
    master_key: bytes,
    channel: Channel | None = None,
    retry_policy: RetryPolicy | None = None,
) -> SecureXMLSystem:
    """Rebuild a working system from a saved hosting and the master key.

    Runs crash recovery first, then refuses to proceed when any file
    fails its manifest digest or does not parse — raising
    :class:`StorageError` naming the offending file rather than ever
    standing up a system over corrupt state.
    """
    _recover(directory)
    _verify_manifest(directory)
    keyring = ClientKeyring(master_key)

    hosted_path = os.path.join(directory, "hosted.xml")
    try:
        hosted_root: Node = parse_fragment(_read_text(hosted_path))
    except StorageError:
        raise
    except (ValueError, KeyError) as exc:
        raise StorageError(hosted_path, f"unparseable hosted tree ({exc})") from exc
    try:
        hosted_root = block_placeholder(hosted_root) or hosted_root
    except ValueError as exc:
        raise StorageError(
            hosted_path, f"unparseable root block ({exc})"
        ) from exc
    hosted_id_count = _renumber_hosted(hosted_root)
    nodes_by_id: dict[int, Node] = {}
    for node in hosted_root.iter():
        nodes_by_id[node.node_id] = node
        if isinstance(node, Element):
            for attribute in node.attributes:
                nodes_by_id[attribute.node_id] = attribute
    placeholders = {
        node.block_id: node
        for node in hosted_root.iter()
        if isinstance(node, EncryptedBlockNode)
    }
    blocks = {block_id: node.payload for block_id, node in placeholders.items()}

    meta_path = os.path.join(directory, "server_meta.json")
    server_meta = _read_json(meta_path)
    index_version = _check_version(server_meta, meta_path)

    # A version-2 index holds keys of the old PRF: its rows are not read
    # but rebuilt below, under the plans.
    with_rows = index_version == _FORMAT_VERSION
    _check_server_meta(server_meta, meta_path, with_rows)
    try:
        structural_index = _index_from_records(
            server_meta["dsi"],
            server_meta["block_table"],
            nodes_by_id.get,
        )

        value_index = ValueIndex()
        persisted_rows = server_meta["value_index"] if with_rows else {}
        for token, flat_entries in persisted_rows.items():
            # ``save_system`` writes ``tree.items()``: key order.  The
            # bulk load raises ValueError on anything else.
            value_index.trees[token] = BTree.from_sorted(
                flat_entries, min_degree=16
            )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise StorageError(
            meta_path, f"malformed server metadata ({exc!r})"
        ) from exc

    state_path = os.path.join(directory, "client_state.json")
    client_state = _read_json(state_path)
    _check_version(client_state, state_path)

    try:
        occurrences = {
            field: [(value, block) for value, block in occurrence_list]
            for field, occurrence_list in client_state["occurrences"].items()
        }
        block_tags = {
            int(block_id): bytes.fromhex(tag_hex)
            for block_id, tag_hex in client_state["block_tags"].items()
        }
        field_plans = {}
        field_tokens = {}
        for field, occurrence_list in sorted(occurrences.items()):
            histogram = Counter(value for value, _ in occurrence_list)
            if not histogram:
                continue
            field_plans[field] = build_field_plan(
                field, histogram, keyring.opess_stream(field), keyring.ope
            )
            field_tokens[field] = keyring.tag_cipher.encrypt_tag(field)
        if index_version == _OLD_PRF_FORMAT_VERSION:
            value_index = build_value_index(
                {field: occurrences[field] for field in field_plans},
                field_plans,
                field_tokens,
                keyring.ope,
            )
        max_block_id = client_state.get("max_block_id")

        hosted = HostedDatabase(
            hosted_root=hosted_root,
            structural_index=structural_index,
            value_index=value_index,
            blocks=blocks,
            placeholders=placeholders,
            max_hosted_id=hosted_id_count - 1,
            root_tag=client_state["root_tag"],
            encrypted_tags=set(client_state["encrypted_tags"]),
            plaintext_keys=set(client_state["plaintext_keys"]),
            field_plans=field_plans,
            field_tokens=field_tokens,
            block_tags=block_tags,
            block_stamps={
                int(block_id): int(stamp)
                for block_id, stamp in client_state.get(
                    "block_stamps", {}
                ).items()
            },
            max_block_id=None if max_block_id is None else int(max_block_id),
            decoy_count=client_state["decoy_count"],
            secure=client_state["secure"],
            occurrences=occurrences,
            epoch=int(client_state.get("epoch", 0)),
        )
        scheme = EncryptionScheme(
            kind=client_state["scheme_kind"],
            block_root_ids=frozenset(),
            covered_fields=frozenset(client_state["covered_fields"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(
            state_path, f"malformed client state ({exc!r})"
        ) from exc
    # Freshness anchor check: the persisted Merkle root must match the
    # root recomputed over the loaded block tags.  A mismatch means the
    # attested state and the stored tags diverged (partial restore,
    # tag-level tampering below the manifest, or a regressed epoch
    # pairing) — refuse to boot rather than silently re-anchor.
    persisted_root = client_state.get("state_root")
    if persisted_root is not None:
        recomputed = hosted.state_root().hex()
        if recomputed != persisted_root:
            raise StorageError(
                state_path,
                "freshness root mismatch: persisted Merkle root "
                f"{persisted_root[:16]}… does not match the root "
                f"recomputed from the stored block tags "
                f"({recomputed[:16]}…)",
            )
    hosting_trace = HostingTrace(
        scheme_kind=scheme.kind,
        scheme_size_nodes=0,
        block_count=len(blocks),
        encrypt_s=0.0,
        hosted_bytes=hosted.hosted_size_bytes(),
        plaintext_bytes=0,
        decoy_count=hosted.decoy_count,
        index_entries=len(structural_index.entries),
        value_index_entries=value_index.total_entries(),
    )
    return SecureXMLSystem(
        client=Client(keyring, hosted),
        server=Server(hosted, session_keys=keyring.session_keys()),
        hosted=hosted,
        scheme=scheme,
        channel=channel or Channel(),
        hosting_trace=hosting_trace,
        keyring=keyring,
        retry_policy=retry_policy,
    )
