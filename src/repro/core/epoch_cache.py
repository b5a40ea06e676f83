"""The one epoch-gated cache.

Whatever the client and the server derive from hosted state — plans,
plaintexts, trees, sealed blobs, answers — is valid as of one epoch: a write re-encrypts payloads under the same block
ids and re-plans a field under the same name.  This type owns the only
comparison of a stored epoch with the live one.  What an epoch move costs
is the owner's call: a cache built with a ``survives`` test carries
the entries the owner's own record says no write since has touched; one
built without drops them all (anything that embeds the anchor or an OPESS
plan).  An owner's ``flush_caches()`` loops over the registry its caches
were built with.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable


class EpochCache:
    """A dict swept — emptied, unless ``survives`` says otherwise — when
    the epoch it reads has moved.

    Not synchronised: its owner is called one request at a time — a
    served system through its tenant's one lock.
    """

    #: How many *keys* a peer may choose (query strings, sealed blobs) in
    #: a bounded cache: one that stores ``bounded`` entries per such key
    #: holds ``bounded * BOUND``, and the oldest entry makes room.  Caches
    #: keyed by hosted ids are bounded by the database.
    BOUND = 256

    def __init__(
        self,
        epoch: Callable[[], int],
        registry: "list[EpochCache]",
        bounded: int = 0,
        survives: "Callable[[int], Callable[[Any, Any], bool]] | None" = None,
    ) -> None:
        self._epoch = epoch
        #: entries stored per key a peer chooses; 0: bounded by what the
        #: cache is keyed by
        self._bounded = bounded
        #: ``survives(since)(key, value)``: has nothing this entry derives
        #: from been written after epoch ``since``?  ``survives`` is called
        #: once per epoch move — where the owner finds what was written
        #: since — and the test it returns once per entry; never on a hit.
        self._survives = survives
        self._entries: dict[Any, Any] = {}
        self._entries_epoch: "int | None" = None
        registry.append(self)

    def live(self) -> dict[Any, Any]:
        """This epoch's entries: take them once per stage, *before* reading
        the state the values derive from, then use the dict directly."""
        epoch = self._epoch()
        since = self._entries_epoch
        if epoch != since:
            # A new dict, not ``clear()``: a stage still holding the old
            # one keeps a consistent view, and what it writes late lands
            # in the old epoch's entries, not in these.  Every entry was
            # computed at ``since`` or later, so "unwritten after
            # ``since``" covers it wherever in the epoch it was made.  The
            # sweep reads a snapshot: such a stage may be writing now.
            survives = self._survives
            if survives is None or since is None:
                self._entries = {}
            else:
                keep = survives(since)
                self._entries = {
                    key: value
                    for key, value in list(self._entries.items())
                    if keep(key, value)
                }
            self._entries_epoch = epoch
        return self._entries

    def store(self, key: Hashable, value: Any, epoch: int) -> None:
        """Keep ``value``, computed under ``epoch`` — unless a commit has
        landed since: then it describes state that is gone."""
        entries = self.live()
        if epoch != self._entries_epoch:
            return
        if (
            self._bounded
            and len(entries) >= self._bounded * self.BOUND
            and key not in entries
        ):
            del entries[next(iter(entries))]
        entries[key] = value

    def clear(self) -> None:
        self._entries = {}

    def __len__(self) -> int:
        return len(self._entries)
