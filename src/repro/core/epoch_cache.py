"""The one epoch-gated cache.

Whatever the client and the servers derive from hosted state — plans,
plaintexts, trees, sealed blobs, the translator's view of the OPESS plans —
holds for one epoch: a write re-encrypts payloads under the same block ids
and re-plans a field under the same name.  This type owns the only
comparison of a stored epoch with the live one, and an owner's
``flush_caches()`` loops over the registry its caches were built with.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable


class EpochCache:
    """A dict replaced by an empty one when the epoch it reads has moved.

    Not synchronised: an owner shared between threads holds its own lock
    around each gate-and-access sequence.
    """

    #: Entry bound of a cache whose *keys* a peer chooses (query strings,
    #: sealed blobs); the oldest entry makes room.  Caches keyed by hosted
    #: ids are bounded by the database.
    BOUND = 256

    def __init__(
        self,
        epoch: Callable[[], int],
        registry: "list[EpochCache]",
        bounded: bool = False,
    ) -> None:
        self._epoch = epoch
        self._bounded = bounded
        self._entries: dict[Any, Any] = {}
        self._entries_epoch: "int | None" = None
        registry.append(self)

    def live(self) -> dict[Any, Any]:
        """This epoch's entries: take them once per stage, *before* reading
        the state the values derive from, then use the dict directly."""
        epoch = self._epoch()
        if epoch != self._entries_epoch:
            # A new dict, not ``clear()``: a stage still holding the old
            # one keeps a consistent view, and what it writes late lands
            # in the old epoch's entries, not in these.
            self._entries = {}
            self._entries_epoch = epoch
        return self._entries

    def store(self, key: Hashable, value: Any, epoch: int) -> None:
        """Keep ``value``, computed under ``epoch`` — unless a commit has
        landed since: then it describes state that is gone."""
        entries = self.live()
        if epoch != self._entries_epoch:
            return
        if self._bounded and len(entries) >= self.BOUND and key not in entries:
            del entries[next(iter(entries))]
        entries[key] = value

    def clear(self) -> None:
        self._entries = {}

    def __len__(self) -> int:
        return len(self._entries)
