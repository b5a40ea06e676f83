"""Keyed order-preserving encryption (OPE) over numeric domains.

OPESS (§5.2.1) needs "any order-preserving encryption function, such as was
proposed by [Agrawal et al. 2004]": a keyed, strictly increasing map ``enc``
applied to the displaced plaintext values.  This module implements one by
lazily sampling a random strictly monotone function with a keyed PRF:

The domain ``[0, 2^domain_bits)`` is mapped into the larger range
``[0, 2^(domain_bits + expansion_bits))``.  ``encrypt`` walks a binary
bisection of the domain; at each internal node the PRF deterministically
picks where the midpoint's image splits the current range, constrained so
that every domain subinterval keeps at least as much range as it has points.
That constraint makes the sampled function *strictly* increasing, and the
PRF makes it a deterministic function of the key — two clients with the same
key agree on every ciphertext, which is what lets the client translate query
range bounds that the server then compares against value-index entries.

Real-valued inputs (OPESS displaces plaintexts by fractions ``w·δ`` of the
value gap) are quantized to fixed-point integers first; the quantization
step is chosen far below the minimum displacement OPESS can produce, so
ordering is never disturbed.
"""

from __future__ import annotations

from struct import pack as _pack
from typing import Iterable

from repro.crypto.prf import PRF


class OrderPreservingEncryption:
    """A keyed strictly increasing function on a bounded integer domain.

    The sampled part of the function is held as a binary trie that mirrors
    the bisection: a node is the list ``[domain_mid, range_mid, left,
    right]`` of one rectangle's split point and its two half-rectangles
    (``None`` until an input first descends into them).  Every node is a
    pure function of the key and its rectangle, so the trie only ever
    saves PRF calls — it holds no ciphertexts, and dropping it changes no
    output.  Two threads that race to sample the same node store equal
    lists; no lock is needed.
    """

    def __init__(
        self,
        key: bytes,
        domain_bits: int = 44,
        expansion_bits: int = 16,
        precision: int = 6,
    ) -> None:
        if domain_bits < 4 or domain_bits > 60:
            raise ValueError("domain_bits must be in [4, 60]")
        if expansion_bits < 2 or expansion_bits > 32:
            raise ValueError("expansion_bits must be in [2, 32]")
        # One PRF evaluation per sampled rectangle, 64 bits of it.  The
        # PRF is what every value-index key is drawn with: changing it
        # changes them all, which is why a hosting saved in format 2 (a
        # different PRF) has its value index rebuilt at load
        # (:mod:`repro.core.storage`).
        self._prf = PRF(key)
        self._domain_bits = domain_bits
        self.domain_size = 1 << domain_bits
        self.range_size = 1 << (domain_bits + expansion_bits)
        #: Fixed-point scale for real inputs: 10**precision units per 1.0.
        self.scale = 10 ** precision
        #: Offset shifting signed inputs into the non-negative domain.
        self.offset = self.domain_size // 2
        self._root = self._split(
            0, self.domain_size - 1, 0, self.range_size - 1
        )

    # ------------------------------------------------------------------
    # Integer-domain interface
    # ------------------------------------------------------------------
    def encrypt_int(self, value: int) -> int:
        """Encrypt a domain point (raises if out of the key's domain)."""
        if not 0 <= value < self.domain_size:
            raise ValueError(f"value {value} outside OPE domain")
        return self._descend(value, 0)[1]

    def encrypt_many(self, values: Iterable[int]) -> list[int]:
        """Encrypt domain points in order: ``[encrypt_int(v) for v in values]``.

        Every input is checked against the domain before the first
        ciphertext is computed, so a bad batch yields no output at all.

        The domain is a power of two, so every bisection halves it exactly
        and each point sits exactly ``domain_bits`` levels down.  Over
        sampled nodes the walk is therefore a counted loop that carries
        only the range's low end — the last right turn's ``range_mid + 1``
        is the ciphertext — and it starts below the stretch of the trie
        the whole batch shares (a field's points cluster: every one of
        them takes the path of the smallest and the largest down to where
        those two part).  A point that meets an unsampled node is handed
        to :meth:`_descend`, which tracks the rectangle and samples it.
        """
        values = list(values)
        for value in values:
            if not 0 <= value < self.domain_size:
                raise ValueError(f"value {value} outside OPE domain")
        if not values:
            return []
        lowest, highest = min(values), max(values)
        self._descend(lowest, 0)  # sample the shared stretch
        self._descend(highest, 0)
        start, start_low = self._root, 0
        levels_left = self._domain_bits - 1
        while levels_left:
            if highest <= start[0]:
                start = start[2]
            elif lowest > start[0]:
                start_low = start[1] + 1
                start = start[3]
            else:
                break
            levels_left -= 1
        levels = range(levels_left)
        ciphertexts = []
        for value in values:
            node, low = start, start_low
            for _ in levels:
                if value <= node[0]:
                    node = node[2]
                else:
                    low = node[1] + 1
                    node = node[3]
                if node is None:
                    ciphertexts.append(self._descend(value, 0)[1])
                    break
            else:
                # The two-point rectangle: its halves are the answers.
                ciphertexts.append(low if value <= node[0] else node[1] + 1)
        return ciphertexts

    def decrypt_int(self, ciphertext: int) -> int:
        """Invert :meth:`encrypt_int` (raises if not a valid ciphertext)."""
        if not 0 <= ciphertext < self.range_size:
            raise ValueError("ciphertext outside OPE range")
        value, image = self._descend(ciphertext, 1)
        if image != ciphertext:
            raise ValueError("not a valid ciphertext for this key")
        return value

    def _descend(self, target: int, axis: int) -> tuple[int, int]:
        """Walk the trie to the one-point rectangle ``target`` falls in.

        ``axis`` 0 steers by domain midpoints (encryption), 1 by range
        midpoints (decryption).  Returns that rectangle's domain point and
        the low end of its range — the point's ciphertext.
        """
        domain_low, domain_high = 0, self.domain_size - 1
        range_low, range_high = 0, self.range_size - 1
        node = self._root
        while True:
            if target <= node[axis]:
                domain_high = node[0]
                range_high = node[1]
                child = node[2]
                if child is None:
                    if domain_low == domain_high:
                        return domain_low, range_low
                    child = node[2] = self._split(
                        domain_low, domain_high, range_low, range_high
                    )
            else:
                domain_low = node[0] + 1
                range_low = node[1] + 1
                child = node[3]
                if child is None:
                    if domain_low == domain_high:
                        return domain_low, range_low
                    child = node[3] = self._split(
                        domain_low, domain_high, range_low, range_high
                    )
            node = child

    def _split(
        self,
        domain_low: int,
        domain_high: int,
        range_low: int,
        range_high: int,
    ) -> list:
        """Sample the trie node of one (domain, range) rectangle.

        The domain splits at its midpoint.  The range split point is drawn
        by the PRF uniformly from the interval that leaves both halves at
        least as much range as they have domain points — the invariant that
        guarantees strict monotonicity all the way down.
        """
        domain_mid = (domain_low + domain_high) // 2
        left_points = domain_mid - domain_low + 1
        right_points = domain_high - domain_mid
        min_range_mid = range_low + left_points - 1
        max_range_mid = range_high - right_points
        # The packed rectangle is the PRF input: cheap and collision-free.
        draw = self._prf.integer(
            _pack("<4Q", domain_low, domain_high, range_low, range_high)
        )
        span = max_range_mid - min_range_mid + 1
        return [domain_mid, min_range_mid + (draw % span), None, None]

    # ------------------------------------------------------------------
    # Real-valued interface used by OPESS
    # ------------------------------------------------------------------
    def quantize(self, value: float) -> int:
        """Map a real value to its fixed-point domain index."""
        index = round(value * self.scale) + self.offset
        if not 0 <= index < self.domain_size:
            raise ValueError(f"value {value} outside OPE real-valued domain")
        return index

    def encrypt_float(self, value: float) -> int:
        """Encrypt a real value via fixed-point quantization."""
        return self.encrypt_int(self.quantize(value))

    def decrypt_float(self, ciphertext: int) -> float:
        """Decrypt back to the (quantized) real value."""
        return (self.decrypt_int(ciphertext) - self.offset) / self.scale
