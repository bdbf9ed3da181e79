"""Deterministic random bit generator.

All randomness in this repository — key generation, protocol nonces, netem
loss decisions — flows through :class:`Drbg`, a SHAKE-128 counter-mode
generator. Given the same seed, every experiment reproduces bit-exactly,
which substitutes for the paper's "automated, repeatable" measurement
pipeline (their §4).
"""

from __future__ import annotations

import hashlib

_BLOCK = 136  # one SHAKE-128 rate-block per squeeze keeps hashing cheap


class Drbg:
    """SHAKE-128 based deterministic RNG.

    The stream is ``SHAKE128(seed || counter)`` blocks. ``fork(label)``
    derives an independent child stream, so subsystems (keygen, netem, ...)
    can draw without perturbing each other's sequences.

    The bulk draws ``randoms(n)`` and ``randints_below(bound, n)`` return
    exactly what *n* calls of ``random()`` / ``randint_below(bound)`` would
    and consume exactly the same bytes, so bulk and scalar calls mix
    freely on one stream. They import numpy on first use; importing this
    module does not.
    """

    def __init__(self, seed: bytes | str | int):
        if isinstance(seed, str):
            seed = seed.encode()
        elif isinstance(seed, int):
            seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big")
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = b""
        self._offset = 0  # bytes of _buffer already handed out

    def fork(self, label: bytes | str) -> "Drbg":
        """Derive an independent generator bound to *label*."""
        if isinstance(label, str):
            label = label.encode()
        child_seed = hashlib.shake_128(
            b"repro.fork" + len(self._seed).to_bytes(4, "big") + self._seed + label
        ).digest(32)
        return Drbg(child_seed)

    def _refill(self, n: int) -> None:
        """Rebuild the buffer as its unread tail plus enough blocks for *n*.

        One ``join`` keeps a large request linear in its block count.
        """
        chunks = [self._buffer[self._offset:]]
        have = len(chunks[0])
        seed, counter = self._seed, self._counter
        while have < n:
            chunks.append(hashlib.shake_128(
                seed + counter.to_bytes(8, "big")).digest(_BLOCK))
            counter += 1
            have += _BLOCK
        self._buffer = b"".join(chunks)
        self._counter = counter
        self._offset = 0

    def random_bytes(self, n: int) -> bytes:
        """Return *n* pseudo-random bytes."""
        if n < 0:
            raise ValueError("n must be non-negative")
        start = self._offset
        end = start + n
        if end > len(self._buffer):
            self._refill(n)
            start, end = 0, n
        self._offset = end
        return self._buffer[start:end]

    def randint_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        nbytes, limit = _rejection(bound)
        while True:
            candidate = int.from_bytes(self.random_bytes(nbytes), "big")
            if candidate < limit:
                return candidate % bound

    def randints_below(self, bound: int, n: int) -> list[int]:
        """The next *n* ``randint_below(bound)`` values, drawn in bulk.

        Candidates come ``need`` at a time, where ``need`` is the number
        of values still missing; a round ends the draw only when all of
        its candidates pass, so no candidate past the last accepted one is
        ever consumed.
        """
        nbytes, limit = _rejection(bound)
        if nbytes > 7:  # the limit may reach 2**64, past uint64: stay scalar
            return [self.randint_below(bound) for _ in range(n)]
        out: list[int] = []
        while len(out) < n:
            words = _words(self.random_bytes(nbytes * (n - len(out))), nbytes)
            out += (words[words < limit] % bound).tolist()
        return out

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError("empty range")
        return low + self.randint_below(high - low + 1)

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision."""
        return (int.from_bytes(self.random_bytes(7), "big") >> 3) / (1 << 53)

    def randoms(self, n: int):
        """The next *n* ``random()`` values as a float64 array.

        Each 7-byte group is read as a big-endian integer, shifted right by
        3 and divided by 2**53; every step is exact in uint64/float64.
        """
        words = _words(self.random_bytes(7 * n), 7)
        return (words >> 3).astype("float64") / float(1 << 53)

    def shuffle(self, items: list) -> None:
        """In-place Fisher–Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def choice(self, items):
        """Pick one element uniformly."""
        if not items:
            raise ValueError("empty sequence")
        return items[self.randint_below(len(items))]

    def sample_distinct(self, bound: int, count: int) -> list[int]:
        """*count* distinct integers in ``[0, bound)`` (sparse-vector support)."""
        if count > bound:
            raise ValueError("cannot sample more distinct values than the range holds")
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < count:
            value = self.randint_below(bound)
            if value not in seen:
                seen.add(value)
                out.append(value)
        return out


def _rejection(bound: int) -> tuple[int, int]:
    """Candidate width in bytes and the rejection limit for *bound*."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    nbytes = (bound.bit_length() + 7) // 8
    span = 1 << (8 * nbytes)
    return nbytes, span - span % bound


def _words(data: bytes, nbytes: int):
    """*data* as consecutive big-endian *nbytes*-wide uint64 words."""
    import numpy as np

    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, nbytes)
    padded = np.zeros((raw.shape[0], 8), dtype=np.uint8)
    padded[:, 8 - nbytes:] = raw
    return padded.view(">u8").ravel().astype(np.uint64)
