"""Fast AES: the 32-bit T-table formulation, one block or a whole CTR run.

Four 256-entry tables fold SubBytes, ShiftRows and MixColumns into one
XOR chain per column per round — the classic Rijndael software shape.
The reference twin in ``repro.crypto.aes`` walks the FIPS 197 state
array byte by byte; ``encrypt_block`` is ~10x fewer Python operations
per block.

``ctr_keystream`` runs the same tables over every block of one or
several CTR keystreams at once: the state is an ``(m * nblocks, 16)``
uint8 array for m counter-block prefixes, and each full round is one
numpy gather into the flattened 4x256 T-table at the ShiftRows-permuted
byte positions, an XOR-reduce of the four words per column, and the
round-key XOR. Below ``_NUMPY_MIN_BLOCKS`` the array
set-up costs more than it saves, so short runs keep the scalar loop.
numpy is imported on the first vectorised call (or by ``warm()``), so
importing the AES and GCM modules stays numpy-free.

Table indices depend on key and plaintext bytes, so this path is
deliberately not constant-time: simulated handshake latencies come from
the calibrated cost model, never from host wall clock (see DESIGN.md
"Fast kernels").
"""

from __future__ import annotations

import functools

from repro.crypto._aestables import SBOX, TE0, TE1, TE2, TE3

# below this many blocks the scalar loop beats the numpy pass (measured
# on a 2-core host against encrypt_block: numpy is 0.5x at 2 blocks,
# ~1x at 4, 1.2x at 5, 1.8x at 8, 7.5x at 64 and 14x at 464)
_NUMPY_MIN_BLOCKS = 5

# (T-table, S-box, ShiftRows source positions, table offsets), built by
# _np_tables() on first use
_NP = None


def encrypt_block(self, block: bytes) -> bytes:
    """T-table AES forward cipher; drop-in for ``AES.encrypt_block``."""
    if len(block) != 16:
        raise ValueError("AES block must be 16 bytes")
    rk = self._round_keys
    s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
    s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
    s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
    s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
    te0, te1, te2, te3 = TE0, TE1, TE2, TE3
    k = 4
    for _ in range(self.rounds - 1):
        # pqtls: allow[CT003] — data-dependent T-table lookups by design
        t0 = (te0[(s0 >> 24) & 0xFF] ^ te1[(s1 >> 16) & 0xFF]
              ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[k])
        # pqtls: allow[CT003]
        t1 = (te0[(s1 >> 24) & 0xFF] ^ te1[(s2 >> 16) & 0xFF]
              ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[k + 1])
        # pqtls: allow[CT003]
        t2 = (te0[(s2 >> 24) & 0xFF] ^ te1[(s3 >> 16) & 0xFF]
              ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[k + 2])
        # pqtls: allow[CT003]
        t3 = (te0[(s3 >> 24) & 0xFF] ^ te1[(s0 >> 16) & 0xFF]
              ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[k + 3])
        s0, s1, s2, s3 = t0, t1, t2, t3
        k += 4
    sbox = SBOX
    # pqtls: allow[CT003] — final round S-box lookups
    out0 = ((sbox[(s0 >> 24) & 0xFF] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
            | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]) ^ rk[k]
    # pqtls: allow[CT003]
    out1 = ((sbox[(s1 >> 24) & 0xFF] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
            | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]) ^ rk[k + 1]
    # pqtls: allow[CT003]
    out2 = ((sbox[(s2 >> 24) & 0xFF] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
            | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]) ^ rk[k + 2]
    # pqtls: allow[CT003]
    out3 = ((sbox[(s3 >> 24) & 0xFF] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
            | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]) ^ rk[k + 3]
    return (out0.to_bytes(4, "big") + out1.to_bytes(4, "big")
            + out2.to_bytes(4, "big") + out3.to_bytes(4, "big"))


def _np_tables():
    """The numpy gather tables, built (and numpy imported) on first use.

    The T-table words are stored as big-endian bytes reinterpreted in
    native order, so XORing them and viewing the result as uint8 yields
    the state bytes directly on any host. Output byte ``4c + r`` of a
    round reads input byte ``4((c + r) % 4) + r`` (ShiftRows) through
    table ``TE<r>``, which sits at offset ``256 * r`` of the flat table.
    """
    global _NP
    if _NP is None:
        import numpy as np

        table = np.array(TE0 + TE1 + TE2 + TE3, dtype=">u4").view(np.uint32)
        sbox = np.array(SBOX, dtype=np.uint8)
        shift = np.array([4 * ((c + r) % 4) + r for c in range(4) for r in range(4)],
                         dtype=np.intp)
        offset = np.array([256 * r for _ in range(4) for r in range(4)], dtype=np.intp)
        _NP = (table, sbox, shift, offset)
    return _NP


def warm() -> None:
    """Import numpy and build the gather tables (benchmark set-up)."""
    _np_tables()


@functools.lru_cache(maxsize=256)
def _np_round_keys(round_keys: tuple[int, ...]):
    import numpy as np

    raw = b"".join(word.to_bytes(4, "big") for word in round_keys)
    return np.frombuffer(raw, dtype=np.uint32).reshape(-1, 4)


def ctr_keystream(cipher, prefixes: bytes, first_counter: int, nblocks: int) -> bytes:
    """``E(prefix || (first_counter + i) mod 2^32)`` for i < nblocks, joined.

    *prefixes* is one 12-byte counter-block prefix or several
    concatenated; the result is each prefix's *nblocks*-block keystream
    in prefix order, all computed in one ``(m * nblocks, 16)`` state.
    The one fast-side CTR loop: AES-CTR keystreams, the batched rows of
    the Kyber-90s and Dilithium-AES expansions, and GCM record
    encryption all come through here.
    """
    count = len(prefixes) // 12
    total = count * nblocks
    # pqtls: allow[CT001] — the block count is public (a message length)
    if total < _NUMPY_MIN_BLOCKS:
        # pqtls: allow[CT110] — the scalar T-table cipher, allowed at its sink
        return b"".join(
            encrypt_block(cipher, prefixes[12 * p: 12 * p + 12]
                          + ((first_counter + i) & 0xFFFFFFFF).to_bytes(4, "big"))
            for p in range(count) for i in range(nblocks))
    import numpy as np

    table, sbox, shift, offset = _np_tables()
    rk = _np_round_keys(tuple(cipher._round_keys))
    blocks = np.empty((count, nblocks, 16), dtype=np.uint8)
    blocks[:, :, :12] = np.frombuffer(prefixes, dtype=np.uint8,
                                      count=12 * count).reshape(count, 1, 12)
    counters = np.arange(first_counter, first_counter + nblocks, dtype=np.uint64)
    blocks[:, :, 12:] = (counters & 0xFFFFFFFF).astype(">u4").view(np.uint8).reshape(nblocks, 4)
    words = blocks.reshape(total, 16).view(np.uint32) ^ rk[0]
    for round_key in rk[1:-1]:
        # pqtls: allow[CT003] — data-dependent T-table gather by design
        gathered = table[words.view(np.uint8).take(shift, axis=1) + offset]
        words = np.empty((total, 4), dtype=np.uint32)
        np.bitwise_xor.reduce(gathered.reshape(total, 4, 4), axis=2, out=words)
        words ^= round_key
    last = sbox.take(words.view(np.uint8).take(shift, axis=1)).view(np.uint32)
    last ^= rk[-1]
    return last.tobytes()
