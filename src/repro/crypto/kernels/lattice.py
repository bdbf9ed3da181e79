"""numpy building blocks shared by the Kyber and Dilithium kernels.

Both schemes hold polynomial vectors as (rows, 256) int64 arrays, and
three of their kernels differ only in constants:

- :class:`Ntt`, the layer-parallel NTT/INTT butterflies. One instance
  per scheme, built from (q, zetas, number of layers, inverse scale):
  Dilithium's complete 8-layer transform and Kyber's incomplete 7-layer
  one index their zeta tables the same way, the slice ``zetas[m : 2m]``
  for the layer with m blocks, reversed on the inverse.
- ``pack_vec``/``unpack_vec``, the whole-vector bit packer: one
  ``np.packbits``/``np.unpackbits`` pass (``bitorder="little"``).
- :func:`first_accepted`, the batched rejection filter of the public
  matrix expansion: a ``cumsum`` over each row's accept mask keeps the
  first 256 accepted candidates of every row at once.

All arithmetic is exact integer math in int64, so results equal the
scalar reference loops coefficient for coefficient.
"""

from __future__ import annotations

import numpy as np

N = 256


class Ntt:
    """Layer-parallel NTT and inverse NTT over Z_q, for any number of rows.

    Only the twiddle product is reduced inside a forward layer: each
    layer raises the magnitude bound by at most q. The inverse keeps the
    ``lo + hi`` half unreduced, so the bound at most doubles per layer.
    With q < 2^23 and at most 8 layers every product stays below 2^54,
    and one final floor ``% q`` gives the canonical result.
    """

    def __init__(self, q: int, zetas: list[int], layers: int, inverse_scale: int):
        self.q = q
        self.scale = inverse_scale
        table = np.array(zetas, dtype=np.int64)
        # (blocks, length, zeta column) per forward layer, widest first
        self._forward = []
        # pqtls: allow[CT002] — the layer count is the scheme's public constant
        for layer in range(layers):
            blocks = 1 << layer
            self._forward.append(
                # pqtls: allow[CT003] — zeta slice by the public layer index
                (blocks, N // (2 * blocks), table[blocks: 2 * blocks][None, :, None]))
        self._inverse = [(blocks, length, zetas_col[:, ::-1])
                         for blocks, length, zetas_col in reversed(self._forward)]

    def forward(self, rows: np.ndarray) -> np.ndarray:
        q = self.q
        f = rows % q  # a fresh array, rewritten in place layer by layer
        nrows = f.shape[0]
        for blocks, length, zetas in self._forward:
            g = f.reshape(nrows, blocks, 2, length)
            lo = g[:, :, 0, :]
            hi = g[:, :, 1, :]
            t = (zetas * hi) % q
            np.subtract(lo, t, out=hi)
            lo += t
        return f % q

    def inverse(self, rows: np.ndarray) -> np.ndarray:
        q = self.q
        f = rows % q
        nrows = f.shape[0]
        for blocks, length, zetas in self._inverse:
            g = f.reshape(nrows, blocks, 2, length)
            lo = g[:, :, 0, :]
            hi = g[:, :, 1, :]
            t = hi - lo
            lo += hi
            t *= zetas
            np.remainder(t, q, out=hi)
        return (f * self.scale) % q


# -- whole-vector bit packing ---------------------------------------------

def pack_vec(rows: np.ndarray, bits: int) -> bytes:
    """Every row's *bits*-wide coefficients, LSB first, rows concatenated.

    A row is 256 * bits bits, a whole number of bytes, so one packbits
    pass over the vector equals the per-row reference encodings joined.
    """
    shifts = np.arange(bits, dtype=np.int64)
    lanes = ((rows[..., None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(lanes.reshape(-1), bitorder="little").tobytes()


def unpack_vec(data: bytes, bits: int, nrows: int) -> np.ndarray:
    """Inverse of :func:`pack_vec`: (nrows, 256) from the head of *data*."""
    if 8 * len(data) < bits * N * nrows:  # pqtls: allow[CT001] — public shape check
        raise ValueError("unpack_vec: not enough data")
    raw = np.frombuffer(data, dtype=np.uint8, count=bits * N * nrows // 8)
    lanes = np.unpackbits(raw, bitorder="little").reshape(nrows, N, bits)
    return lanes.astype(np.int64) @ (1 << np.arange(bits, dtype=np.int64))


# -- batched rejection sampling -------------------------------------------

def first_accepted(values: np.ndarray, good: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first 256 accepted candidates of every row.

    *values* and *good* are (rows, candidates): each row's candidates in
    stream order and its accept mask. Returns ``(coeffs, full)``:
    ``full[r]`` says row r accepted at least 256 candidates, and
    ``coeffs[r]`` holds its first 256 accepted values (zeros when the
    row fell short; the caller squeezes that row's stream longer).
    Rejection runs over public XOF output, the matrix A's seed.
    """
    counts = np.cumsum(good, axis=1)
    full = counts[:, -1] >= N
    keep = good & (counts <= N)
    coeffs = np.zeros((values.shape[0], N), dtype=np.int64)
    # pqtls: allow[CT003] — rejection mask over the public matrix stream
    coeffs[full] = values[full][keep[full]].reshape(-1, N)
    return coeffs, full
