"""Codegen-unrolled Haraka-512 v2 permutation.

SPHINCS+-Haraka is the repository's hash storm: one 128f signature runs
~100k Haraka-512 permutations, and the reference implementation pays for
list indexing, a Python-level MIX shuffle, round-constant table walks,
and a function call per AES round. This kernel instead *generates
straight-line Python source* for the whole 5-round permutation, once per
round-constant set, and ``exec``-compiles it. Only the 512-bit
permutation is generated: every SPHINCS+ construction here (the
tweakable hashes and the HarakaS sponge) runs on it.

- the 16 state words live in local variables, not a list;
- the MIX word shuffle is performed at codegen time by renaming which
  local feeds which expression — it costs zero instructions at runtime;
- round constants are embedded as integer literals;
- input/output go through one ``struct`` unpack/pack each.

The AES columns keep the four 256-entry T-tables of the reference. A
previous revision fused them into two 65536-entry double-byte tables to
halve the lookup count; that was measurably *slower*: 160 columns of
random indexing into ~1 MiB of boxed ints miss the cache on nearly every
lookup, while the four small tables stay L1-resident. Fewer instructions
lost to worse locality.

The generated function is byte-for-byte equivalent to the reference
permutation (property-tested) and ~1.5x faster. Compilation costs ~2 ms
and is memoized per round-constant stream, so the default instance and
each keyed (per-``pub_seed``) instance compile exactly once.
"""

from __future__ import annotations

import functools
import struct

from repro.crypto._aestables import TE0, TE1, TE2, TE3

_MIX512_ORDER = [3, 11, 7, 15, 8, 0, 12, 4, 9, 1, 13, 5, 2, 10, 6, 14]


def _perm512_source(rc_words: list[int]) -> str:
    """Straight-line source for the 5-round Haraka-512 permutation.

    Mirrors the reference loop exactly: per round, each 4-word AES block
    gets two AES rounds (consuming round-constant words block-major, as
    the reference does), then the MIX word shuffle — applied here by
    permuting the *names* of the locals that carry the state.
    """
    names = [f"w{i}" for i in range(16)]
    # Tables and struct codecs ride in as default arguments so every
    # lookup in the generated body is a LOAD_FAST, not a global lookup.
    lines = ["def perm512(data, T0=T0, T1=T1, T2=T2, T3=T3, "
             "unpack=unpack, pack=pack):",
             f"    {', '.join(names)} = unpack(data)"]
    temp = 0
    rc_index = 0
    for _round in range(5):
        for block in range(4):
            for _aes in range(2):
                s0, s1, s2, s3 = names[4 * block: 4 * block + 4]
                new = [f"t{temp + i}" for i in range(4)]
                temp += 4
                k = rc_words[rc_index: rc_index + 4]
                rc_index += 4
                # AESENC columns; >> 24 needs no mask (words are 32-bit)
                lines += [
                    f"    {new[0]} = T0[{s0} >> 24] ^ T1[{s1} >> 16 & 255]"
                    f" ^ T2[{s2} >> 8 & 255] ^ T3[{s3} & 255] ^ {k[0]}",
                    f"    {new[1]} = T0[{s1} >> 24] ^ T1[{s2} >> 16 & 255]"
                    f" ^ T2[{s3} >> 8 & 255] ^ T3[{s0} & 255] ^ {k[1]}",
                    f"    {new[2]} = T0[{s2} >> 24] ^ T1[{s3} >> 16 & 255]"
                    f" ^ T2[{s0} >> 8 & 255] ^ T3[{s1} & 255] ^ {k[2]}",
                    f"    {new[3]} = T0[{s3} >> 24] ^ T1[{s0} >> 16 & 255]"
                    f" ^ T2[{s1} >> 8 & 255] ^ T3[{s2} & 255] ^ {k[3]}",
                ]
                names[4 * block: 4 * block + 4] = new
        names = [names[i] for i in _MIX512_ORDER]
    lines.append(f"    return pack({', '.join(names)})")
    return "\n".join(lines)


@functools.lru_cache(maxsize=64)
def compiled_perm512(rc_stream: bytes):
    """perm512 compiled for a 640-byte round-constant stream."""
    if len(rc_stream) != 640:
        raise ValueError("Haraka needs 40 x 16 bytes of round constants")
    # the permutation strides the constant stream 32 words per round
    rc_words = [int.from_bytes(rc_stream[4 * i: 4 * i + 4], "big")
                for i in range(160)]
    codec = struct.Struct(">16I")
    namespace = {"T0": TE0, "T1": TE1, "T2": TE2, "T3": TE3,
                 "unpack": codec.unpack, "pack": codec.pack}
    exec(_perm512_source(rc_words), namespace)
    return namespace["perm512"]


def perm512_for(haraka):
    """The compiled Haraka-512 permutation of a ``Haraka`` instance."""
    cached = haraka.__dict__.get("_kernel_perm512")
    if cached is None:  # pqtls: allow[CT001] — per-instance compile-cache probe
        cached = compiled_perm512(b"".join(haraka._rc[:40]))
        haraka._kernel_perm512 = cached
    return cached
