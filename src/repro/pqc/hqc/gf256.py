"""GF(2^8) arithmetic with the HQC/AES-adjacent polynomial x^8+x^4+x^3+x^2+1.

Reference only: ``poly_mul`` builds each Reed–Solomon generator
polynomial once at import and runs in the error-correcting decode path,
which honest handshakes never reach, so it has no fast twin. The fast
RS kernels in ``repro.crypto.kernels.hqc`` derive their own numpy
exp/log gather tables.
"""

from __future__ import annotations

_POLY = 0x11D


def _build_tables() -> tuple[list[int], list[int]]:
    exp = [0] * 512
    log = [0] * 256
    value = 1
    for i in range(255):
        exp[i] = value
        log[value] = i
        value <<= 1
        if value & 0x100:
            value ^= _POLY
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    return exp, log


EXP, LOG = _build_tables()


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return EXP[LOG[a] + LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(256)")
    return EXP[255 - LOG[a]]


def gf_div(a: int, b: int) -> int:
    return gf_mul(a, gf_inv(b))


def gf_pow(a: int, e: int) -> int:
    if a == 0:
        return 0 if e else 1
    return EXP[(LOG[a] * e) % 255]


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Multiply polynomials with coefficients in GF(256) (index = degree)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] ^= gf_mul(ai, bj)
    return out


def poly_eval(poly: list[int], x: int) -> int:
    """Horner evaluation."""
    acc = 0
    for coeff in reversed(poly):
        acc = gf_mul(acc, x) ^ coeff
    return acc
