"""repro.crypto.kernels — fast drop-in kernels behind the reference crypto.

The reference implementations under ``repro.crypto`` / ``repro.pqc`` are
written to read like the specs; this package holds their performance
twins: Kyber's and Dilithium's polynomial vectors as (rows, 256) numpy
arrays with batched arithmetic and samplers, on the shared
layer-parallel NTT, whole-vector bit packer and batched matrix
rejection filter of ``lattice``; T-table AES with one multi-nonce CTR
pass; the codegen-unrolled Haraka-512 permutation, table-driven
GHASH and GF(256), windowed EC scalar multiplication, and CRT RSA. Every
kernel is byte-for-byte equivalent to its reference twin (property-tested
in ``tests/crypto/test_kernels.py``), so which side runs never changes
wire artefacts, cache keys, or recorded handshakes — only wall clock.

The simulated clock comes from a cost model, so a twin buys host time
and nothing else: one is bound only where a production path calls it
and it beats its reference by more than run-to-run noise. A reference
entry point that nothing calls, or that its twin does not clearly beat,
stays a plain function with no binding.

Selection
---------
``PQTLS_KERNELS=fast|ref`` (default ``fast``) picks the active side at
import time. The reference side stays runnable forever as the
correctness oracle; CI exercises it on every push.

Mechanics
---------
Each reference module registers its switchable entry points at the
bottom of the file::

    from repro.crypto import kernels
    kernels.bind(sys.modules[__name__], "ntt", ref=ntt, fast=_fast.ntt)

``bind`` installs the active side via ``setattr`` on the owning module
or class and records the pair, so :func:`set_mode` / :func:`override`
can rebind everything at runtime — which is how the equivalence tests
drive both sides in one process. Call sites must therefore resolve the
attribute at call time (``poly.ntt(...)``, ``self.encrypt_block(...)``),
never hold a direct reference from an early ``from x import y``.

Kernel modules in this package never import the reference module they
accelerate (the reference module imports *them* for binding); shared
constants live in leaf modules like ``repro.crypto._aestables``.
"""

from __future__ import annotations

import contextlib
import os

ENV_VAR = "PQTLS_KERNELS"
MODES = ("fast", "ref")


def configured_mode() -> str:
    """The mode requested by the environment (validated, default fast)."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return "fast"
    value = raw.strip().lower()
    if value not in MODES:
        raise ValueError(
            f"{ENV_VAR} must be one of {'/'.join(MODES)}, got {raw!r}")
    return value


_mode = configured_mode()

# Every registered switch point: (owner object, attribute, ref, fast).
_BINDINGS: list[tuple[object, str, object, object]] = []


def mode() -> str:
    """The currently active mode (``"fast"`` or ``"ref"``)."""
    return _mode


def fast_enabled() -> bool:
    return _mode == "fast"


def bind(owner: object, name: str, *, ref: object, fast: object) -> None:
    """Register a ref/fast pair and install the active side on *owner*.

    *owner* is a module or a class; plain functions become methods when
    bound on a class (pass ``staticmethod(...)`` wrappers for static
    entry points). Binding is idempotent per (owner, name): re-binding
    replaces the previous registration.
    """
    global _BINDINGS
    _BINDINGS = [b for b in _BINDINGS if not (b[0] is owner and b[1] == name)]
    _BINDINGS.append((owner, name, ref, fast))
    setattr(owner, name, fast if _mode == "fast" else ref)


def set_mode(value: str) -> None:
    """Switch every registered binding to *value* (``fast`` or ``ref``)."""
    global _mode
    if value not in MODES:  # pqtls: allow[CT001] — mode name, not secret data
        raise ValueError(f"mode must be one of {'/'.join(MODES)}, got {value!r}")
    _mode = value
    for owner, name, ref, fast in _BINDINGS:
        setattr(owner, name, fast if value == "fast" else ref)  # pqtls: allow[CT001]


@contextlib.contextmanager
def override(value: str):
    """Temporarily run under *value* mode (used by the equivalence tests)."""
    previous = _mode
    set_mode(value)  # pqtls: allow[CT110] — mode label, not secret data
    try:
        yield
    finally:
        set_mode(previous)


_KERNEL_MODULES = ("aes", "dilithium", "ec", "gcm", "gf256", "haraka",
                   "hqc", "kyber", "lattice", "rsa")


def warm() -> list[str]:
    """Build every kernel's lazy tables now; returns the modules touched.

    Imports all kernel submodules (paying their import-time constant
    derivation) and invokes each module-level ``warm()`` hook where one
    exists, so first-use costs — e.g. the 64 KiB GF(256) product table
    or the numpy gather tables — are paid up front (a benchmark's setup
    phase) instead of in the middle of the first measured experiment.
    Without it the lazy tables build the same values on first use.
    """
    import importlib

    warmed = []
    for name in _KERNEL_MODULES:
        module = importlib.import_module(f"{__name__}.{name}")
        hook = getattr(module, "warm", None)
        if hook is not None:
            hook()
        warmed.append(name)
    return warmed
