"""CT1xx interprocedural checker: leaks the intra CT pass cannot see."""

from __future__ import annotations

import pytest


def codes(report):
    return [f.code for f in report.findings]


def test_secret_branch_across_call_boundary(lint):
    # The callee's parameter is innocuously named, so the intraprocedural
    # checker sees nothing in either function — this is the before/after
    # demonstration that the flow engine closes a real gap.
    source = """
        def mix(flag):
            if flag:
                return 1
            return 0

        def derive(sk):
            return mix(sk[0])
    """
    intra = lint("repro/pqc/helpers.py", source, select=["ct"])
    assert codes(intra) == []

    flow = lint("repro/pqc/helpers.py", source, select=["ctflow"])
    assert codes(flow) == ["CT101"]
    finding = flow.findings[0]
    assert finding.symbol == "derive"
    assert "mix(flag=...)" in finding.message
    assert "branch" in finding.message


def test_secret_loop_bound_and_subscript_in_callee(lint_tree):
    report = lint_tree({
        "repro/pqc/caller.py": """
            from repro.pqc.callee import spin, pick

            def use(secret_key, table):
                spin(secret_key[0])
                return pick(table, secret_key[1])
        """,
        "repro/pqc/callee.py": """
            def spin(count):
                total = 0
                for i in range(count):
                    total += i
                return total

            def pick(table, where):
                return table[where]
        """,
    }, select=["ctflow"])
    assert codes(report) == ["CT102", "CT103"]
    assert all(f.path == "repro/pqc/caller.py" for f in report.findings)


def test_secret_named_callee_param_not_double_reported(lint_tree):
    # `sk` inside the callee is seeded by the intraprocedural checker
    # already; ctflow must stay silent to avoid duplicate findings.
    report = lint_tree({
        "repro/pqc/dup.py": """
            def inner(sk):
                if sk[0]:
                    return 1
                return 0

            def outer(secret_key):
                return inner(secret_key)
        """,
    }, select=["ctflow"])
    assert codes(report) == []


def test_public_argument_is_not_flagged(lint):
    report = lint("repro/pqc/pub.py", """
        def mix(flag):
            if flag:
                return 1
            return 0

        def derive(count):
            return mix(count)
    """, select=["ctflow"])
    assert codes(report) == []


def test_kernel_caller_inherits_allowed_sink_as_note(lint_tree):
    report = lint_tree({
        "repro/crypto/kernels/fastpath.py": """
            from repro.crypto.tables import lookup

            def kernel(block):
                return lookup(block)
        """,
        "repro/crypto/tables.py": """
            TABLE = list(range(256))

            def lookup(v):
                return TABLE[v]  # pqtls: allow[CT003]
        """,
    }, select=["ctflow"])
    assert codes(report) == ["CT110"]
    finding = report.findings[0]
    assert finding.severity.value == "note"
    assert "pragma-allowed" in finding.message
    assert report.ok  # notes never gate


@pytest.mark.parametrize("method", [
    "hexdigest",
    pytest.param("digest", marks=pytest.mark.xfail(strict=True, reason=(
        "name dispatch routes `.digest()` to the in-tree Hasher.digest, "
        "whose summary carries no flow from its receiver, so the secret "
        "is dropped at the call (DESIGN.md §11)"))),
])
def test_builtin_method_call_carries_taint_past_in_tree_namesakes(lint_tree, method):
    # hashlib's digest() is not in the tree; an in-tree method that only
    # shares its name must not swallow the secret flowing through it
    report = lint_tree({
        "repro/crypto/hashwrap.py": f"""
            class Hasher:
                def {method}(self):
                    return b""
        """,
        "repro/pqc/fix.py": """
            import hashlib

            def check(data):
                if data[0]:
                    return 1
                return 0

            def derive(secret_key):
                return check(hashlib.sha256(secret_key).digest())
        """,
    }, select=["ctflow"])
    assert [(f.code, f.symbol) for f in report.findings] == [("CT101", "derive")]
