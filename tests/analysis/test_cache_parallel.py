"""Runner infrastructure: lint cache, one-process runs, ANA hygiene, SARIF."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap

from repro.analysis import cli
from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.reporters import render_json, render_sarif
from repro.analysis.runner import analyze

TREE = {
    "repro/pqc/kem.py": """
        def decaps(secret_key, ct):
            if secret_key[0]:
                return b"a"
            return b"b"
    """,
    "repro/core/loader.py": """
        def load():
            try:
                return 1
            # pqtls: allow[EXC001] — fallback is the documented contract
            except Exception:
                return None
    """,
    "repro/tls/frames.py": """
        def frame(payload):
            return len(payload).to_bytes(2, "big") + payload
    """,
    "repro/core/walk.py": """
        def walk(items):
            return [item for item in items if item]
    """,
}


def codes(report):
    return [f.code for f in report.findings]


# -- content-addressed cache ------------------------------------------------

def test_warm_run_is_byte_identical_and_fully_cached(lint_tree):
    cold = lint_tree(TREE)
    warm = lint_tree(TREE)
    assert render_json(cold) == render_json(warm)
    assert cold.from_cache == 0
    assert warm.from_cache == len(TREE)
    assert warm.pragma_suppressed == cold.pragma_suppressed == 1
    assert codes(warm) == ["CT001"]


def test_cache_invalidated_by_file_edit(lint_tree):
    first = lint_tree(TREE)
    assert codes(first) == ["CT001"]
    edited = dict(TREE)
    edited["repro/tls/frames.py"] = """
        def frame(payload):
            import time
            return time.time()
    """
    second = lint_tree(edited)
    assert codes(second) == ["CT001", "DET001"]
    # only the edited file misses; its three siblings come from the cache
    assert second.from_cache == len(TREE) - 1


def test_select_is_applied_at_assembly_over_cached_records(lint_tree):
    lint_tree(TREE)  # populate the cache with all-checker records
    only_ct = lint_tree(TREE, select=["ct"])
    assert only_ct.from_cache == len(TREE)
    assert codes(only_ct) == ["CT001"]
    assert only_ct.pragma_suppressed == 0  # EXC001 pragma is out of scope


def test_no_cache_leaves_no_cache_directory(lint_tree, tmp_path):
    report = lint_tree(TREE, use_cache=False)
    assert codes(report) == ["CT001"]
    assert not (tmp_path / ".cache").exists()


# -- the project-scope pass over cached records -----------------------------

def test_project_pass_over_cache_hits_matches_cold_run(lint_tree, tmp_path):
    files = dict(TREE)
    # a cross-call secret branch: only the project-scope flow checker sees
    # it, over contexts the warm run re-parses because every record is a
    # cache hit
    files["repro/pqc/helpers.py"] = """
        def mix(flag):
            if flag:
                return 1
            return 0

        def derive(sk):
            return mix(sk[0])
    """
    uncached = lint_tree(files, use_cache=False)
    assert codes(uncached) == ["CT101", "CT001"]   # sorted by path
    assert uncached.pragma_suppressed == 1

    cold = lint_tree(files)
    # without its project record, the warm run re-parses every file for
    # the project pass, since all its file records are cache hits
    for record in (tmp_path / ".cache" / "lint" / "project").iterdir():
        record.unlink()
    warm = lint_tree(files)
    assert warm.from_cache == len(files) and cold.from_cache == 0
    assert render_json(cold) == render_json(warm) == render_json(uncached)


def test_importing_lint_runner_loads_no_simulation_stack():
    # the lint runs in one process: `pqtls-lint` pays for neither numpy,
    # the experiment stack, nor any process-pool machinery
    code = ("import sys, repro.analysis.runner, repro.analysis.cli; "
            "print(sorted({'numpy', 'repro.core.experiment', "
            "'repro.core.fanout', 'multiprocessing', 'concurrent.futures'}"
            " & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "[]"


# -- pragma / baseline hygiene ----------------------------------------------

def test_stale_pragma_reported_live_pragma_not(lint_tree):
    files = dict(TREE)
    files["repro/core/dead.py"] = """
        def f():
            return 1  # pqtls: allow[EXC001]
    """
    report = lint_tree(files, check_pragmas=True)
    ana = [f for f in report.findings if f.code == "ANA001"]
    assert [(f.path, f.line) for f in ana] == [("repro/core/dead.py", 3)]
    assert "suppresses no finding" in ana[0].message


def test_unknown_pragma_code_is_stale_even_when_unselected(lint_tree):
    files = {
        "repro/core/typo.py": """
            def f():
                return 1  # pqtls: allow[CT999]
        """,
        "repro/crypto/live.py": """
            def check(shared_secret):
                if shared_secret[0]:  # pqtls: allow[CT001]
                    return 1
                return 0
        """,
    }
    report = lint_tree(files, select=["det"], check_pragmas=True)
    # CT999: no checker can ever emit it -> stale; the CT001 pragma is
    # unjudgeable under --select det and must not be flagged
    assert codes(report) == ["ANA001"]
    assert "no checker emits this code" in report.findings[0].message


def _write_tree(root, files):
    # anchor find_project_root at the tmp tree so CLI-derived relpaths
    # match the ones analyze() produces with an explicit project_root
    (root / "pyproject.toml").touch()
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        current = path.parent
        while current != root:
            (current / "__init__.py").touch()
            current = current.parent
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def test_ana002_and_prune_baseline_via_cli(tmp_path, capsys):
    _write_tree(tmp_path, {"repro/core/h.py": """
        def load():
            try:
                return 1
            except Exception:
                return None
    """})
    report = analyze([tmp_path / "repro"], project_root=tmp_path)
    assert codes(report) == ["EXC001"]
    baseline = Baseline.from_findings(report.findings, justification="reviewed")
    baseline.entries.append(BaselineEntry(
        code="EXC001", path="repro/core/h.py", symbol="gone",
        message="x", justification="reviewed"))
    baseline_path = tmp_path / "baseline.json"
    baseline.save(baseline_path)

    argv = [str(tmp_path / "repro"), "--baseline", str(baseline_path)]
    assert cli.main([*argv, "--check-pragmas"]) == 1
    out = capsys.readouterr().out
    assert "ANA002" in out and "stale baseline entry" in out

    assert cli.main([*argv, "--prune-baseline"]) == 0
    assert "pruned 1 stale entries" in capsys.readouterr().out
    kept = Baseline.load(baseline_path).entries
    assert [e.symbol for e in kept] == ["load"]

    assert cli.main([*argv, "--check-pragmas"]) == 0


# -- SARIF ------------------------------------------------------------------

def test_sarif_document_structure(lint_tree):
    report = lint_tree(TREE)
    doc = json.loads(render_sarif(report))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "pqtls-lint"
    rules = [rule["id"] for rule in driver["rules"]]
    assert rules == ["CT001"]
    result = run["results"][0]
    assert result["ruleId"] == "CT001"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "repro/pqc/kem.py"
    assert location["region"]["startLine"] == 3


def test_sarif_written_by_cli(tmp_path, capsys):
    _write_tree(tmp_path, {"repro/core/h.py": """
        def load():
            try:
                return 1
            except Exception:
                return None
    """})
    sarif_path = tmp_path / "lint.sarif"
    rc = cli.main([str(tmp_path / "repro"), "--sarif", str(sarif_path)])
    capsys.readouterr()
    assert rc == 1
    doc = json.loads(sarif_path.read_text(encoding="utf-8"))
    assert [r["ruleId"] for r in doc["runs"][0]["results"]] == ["EXC001"]
