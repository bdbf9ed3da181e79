"""The contract the CI step enforces: the tree lints clean.

This is the in-process twin of `pqtls-lint src/repro` — every committed
contract violation must be either fixed or carried in the reviewed
baseline, and the baseline itself must stay small, justified, and free
of stale entries.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.runner import analyze


def test_src_repro_lints_clean_with_committed_baseline(repo_root):
    baseline = Baseline.load(repo_root / ".pqtls-baseline.json")
    # check_pragmas: a `pqtls: allow` whose finding went away is stale
    # (ANA001) and fails here as well as in CI's --check-pragmas step
    report = analyze([repo_root / "src" / "repro"], project_root=repo_root,
                     baseline=baseline, check_pragmas=True)
    assert report.ok, "\n".join(
        f"{f.location}: {f.code} {f.message}" for f in report.findings
    )
    assert report.stale_baseline == [], "baseline has stale entries; prune them"


def test_baseline_stays_small_and_justified(repo_root):
    baseline = Baseline.load(repo_root / ".pqtls-baseline.json")
    assert len(baseline.entries) <= 15
    for entry in baseline.entries:
        # a justification must say *why*, not restate the finding
        assert len(entry.justification) > 40, entry.code
