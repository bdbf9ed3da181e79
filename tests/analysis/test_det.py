"""DET checker: ambient clocks and entropy sources."""


def codes(report):
    return [f.code for f in report.findings]


def test_wall_clock_outside_obs_flagged(lint):
    report = lint("repro/netsim/fix.py", """
        import time

        def stamp():
            return time.time()
    """, select=["det"])
    assert codes(report) == ["DET001"]


def test_from_time_import_perf_counter_flagged(lint):
    report = lint("repro/core/fix.py", """
        from time import perf_counter

        def stamp():
            return perf_counter()
    """, select=["det"])
    assert codes(report) == ["DET001"]


def test_clock_allowed_inside_obs(lint):
    report = lint("repro/obs/fix.py", """
        import time

        def wall_anchor():
            return time.perf_counter()
    """, select=["det"])
    assert codes(report) == []


def test_random_module_flagged_even_in_obs(lint):
    report = lint("repro/obs/fix.py", """
        import random

        def jitter():
            return random.random()
    """, select=["det"])
    assert codes(report) == ["DET002"]


def test_os_urandom_and_secrets_flagged(lint):
    report = lint("repro/crypto/fix.py", """
        import os
        import secrets

        def bad_key():
            return os.urandom(32) + secrets.token_bytes(32)
    """, select=["det"])
    assert sorted(codes(report)) == ["DET003", "DET003"]


def test_ambient_datetime_now_flagged(lint):
    report = lint("repro/core/fix.py", """
        from datetime import datetime

        def label():
            return datetime.now().isoformat()
    """, select=["det"])
    assert codes(report) == ["DET004"]


def test_drbg_random_method_is_fine(lint):
    report = lint("repro/netsim/fix.py", """
        def jitter(drbg):
            return drbg.random() * 2 - 1
    """, select=["det"])
    assert codes(report) == []


def test_explicit_datetime_is_fine(lint):
    report = lint("repro/core/fix.py", """
        from datetime import datetime, timezone

        def label(epoch_seconds):
            return datetime.fromtimestamp(epoch_seconds, tz=timezone.utc)
    """, select=["det"])
    assert codes(report) == []


def test_multiprocessing_outside_executor_flagged(lint):
    report = lint("repro/core/campaign_helpers.py", """
        import multiprocessing

        def fan_out():
            return multiprocessing.Pool()
    """, select=["det"])
    assert codes(report) == ["DET005"]


def test_concurrent_futures_outside_executor_flagged(lint):
    report = lint("repro/netsim/fix.py", """
        from concurrent.futures import ProcessPoolExecutor

        def pool():
            return ProcessPoolExecutor()
    """, select=["det"])
    assert codes(report) == ["DET005"]


def test_os_cpu_count_outside_executor_flagged(lint):
    report = lint("repro/core/cli_helpers.py", """
        import os

        def default_jobs():
            return os.cpu_count()
    """, select=["det"])
    assert codes(report) == ["DET005"]


_POOL_SOURCE = """
    import multiprocessing
    import os
    from concurrent.futures import ProcessPoolExecutor

    def pool():
        context = multiprocessing.get_context("spawn")
        return ProcessPoolExecutor(max_workers=os.cpu_count(),
                                   mp_context=context)
"""


def test_process_primitives_allowed_only_in_fanout(lint):
    assert codes(lint("repro/core/fanout.py", _POOL_SOURCE,
                      select=["det"])) == []
    # the campaign executor and the lint runner fan out through it
    for relpath in ("repro/core/executor.py", "repro/analysis/parallel.py"):
        report = lint(relpath, _POOL_SOURCE, select=["det"])
        assert codes(report) == ["DET005"] * 3, relpath
