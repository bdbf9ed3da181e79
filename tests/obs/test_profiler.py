"""Self-profiler: categorization, flame layout, live sampling smoke."""

import time

from repro.obs.flame import flame_svg, flame_text
from repro.obs.profiler import SamplingProfiler, categorize, stack_category


def test_categorize_prefix_precedence():
    assert categorize("repro.crypto.kernels.lattice") == "kernel"
    assert categorize("repro.crypto.modmath") == "crypto"
    assert categorize("repro.pqc.kyber") == "pqc/kyber"
    assert categorize("repro.tls.handshake") == "tls"
    assert categorize("repro.netsim.tcp") == "netsim"
    assert categorize("repro.core.executor") == "harness"
    assert categorize("hashlib") == "other"


def test_categorize_refines_pqc_and_kernel_by_family():
    # repro.pqc.* and repro.crypto.kernels.* frames carry the algorithm
    # family, so flame views separate hqc decode from dilithium sign
    assert categorize("repro.pqc.hqc.kem") == "pqc/hqc"
    assert categorize("repro.pqc.dilithium.sig") == "pqc/dilithium"
    assert categorize("repro.pqc.sphincs.wots") == "pqc/sphincs"
    assert categorize("repro.pqc.falcon.sig") == "pqc/falcon"
    assert categorize("repro.crypto.kernels.dilithium") == "kernel/dilithium"
    assert categorize("repro.crypto.kernels.hqc") == "kernel/hqc"
    assert categorize("repro.crypto.kernels.kyber") == "kernel/kyber"
    # non-family modules under the same roots keep the plain category
    assert categorize("repro.pqc") == "pqc"
    assert categorize("repro.pqc.registry") == "pqc"
    assert categorize("repro.crypto.kernels") == "kernel"
    assert categorize("repro.crypto.kernels.aes") == "kernel"


def test_stack_category_uses_innermost_repro_frame():
    stack = ("repro.core.cli:main", "repro.tls.handshake:run",
             "repro.crypto.kernels.aes:encrypt", "hashlib:sha256")
    assert stack_category(stack) == "kernel"
    assert stack_category(("pytest:main", "hashlib:x")) == "other"


def test_stack_category_names_the_caller_of_a_shared_kernel():
    # lattice, aes and gcm kernels serve several algorithms: a frame in
    # one takes the family of the nearest enclosing repro.pqc frame
    sign = ("repro.core.cli:main", "repro.pqc.dilithium.sig:sign",
            "repro.pqc.dilithium.poly:ntt_vec",
            "repro.crypto.kernels.lattice:forward")
    assert stack_category(sign) == "kernel/dilithium"
    # the nearest family wins: a KEM inside a hybrid, under a signer
    nested = ("repro.pqc.sphincs.core:sign", "repro.pqc.hybrid:encaps",
              "repro.pqc.kyber.kem:_gen_matrix", "repro.crypto.aes:x",
              "repro.crypto.kernels.aes:ctr_keystream", "numpy:take")
    assert stack_category(nested) == "kernel/kyber"
    # a family kernel keeps its own family; no pqc caller keeps "kernel"
    hqc = ("repro.pqc.kyber.kem:x", "repro.crypto.kernels.hqc:rm_decode")
    assert stack_category(hqc) == "kernel/hqc"
    record = ("repro.tls.record:seal", "repro.crypto.gcm:encrypt",
              "repro.crypto.kernels.gcm:update_block")
    assert stack_category(record) == "kernel"
    # the innermost repro frame still decides the layer
    assert stack_category(("repro.pqc.kyber.kem:x", "repro.crypto.kernels.aes:y",
                           "repro.netsim.tcp:z")) == "netsim"


def synthetic_profiler():
    """A profiler with hand-fed samples: deterministic aggregation tests."""
    profiler = SamplingProfiler(interval=0.001)
    profiler.stacks = {
        ("repro.core.cli:main", "repro.crypto.kernels.aes:ctr_keystream"): 60,
        ("repro.core.cli:main", "repro.crypto.kernels.aes:ctr_keystream",
         "repro.crypto.kernels.aes:_np_tables"): 30,
        ("repro.core.cli:main", "repro.netsim.tcp:deliver"): 10,
    }
    profiler.sample_count = 100
    profiler.wall_seconds = 0.1
    return profiler


def test_category_seconds_and_hotspots():
    profiler = synthetic_profiler()
    by_category = profiler.category_seconds()
    assert by_category == {"kernel": 0.090, "netsim": 0.010}
    spots = profiler.hotspots(top=2)
    assert spots[0].frame == "repro.crypto.kernels.aes:ctr_keystream"
    assert spots[0].self_seconds == 0.060
    assert spots[0].total_seconds == 0.090     # includes the _np_tables child
    assert spots[0].category == "kernel"
    assert spots[1].frame == "repro.crypto.kernels.aes:_np_tables"


def test_to_tracer_builds_a_merged_flame():
    profiler = synthetic_profiler()
    tracer = profiler.to_tracer()
    assert tracer.tracks() == ["host-cpu"]
    spans = {s.name: s for s in tracer.spans}
    # one root span covering all 100 samples, children merged underneath
    root = spans["repro.core.cli:main"]
    assert root.duration == 0.1 and root.depth == 0
    assert spans["repro.crypto.kernels.aes:ctr_keystream"].duration == 0.09
    assert spans["repro.crypto.kernels.aes:_np_tables"].duration == 0.03
    assert spans["repro.crypto.kernels.aes:_np_tables"].depth == 2
    assert spans["repro.netsim.tcp:deliver"].cat == "netsim"
    # the merged flame renders through every existing view
    assert "ctr_keystream" in flame_text(tracer, "host-cpu")


def test_flame_svg_is_deterministic_and_well_formed():
    profiler = synthetic_profiler()
    first = flame_svg(profiler.to_tracer(), "host-cpu")
    second = flame_svg(profiler.to_tracer(), "host-cpu")
    assert first == second
    assert first.startswith("<svg ") and first.rstrip().endswith("</svg>")
    assert first.count("<rect") >= 4     # background + 4 frames
    assert "ctr_keystream" in first


def test_report_mentions_categories_and_frames():
    report = synthetic_profiler().report(top=2)
    assert "kernel" in report and "ctr_keystream" in report
    assert "100 samples" in report


def test_live_sampling_attributes_repro_work():
    # a real (brief) profile of actual kernel work: assert only what
    # cannot flake — samples landed and repro frames were attributed
    from repro.crypto.kernels.gcm import Ghash

    with SamplingProfiler(interval=0.0005) as profiler:
        data = bytes(range(256)) * 4
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            Ghash(bytes(range(16))).update(data)
    assert profiler.sample_count > 0
    assert profiler.wall_seconds > 0
    if profiler.stacks:  # scheduling may starve the sampler, but if it ran:
        categories = {stack_category(s) for s in profiler.stacks}
        assert categories & {"kernel", "crypto", "other"}


def test_profiler_rejects_bad_interval_and_double_start():
    import pytest

    with pytest.raises(ValueError):
        SamplingProfiler(interval=0)
    profiler = SamplingProfiler()
    profiler.start()
    try:
        with pytest.raises(RuntimeError):
            profiler.start()
    finally:
        profiler.stop()
