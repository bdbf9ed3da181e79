"""Command-line entry point mirroring the artifact's experiment.py.

Usage::

    pqtls-experiment -o OUT all-kem all-sig          # run experiment sets
    pqtls-experiment --evaluate table2 table4 ...    # render paper artefacts
    pqtls-experiment --kem kyber512 --sig dilithium2 \\
        --trace trace.json --flame                    # trace one handshake
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from repro import cache
from repro.core import campaign, evaluate, report
from repro.core.analysis import deviations_for_levels
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.faults.plan import FAULT_PLANS, resolve_fault_plan
from repro.netsim.netem import SCENARIOS, split_scenario
from repro.tls.scenarios import SESSION_SCENARIOS
from repro.obs.export import write_chrome_trace, write_jsonl, write_metrics_json
from repro.obs.flame import write_flame_svg
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.obs.profiler import SamplingProfiler
from repro.obs.recorder import NULL_RECORDER, FlightRecorder
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pqc.registry import ALL_KEM_NAMES, ALL_SIG_NAMES, LEVEL_GROUPS


def _progress(set_name: str, index: int, total: int, config) -> None:
    print(f"[{set_name}] {index + 1}/{total} {config.kem} x {config.sig} "
          f"({config.scenario}, {config.policy})", file=sys.stderr)


def _write(outdir: Path, name: str, content: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(content if content.endswith("\n") else content + "\n")
    print(f"wrote {path}", file=sys.stderr)


# Each renderer takes a ``run_sets(names) -> results`` callable and returns
# {file name: content} in the committed ``benchmarks/out/`` format.

def _table2(run_sets) -> dict[str, str]:
    results = run_sets(["all-kem", "all-sig"])
    rows_a = evaluate.table2a(results, ALL_KEM_NAMES)
    rows_b = evaluate.table2b(results, ALL_SIG_NAMES)
    return {
        "table2a.txt": report.render_table2(rows_a, "Table 2a: KAs combined with rsa:2048 as SA"),
        "table2b.txt": report.render_table2(rows_b, "Table 2b: SAs combined with X25519 as KA"),
        "latencies_kem.csv": report.latencies_csv(rows_a),
        "latencies_sig.csv": report.latencies_csv(rows_b),
    }


def _table3(run_sets) -> dict[str, str]:
    rows = evaluate.table3(run_sets(["table3-perf"]))
    return {"table3.txt": report.render_table3(rows)}


def _table4(run_sets) -> dict[str, str]:
    results = run_sets(["all-kem-scenarios", "all-sig-scenarios"])
    rows_a = evaluate.table4(results, ALL_KEM_NAMES, vary="kem")
    rows_b = evaluate.table4(results, ALL_SIG_NAMES, vary="sig")
    return {
        "table4a.txt": report.render_table4(rows_a, "Table 4a: KAs combined with rsa:2048 as SA"),
        "table4b.txt": report.render_table4(rows_b, "Table 4b: SAs combined with X25519 as KA"),
    }


def _figure3(run_sets) -> dict[str, str]:
    push = run_sets(["level1", "level3", "level5"])
    nopush = run_sets(["level1-nopush", "level3-nopush", "level5-nopush"])
    dev_push = deviations_for_levels(push, "optimized", LEVEL_GROUPS)
    dev_nopush = deviations_for_levels(nopush, "default", LEVEL_GROUPS)
    return {
        "figure3a.txt": report.render_deviations(
            dev_nopush, "Figure 3a: deviation E-M, default OpenSSL (ms, + = faster)"),
        "figure3b.txt": report.render_deviations(
            dev_push, "Figure 3b: deviation E-M, optimized OpenSSL (ms, + = faster)"),
        "figure3c.txt": report.render_improvements(dev_nopush, dev_push),
        "deviations.csv": report.deviations_csv(dev_push),
    }


def _figure4(run_sets) -> dict[str, str]:
    kem_ranks, sig_ranks = evaluate.figure4(run_sets(["all-kem", "all-sig"]),
                                            ALL_KEM_NAMES, ALL_SIG_NAMES)
    return {"figure4.txt": report.render_ranking(kem_ranks, sig_ranks)}


def _section55(run_sets) -> dict[str, str]:
    results = run_sets(["table3-perf", "all-sig"])
    metrics = evaluate.attack_metrics(evaluate.table3(results),
                                      evaluate.table2b(results, ALL_SIG_NAMES))
    return {"section55.txt": report.render_attack_metrics(metrics)}


RENDERERS = {"table2": _table2, "table3": _table3, "table4": _table4,
             "figure3": _figure3, "figure4": _figure4, "section55": _section55}
ARTIFACTS = list(RENDERERS)


def _renderer(name: str):
    try:
        return RENDERERS[name]
    except KeyError:
        raise KeyError(f"unknown artifact {name!r}; known: {ARTIFACTS}") from None


def evaluate_artifact(name: str, outdir: Path, jobs: int | None = 1,
                      progress=_progress, recorder=NULL_RECORDER) -> None:
    """Render one paper artifact and write its files under ``outdir``."""
    render = _renderer(name)
    run_sets = partial(campaign.run_sets, progress=progress, jobs=jobs, recorder=recorder)
    for filename, content in render(run_sets).items():
        _write(outdir, filename, content)


def run_single(args, metrics) -> None:
    """Run (and optionally trace) one experiment named by --kem/--sig."""
    netem_name, session_name = split_scenario(args.scenario)
    config = ExperimentConfig(kem=args.kem, sig=args.sig, scenario=netem_name,
                              policy=args.policy, profiling=args.profiling,
                              faults=args.faults, session=session_name)
    tracing = bool(args.trace or args.trace_jsonl or args.flame)
    tracer = Tracer() if tracing else NULL_TRACER
    result = run_experiment(config, tracer=tracer, metrics=metrics)
    shape = config.scenario if config.session == "full" \
        else f"{config.scenario}+{config.session}"
    print(f"{config.kem} x {config.sig} ({shape}, {config.policy}): "
          f"partA {result.part_a_median * 1e3:.2f} ms, "
          f"partB {result.part_b_median * 1e3:.2f} ms, "
          f"ttfb {result.ttfb_median * 1e3:.2f} ms, "
          f"{result.n_handshakes} handshakes/{config.duration:.0f}s",
          file=sys.stderr)
    failed = {k: n for k, n in result.outcomes.items() if k != "success"}
    if failed:
        breakdown = ", ".join(f"{k}: {n}" for k, n in sorted(failed.items()))
        print(f"  failures ({sum(failed.values())}/{sum(result.outcomes.values())} "
              f"attempts): {breakdown}", file=sys.stderr)
    if args.trace:
        path = write_chrome_trace(tracer, args.trace)
        print(f"wrote {path} (load at https://ui.perfetto.dev)", file=sys.stderr)
    if args.trace_jsonl:
        path = write_jsonl(tracer, args.trace_jsonl)
        print(f"wrote {path}", file=sys.stderr)
    if args.flame:
        print(report.render_trace_report(tracer))
        print()
        print(report.render_table3_from_spans(tracer, result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the paper's experiment sets and regenerate its tables/figures.")
    parser.add_argument("-o", "--output", default="out", help="output directory")
    parser.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                        help="worker processes for campaign cache misses "
                             "(default: one per CPU; 1 = run them all in "
                             "this process, no pool)")
    parser.add_argument("--evaluate", action="store_true",
                        help="treat names as artifacts (table2, figure3, ...) "
                             "instead of experiment sets")
    single = parser.add_argument_group(
        "single experiment", "trace or profile one (KA, SA) pair instead of a set")
    single.add_argument("--kem", help="key-agreement algorithm, e.g. kyber512")
    single.add_argument("--sig", help="signature algorithm, e.g. dilithium2")
    single.add_argument("--scenario", default="none", metavar="SPEC",
                        help="network emulation scenario "
                             f"({', '.join(sorted(SCENARIOS))}), a session "
                             f"shape ({', '.join(sorted(SESSION_SCENARIOS))}), "
                             "or a '+'-joined combo like lte-m+resume "
                             "(default: none, i.e. full handshakes on an "
                             "unimpaired link)")
    single.add_argument("--policy", default="optimized",
                        choices=["optimized", "default"],
                        help="OpenSSL buffering policy (default: optimized)")
    single.add_argument("--profiling", action="store_true",
                        help="apply the paper's white-box perf overhead")
    single.add_argument("--faults", default="none", metavar="PLAN",
                        help="fault-injection plan: a named plan "
                             f"({', '.join(sorted(FAULT_PLANS))}) or a "
                             "key=value spec like 'corrupt=0.02,dup=0.05' "
                             "(default: none)")
    obs = parser.add_argument_group("observability")
    obs.add_argument("--trace", metavar="FILE",
                     help="write a Chrome trace_event JSON of the first "
                          "handshake (open in Perfetto); single experiment only")
    obs.add_argument("--trace-jsonl", metavar="FILE",
                     help="write the trace as JSON-lines; single experiment only")
    obs.add_argument("--metrics", metavar="FILE",
                     help="write a JSON snapshot of all counters/histograms")
    obs.add_argument("--flame", action="store_true",
                     help="print a perf-style report (call tree, library "
                          "shares, slow summary); single experiment only")
    obs.add_argument("--profile", action="store_true",
                     help="sample the harness's own host CPU while it runs "
                          "and print a self-profile (categories, hot frames)")
    obs.add_argument("--profile-svg", metavar="FILE",
                     help="write the self-profile as an SVG flamegraph "
                          "(implies --profile)")
    obs.add_argument("--flight-record", metavar="FILE",
                     help="write a JSONL flight log of campaign events "
                          "(task start/finish, cache hits, per-worker timing) "
                          "and show a live progress/ETA line")
    parser.add_argument("names", nargs="*",
                        help=f"experiment sets {sorted(campaign.EXPERIMENT_SETS)} "
                             f"or, with --evaluate, artifacts {ARTIFACTS}")
    args = parser.parse_args(argv)

    single_mode = args.kem is not None or args.sig is not None
    if single_mode and (args.kem is None or args.sig is None):
        parser.error("--kem and --sig must be given together")
    if single_mode and args.evaluate:
        parser.error("--evaluate renders named artifacts; it cannot be "
                     "combined with --kem/--sig")
    if not single_mode and not args.names:
        parser.error("nothing to do: name experiment sets (or artifacts with "
                     "--evaluate), or pick one experiment with --kem/--sig")
    if (args.trace or args.trace_jsonl or args.flame) and not single_mode:
        parser.error("--trace/--trace-jsonl/--flame trace a single handshake; "
                     "select it with --kem/--sig")
    try:
        split_scenario(args.scenario)
    except ValueError as exc:
        parser.error(f"--scenario: {exc}")
    if args.faults != "none":
        if not single_mode:
            parser.error("--faults applies to a single experiment; "
                         "select it with --kem/--sig")
        try:
            resolve_fault_plan(args.faults)
        except ValueError as exc:
            parser.error(f"--faults: {exc}")

    if args.flight_record and single_mode and not args.names:
        parser.error("--flight-record logs campaign events; name experiment "
                     "sets or artifacts to run")

    if args.evaluate:
        for name in args.names:
            _renderer(name)   # fail on a bad name before running anything

    outdir = Path(args.output)
    metrics = Metrics() if args.metrics else NULL_METRICS
    recorder = (FlightRecorder(args.flight_record, live=True)
                if args.flight_record else NULL_RECORDER)
    # the live ETA line replaces the per-experiment progress prints
    progress = None if args.flight_record else _progress
    profiler = (SamplingProfiler()
                if args.profile or args.profile_svg else None)
    if profiler is not None:
        profiler.start()
    try:
        if args.evaluate:
            for name in args.names:
                evaluate_artifact(name, outdir, jobs=args.jobs,
                                  progress=progress, recorder=recorder)
        else:
            count = 0
            if single_mode:
                run_single(args, metrics)
                count += 1
            if args.names:
                results = campaign.run_sets(args.names, progress,
                                            metrics=metrics, jobs=args.jobs,
                                            recorder=recorder)
                count += len(results)
            print(f"ran {count} experiments", file=sys.stderr)
    finally:
        if profiler is not None:
            profiler.stop()
        recorder.close()
    if args.flight_record:
        print(f"wrote {recorder.path} ({len(recorder.events)} events)",
              file=sys.stderr)
    if profiler is not None:
        print(profiler.report(), file=sys.stderr)
        if args.profile_svg:
            path = write_flame_svg(profiler.to_tracer(), "host-cpu",
                                   args.profile_svg)
            print(f"wrote {path}", file=sys.stderr)
    if args.metrics:
        merged = Metrics()
        # hit/miss counts from this process
        merged.merge_snapshot(cache.metrics.snapshot())
        merged.merge_snapshot(metrics.snapshot())
        path = write_metrics_json(merged, args.metrics)
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
