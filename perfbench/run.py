"""The registry's benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload micro_fresh --seed 1 --seconds 30 --trace 0

Run from the repository root. It generates the workload's corpus from the
seed, starts REST, native MCP and layered MCP in one child server process
(``launcher.py``), ingests the corpus, drives the workload's seeded operation
sequence from this process for ``--seconds``, checks every response, and
prints a report.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics. --trace 1 runs the same sequence
twice, untraced and then on a server whose modules carry span recorders,
and reports the per-layer metrics plus the tracing overhead. The exit code
is 0 only if every operation succeeded and passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 3  # set-ups per run; setup_s is their median


def _import_program():
    if not (SRC / "mcard_registry" / "__init__.py").is_file():
        print(f"error: the registry sources are missing ({SRC / 'mcard_registry'}); "
              "run from a checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def _git_commit() -> str:
    # the ceiling keeps git from searching directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    # client, server and every thread they start share one CPU; see
    # "Load shape" in README.md for why
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    import loadgen
    import metrics
    from mcard_registry.bench import generator
    from workloads import WORKLOADS, OpSource, build_sequence, tail_ops

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = WORKLOADS[args.workload]
    spec = generator.make_spec(workload.preset, args.seed, **workload.overrides)
    corpus = loadgen.Corpus(*generator.generate_documents(spec))

    def measured_run(trace: bool, setups: int):
        """Set up ``setups`` times, keep the last server, run the sequence."""
        op_source = OpSource(workload, args.seed, corpus, spec.devices)
        warmup, timed = build_sequence(workload, op_source)
        setup_times = []
        for i in range(setups):
            server, seconds, experiment_ids = loadgen.start_server(SRC, corpus, trace)
            setup_times.append(seconds)
            if i < setups - 1:
                server.stop()
        try:
            setup_spans = server.spans() if trace else {}
            edge_ids = loadgen.collect_edge_ids(server, corpus, op_source.edge_cards)
            checker = loadgen.Checker(corpus, sequential=workload.clients == 1)
            runner = loadgen.Runner(server, corpus, checker, experiment_ids, edge_ids)
            loadgen.run_ops(runner, warmup, workload.fresh_connections)
            if trace:
                server.spans()  # drop id-collection and warm-up spans
            sampler = loadgen.Sampler(cpu)
            cpu_before = server.cpu_seconds(), time.process_time()
            results, wall, ends = loadgen.run_ops(runner, timed, workload.fresh_connections,
                                                 workload.clients, seconds=args.seconds,
                                                 sampler=sampler)
            cpu_after = server.cpu_seconds(), time.process_time()
            run = metrics.Run(results=results, wall_s=wall, ends=ends,
                              cpu_samples=sampler.samples, setup_s=setup_times,
                              rss_mib=server.peak_rss_mib(), runner=runner, checker=checker,
                              cpu_s=(cpu_after[0] - cpu_before[0], cpu_after[1] - cpu_before[1]))
            if trace:
                run.setup_spans = setup_spans
                run.spans = server.spans()
            runner.failures.extend(checker.finish_deferred(runner.fetch_rest_ref))
            if trace:
                run.proxy_counts = loadgen.proxy_pass(runner, tail_ops(op_source))
            return run
        finally:
            server.stop()

    if args.trace:
        plain = measured_run(trace=False, setups=1)
        traced = measured_run(trace=True, setups=1)
        runs = [plain, traced]
        values = metrics.per_layer(traced, plain, len(corpus.cards))
    else:
        runs = [measured_run(trace=False, setups=SETUPS)]
        values = metrics.end_to_end(runs[0])

    attempted = sum(r.runner.attempted for r in runs)
    failures = [f for r in runs for f in r.runner.failures]
    context = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "pinned_cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(), "git_commit": _git_commit(),
        "corpus": corpus.shape(), "ops": metrics.op_counts(runs[-1]),
        "clients": workload.clients, "fresh_connections": workload.fresh_connections,
        "warmup_ops": workload.warmup_ops, "timed_ops": len(runs[-1].results),
        "stolen_cpu_share": round(metrics.stolen_share(runs[-1]), 4),
    }
    metrics.print_report(context, runs, values, attempted, failures)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
