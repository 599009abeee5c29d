"""Command-line interface.

Installed as ``python -m repro``.  The subcommands cover the everyday
workflows:

* ``run``     — one stabilization run, optionally rendered as a level
  waterfall (``--watch``),
* ``sweep``   — rounds-vs-n scaling study with growth-model fits,
* ``recover`` — fault-injection recovery measurement,
* ``serve``   — long-lived MIS service replaying a topology op stream
  (see ``docs/serving.md``),
* ``color`` / ``match`` — the MIS reductions of :mod:`repro.apps`,
* ``figure1`` — print the paper's Figure-1 activation table,
* ``info``    — structural statistics of a generated graph.

Examples::

    python -m repro run --family er --n 256 --variant max_degree --seed 1
    python -m repro run --family cycle --n 40 --watch
    python -m repro run --family er --n 256 --metrics summary
    python -m repro sweep --family er --sizes 64,128,256,512 --reps 10
    python -m repro sweep --family er --reps 10 --metrics jsonl --jobs 2
    python -m repro serve --workload churn-heavy --ops-count 10000 --seed 0
    python -m repro serve --ops stream.jsonl --metrics summary
    python -m repro recover --family regular --n 200 --fault bernoulli:0.3
    python -m repro figure1 --ell-max 8
    python -m repro info --family ba --n 500

``--metrics`` attaches the zero-perturbation observability layer
(:mod:`repro.obs`): outcomes are bit-identical with or without it.
``summary`` prints aggregate counters and phase timings; ``jsonl`` /
``csv`` additionally stream one record per executed round to
``--metrics-out`` (default ``metrics.jsonl`` / ``metrics.csv`` — never
stdout, so tables stay parseable).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .analysis.fitting import fit_all_models
from .beeping.channels import CHANNEL_SPECS
from .beeping.schedulers import SCHEDULER_SPECS
from .analysis.measurements import FaultRecoveryRounds, StabilizationRounds
from .analysis.sweep import run_sweep
from .analysis.tables import format_table
from .analysis.visualize import render_run
from .core.engines import SingleChannelEngine, TwoChannelEngine, available_engines
from .core.levels import probability_table
from .core.runner import VARIANTS, compute_mis, default_round_budget, policy_for_variant
from .devtools.seeding import resolve_rng, rng_from_sequence, spawn_children
from .graphs.generators import FAMILY_NAMES, by_name
from .graphs.properties import average_degree, connected_components, deg2_all
from .obs import (
    MetricsOptions,
    MetricsRegistry,
    PhaseProfiler,
    collector_for_backend,
    make_sink,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-stabilizing MIS in the beeping model (PODC 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument(
            "--family", choices=FAMILY_NAMES, default="er",
            help="graph family (default: er)",
        )
        p.add_argument("--n", type=int, default=256, help="problem size")
        p.add_argument("--graph-seed", type=int, default=0)

    def add_stress_args(p):
        p.add_argument(
            "--channel", default="perfect", metavar="SPEC",
            help="channel model: " + " | ".join(CHANNEL_SPECS)
                 + " (default: perfect — the paper's model)",
        )
        p.add_argument(
            "--scheduler", default="synchronous", metavar="SPEC",
            help="round scheduler: " + " | ".join(SCHEDULER_SPECS)
                 + " (default: synchronous)",
        )

    def add_metrics_args(p):
        p.add_argument(
            "--metrics", choices=("off", "summary", "jsonl", "csv"),
            default="off",
            help="zero-perturbation observability: 'summary' prints "
                 "aggregate metrics + phase timings; 'jsonl'/'csv' also "
                 "stream per-round records to --metrics-out",
        )
        p.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="record file for --metrics jsonl/csv "
                 "(default: metrics.jsonl / metrics.csv)",
        )
        p.add_argument(
            "--metrics-every", type=int, default=1, metavar="K",
            help="emit only every K-th round's record (default: 1)",
        )

    run_p = sub.add_parser("run", help="one stabilization run")
    add_graph_args(run_p)
    run_p.add_argument("--variant", choices=VARIANTS, default="max_degree")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--c1", type=int, default=None, help="ℓmax constant (default: theorem value)")
    run_p.add_argument("--fresh-start", action="store_true",
                       help="boot from level 1 instead of an arbitrary configuration")
    run_p.add_argument("--engine", choices=available_engines(), default="vectorized",
                       help="execution backend (registered engines)")
    run_p.add_argument("--reps", type=int, default=1,
                       help="independent repetitions; > 1 prints a summary")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for --reps > 1")
    run_p.add_argument("--watch", action="store_true",
                       help="render the level waterfall (implies vectorized engine)")
    add_stress_args(run_p)
    add_metrics_args(run_p)

    sweep_p = sub.add_parser("sweep", help="rounds-vs-n scaling study")
    sweep_p.add_argument("--family", choices=FAMILY_NAMES, default="er")
    sweep_p.add_argument("--sizes", default="32,64,128,256,512",
                         help="comma-separated sizes")
    sweep_p.add_argument("--variant", choices=VARIANTS, default="max_degree")
    sweep_p.add_argument("--reps", type=int, default=10)
    sweep_p.add_argument("--c1", type=int, default=None)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--engine", choices=["batched", "vectorized"],
                         default="batched",
                         help="batched: whole repetition blocks per size; "
                              "vectorized: solo runs (parallel with --jobs)")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the sweep executor")
    add_stress_args(sweep_p)
    add_metrics_args(sweep_p)

    serve_p = sub.add_parser(
        "serve", help="long-lived MIS service over a topology op stream"
    )
    add_graph_args(serve_p)
    ops_src = serve_p.add_mutually_exclusive_group()
    ops_src.add_argument(
        "--ops", metavar="FILE", default=None,
        help="newline-delimited JSON op stream ('-' = stdin); "
             "format spec in docs/serving.md",
    )
    ops_src.add_argument(
        "--workload", choices=("read-heavy", "churn-heavy", "burst"),
        default=None,
        help="generate a deterministic seeded op stream instead "
             "(default when --ops is absent: churn-heavy)",
    )
    serve_p.add_argument("--ops-count", type=int, default=1000,
                         help="ops to generate for --workload (default: 1000)")
    serve_p.add_argument("--seed", type=int, default=0,
                         help="seed root (workload stream + engine RNG)")
    serve_p.add_argument(
        "--degree-cap", type=int, default=None,
        help="committed Δ upper bound enforced on every mutation "
             "(default: starting max degree + 2 head-room)",
    )
    serve_p.add_argument("--algorithm", choices=("single", "two_channel"),
                         default="single")
    serve_p.add_argument("--rebuild-per-op", action="store_true",
                         help="baseline mode: rebuild the full derived "
                              "structure on every mutation instead of "
                              "patching incrementally")
    serve_p.add_argument("--emit-ops", metavar="FILE", default=None,
                         help="also write the replayed op stream to FILE")
    serve_p.add_argument("--json", metavar="FILE", default=None,
                         help="write the summary as JSON to FILE ('-' = stdout)")
    add_stress_args(serve_p)
    add_metrics_args(serve_p)

    recover_p = sub.add_parser("recover", help="fault-injection recovery measurement")
    add_graph_args(recover_p)
    recover_p.add_argument("--variant", choices=VARIANTS, default="max_degree")
    recover_p.add_argument("--seed", type=int, default=0)
    recover_p.add_argument("--c1", type=int, default=None)
    recover_p.add_argument(
        "--fault", default="random",
        help="random | bernoulli:RHO | all_silent | all_prominent | threshold",
    )
    recover_p.add_argument("--engine", choices=["reference", "vectorized"],
                           default="reference",
                           help="engine used for the recovery measurement")
    recover_p.add_argument("--reps", type=int, default=1,
                           help="independent fault trials; > 1 prints a summary")
    recover_p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for --reps > 1")

    color_p = sub.add_parser("color", help="(Δ+1)-coloring via iterated MIS")
    add_graph_args(color_p)
    color_p.add_argument("--seed", type=int, default=0)
    color_p.add_argument("--c1", type=int, default=None)

    match_p = sub.add_parser("match", help="maximal matching via the line graph")
    add_graph_args(match_p)
    match_p.add_argument("--seed", type=int, default=0)
    match_p.add_argument("--c1", type=int, default=None)

    fig_p = sub.add_parser("figure1", help="print the Figure-1 activation table")
    fig_p.add_argument("--ell-max", type=int, default=10)

    info_p = sub.add_parser("info", help="structural statistics of a graph")
    add_graph_args(info_p)

    check_p = sub.add_parser(
        "check",
        help="determinism & contract gate (ruff + mypy + one static-analysis "
        "pass: repro-lint, repro-dataflow, repro-hotpath; engine-contract "
        "[+ sanitizers])",
    )
    check_p.add_argument(
        "paths", nargs="*", help="paths for the custom linter (default: src)"
    )
    check_p.add_argument("--format", choices=("text", "json"), default="text")
    check_p.add_argument(
        "--no-external",
        action="store_true",
        help="skip ruff/mypy even when installed",
    )
    check_p.add_argument(
        "--no-contract",
        action="store_true",
        help="skip the runtime engine-contract sweep",
    )
    check_p.add_argument(
        "--sanitize",
        action="store_true",
        help="also run the runtime sanitizers (errstate traps, frozen "
        "engine and collector arrays, RNG draw/seed-tree audits, pool "
        "crash recovery, steady-state allocation audit)",
    )
    check_p.add_argument(
        "--baseline",
        metavar="FILE",
        help="JSON baseline of accepted dataflow/hotpath findings to suppress",
    )
    check_p.add_argument(
        "--sarif",
        metavar="FILE",
        help="write all RPR findings as SARIF 2.1.0 to FILE",
    )

    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _metrics_options(args) -> Optional[MetricsOptions]:
    """The ``--metrics`` flags of a parsed command, as options (or None)."""
    return MetricsOptions.from_cli(
        args.metrics, path=args.metrics_out, every=args.metrics_every
    )


def _resolve_stress(args):
    """The ``--channel`` / ``--scheduler`` specs, validated eagerly.

    Returns ``(channel, scheduler)`` with ``None`` for a flag left at
    its default, so downstream calls keep the forwarded-only-when-set
    convention (and the byte-identical default path).  Raises
    ``ValueError`` on a malformed spec — before any run starts.
    """
    from .beeping.channels import channel_from_spec
    from .beeping.schedulers import scheduler_from_spec

    channel = None if args.channel == "perfect" else args.channel
    scheduler = None if args.scheduler == "synchronous" else args.scheduler
    if channel is not None:
        channel_from_spec(channel)
    if scheduler is not None:
        scheduler_from_spec(scheduler)
    return channel, scheduler


def _cmd_run(args) -> int:
    graph = by_name(args.family, args.n, seed=args.graph_seed)
    try:
        channel, scheduler = _resolve_stress(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.watch:
        return _cmd_run_watch(args, graph, channel, scheduler)
    if args.reps > 1:
        return _cmd_run_repeated(args, graph)

    opts = _metrics_options(args)
    collector = registry = profiler = sink = None
    policy = None
    if opts is not None:
        policy = policy_for_variant(graph, args.variant, c1=args.c1)
        registry = MetricsRegistry()
        sink = make_sink(opts.sink, opts.path)
        collector = collector_for_backend(
            args.engine, graph, policy, args.variant,
            labels={"family": args.family, "n": args.n, "seed": args.seed},
            registry=registry, sink=sink, every=opts.every,
        )
        profiler = PhaseProfiler()

    if profiler is not None:
        with profiler.phase("run"):
            result = compute_mis(
                graph,
                variant=args.variant,
                seed=args.seed,
                arbitrary_start=not args.fresh_start,
                engine=args.engine,
                policy=policy,
                collector=collector,
                channel=channel,
                scheduler=scheduler,
            )
        profiler.add_rounds(result.rounds)
    else:
        result = compute_mis(
            graph,
            variant=args.variant,
            seed=args.seed,
            arbitrary_start=not args.fresh_start,
            c1=args.c1,
            engine=args.engine,
            channel=channel,
            scheduler=scheduler,
        )
    print(
        f"{args.family}(n={graph.num_vertices}, m={graph.num_edges}) "
        f"variant={args.variant}: stabilized after {result.rounds} rounds, "
        f"|MIS| = {len(result.mis)}"
    )
    if opts is not None:
        sink.close()
        print()
        print(registry.format())
        print(profiler.format())
        if opts.sink in ("jsonl", "csv"):
            print(f"wrote {sink.emitted} metric records to {opts.path}")
    return 0


def _cmd_run_repeated(args, graph) -> int:
    """``run --reps R``: R independent runs via the sweep executors."""
    if args.engine == "reference":
        print("--reps > 1 requires a vectorized/batched engine", file=sys.stderr)
        return 2
    measure = StabilizationRounds(
        variant=args.variant, c1=args.c1,
        arbitrary_start=not args.fresh_start,
        channel=args.channel, scheduler=args.scheduler,
    )
    config = {"family": args.family, "n": args.n, "graph_seed": args.graph_seed}
    executor = "batched" if args.engine == "batched" else (
        "process" if args.jobs > 1 else "serial"
    )
    sweep = run_sweep(
        [config], measure, repetitions=args.reps, master_seed=args.seed,
        jobs=args.jobs, executor=executor, metrics=_metrics_options(args),
    )
    summary = sweep.cells[0].summary
    print(
        f"{args.family}(n={graph.num_vertices}, m={graph.num_edges}) "
        f"variant={args.variant}, {args.reps} runs: "
        f"rounds {summary.format()}"
    )
    if sweep.metrics is not None:
        print()
        print(sweep.metrics.format())
    return 0


def _cmd_run_watch(args, graph, channel=None, scheduler=None) -> int:
    policy = policy_for_variant(graph, args.variant, c1=args.c1)
    engine_cls = (
        TwoChannelEngine if args.variant == "two_channel" else SingleChannelEngine
    )
    engine = engine_cls(
        graph, policy, seed=args.seed, channel=channel, scheduler=scheduler,
    )
    if not args.fresh_start:
        engine.randomize_levels()
    snapshots = [list(int(x) for x in engine.levels)]
    budget = default_round_budget(graph, policy)
    while not engine.is_legal():
        if engine.round_index > budget:
            print("did not stabilize within the budget", file=sys.stderr)
            return 1
        engine.step()
        snapshots.append(list(int(x) for x in engine.levels))
    print(render_run(snapshots, policy.ell_max))
    print(f"\nstabilized after {len(snapshots) - 1} rounds, "
          f"|MIS| = {len(engine.mis_vertices())}")
    return 0


def _cmd_sweep(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not sizes:
        print("no sizes given", file=sys.stderr)
        return 2

    try:
        _resolve_stress(args)  # eager spec validation, clean error
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    measure = StabilizationRounds(
        variant=args.variant, c1=args.c1,
        channel=args.channel, scheduler=args.scheduler,
    )
    executor = "batched" if args.engine == "batched" else (
        "process" if args.jobs > 1 else "serial"
    )
    sweep = run_sweep(
        [{"family": args.family, "n": n} for n in sizes],
        measure, repetitions=args.reps, master_seed=args.seed,
        jobs=args.jobs, executor=executor, metrics=_metrics_options(args),
    )
    print(sweep.to_table(
        ["n"], title=f"{args.family} / {args.variant}: stabilization rounds"
    ))
    if len(sizes) >= 2:
        xs, ys = sweep.series("n")
        fits = fit_all_models(xs, ys)
        print()
        for name in ("log", "log_loglog", "sqrt", "linear"):
            print(" ", fits[name].format())
    if sweep.metrics is not None:
        print()
        print(sweep.metrics.format())
    return 0


def _cmd_serve(args) -> int:
    # Imported lazily: serving pulls in the whole mutable-topology stack
    # that no other subcommand needs.
    import json

    from .serve import MISService, format_op, generate_ops, parse_ops

    try:
        channel, scheduler = _resolve_stress(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    graph = by_name(args.family, args.n, seed=args.graph_seed)
    cap = args.degree_cap
    if cap is None:
        # Head-room above the starting Δ so churn workloads can add
        # edges; the committed ℓmax grows only logarithmically with it.
        cap = max(graph.max_degree() + 2, 1)

    # One seed, two independent streams (workload vs engine) — spawned
    # unconditionally so replaying an emitted stream from --ops with the
    # same --seed drives the engine identically.
    workload_seq, engine_seq = spawn_children(args.seed, 2)

    if args.ops is not None:
        stream = sys.stdin if args.ops == "-" else open(args.ops, encoding="utf-8")
        try:
            ops = list(parse_ops(stream))
        finally:
            if stream is not sys.stdin:
                stream.close()
        source = args.ops
    else:
        mix = args.workload or "churn-heavy"
        ops = generate_ops(
            mix, args.ops_count, rng_from_sequence(workload_seq), graph,
            degree_cap=cap,
        )
        source = f"{mix} x{args.ops_count} (seed {args.seed})"
    if args.emit_ops:
        with open(args.emit_ops, "w", encoding="utf-8") as handle:
            for op in ops:
                handle.write(format_op(op) + "\n")

    opts = _metrics_options(args)
    registry = sink = None
    if opts is not None:
        registry = MetricsRegistry()
        if opts.sink in ("jsonl", "csv"):
            sink = make_sink(opts.sink, opts.path)

    service = MISService(
        graph,
        degree_cap=cap,
        algorithm=args.algorithm,
        channel=channel,
        scheduler=scheduler,
        seed=rng_from_sequence(engine_seq),
        registry=registry,
        sink=sink,
        rebuild_per_op=args.rebuild_per_op,
    )
    report = service.run(ops)
    legal = service.verify_legal()
    summary = report.summary()

    mode = "rebuild-per-op" if args.rebuild_per_op else "incremental"
    print(
        f"{args.family}(n={graph.num_vertices}, m={graph.num_edges}) "
        f"cap={cap} algorithm={args.algorithm} [{mode}]"
    )
    print(f"served {summary['ops']} ops from {source}: "
          f"{summary['rejected']} rejected, "
          f"final MIS legal: {'yes' if legal else 'NO'}")
    lat = summary.get("latency_s")
    if lat is not None:
        print(
            "per-op latency: "
            + "  ".join(f"{k}={lat[k] * 1e6:.1f}µs" for k in ("p50", "p95", "p99"))
        )
    rounds = summary.get("rounds_to_restabilize")
    if rounds is not None:
        print(
            "rounds to re-stabilize: "
            + "  ".join(f"{k}={rounds[k]:.0f}" for k in ("p50", "p95", "p99", "max"))
            + f"  total={rounds['total']:.0f}"
        )
    rows = [
        [kind,
         entry["count"],
         f"{entry['latency_s']['p50'] * 1e6:.1f}",
         f"{entry['latency_s']['p99'] * 1e6:.1f}",
         f"{entry['rounds_to_restabilize']['p99']:.0f}"
         if "rounds_to_restabilize" in entry else "-"]
        for kind, entry in summary["by_op"].items()
    ]
    print()
    print(format_table(
        ["op", "count", "p50 µs", "p99 µs", "rounds p99"], rows,
        title="per-op breakdown",
    ))
    if opts is not None:
        if sink is not None:
            sink.close()
            print(f"wrote {sink.emitted} per-op records to {opts.path}")
        print()
        print(registry.format())
    if args.json:
        payload = json.dumps({"summary": summary, "legal": legal}, indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
    return 0 if legal else 1


def _cmd_recover(args) -> int:
    from .beeping.faults import fault_from_spec
    from .beeping.network import BeepingNetwork
    from .beeping.simulator import run_until_stable
    from .core.algorithm_single import SelfStabilizingMIS
    from .core.algorithm_two_channel import TwoChannelMIS

    try:
        fault = fault_from_spec(args.fault)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    graph = by_name(args.family, args.n, seed=args.graph_seed)
    policy = policy_for_variant(graph, args.variant, c1=args.c1)
    budget = 10 * default_round_budget(graph, policy)

    if args.reps > 1 or args.engine != "reference":
        measure = FaultRecoveryRounds(
            variant=args.variant, c1=args.c1, fault=args.fault,
            engine=args.engine, max_rounds=budget,
        )
        config = {"family": args.family, "n": args.n, "graph_seed": args.graph_seed}
        executor = "process" if args.jobs > 1 else "serial"
        sweep = run_sweep(
            [config], measure, repetitions=args.reps, master_seed=args.seed,
            jobs=args.jobs, executor=executor,
        )
        summary = sweep.cells[0].summary
        print(
            f"{args.family}(n={graph.num_vertices}) after fault {args.fault!r}: "
            f"recovered in {summary.format()} rounds "
            f"({args.reps} trials, engine={args.engine})"
        )
        return 0

    algorithm = (
        TwoChannelMIS() if args.variant == "two_channel" else SelfStabilizingMIS()
    )
    rng = resolve_rng(args.seed)
    network = BeepingNetwork(graph, algorithm, policy.knowledge(graph), seed=rng)

    first = run_until_stable(network, max_rounds=budget)
    if not first.stabilized:
        print("initial stabilization failed", file=sys.stderr)
        return 1
    fault.apply(network, rng)
    recovery = run_until_stable(network, max_rounds=budget)
    if not recovery.stabilized:
        print("recovery failed within budget", file=sys.stderr)
        return 1
    print(
        f"stabilized in {first.rounds} rounds; after fault {args.fault!r} "
        f"recovered in {recovery.rounds} rounds (|MIS| = {len(recovery.mis)})"
    )
    return 0


def _cmd_color(args) -> int:
    from .apps.coloring import iterated_mis_coloring

    graph = by_name(args.family, args.n, seed=args.graph_seed)
    result = iterated_mis_coloring(graph, seed=args.seed, c1=args.c1)
    sizes = ", ".join(str(len(cls)) for cls in result.color_classes())
    print(
        f"{args.family}(n={graph.num_vertices}): proper coloring with "
        f"{result.num_colors} colors (bound Δ+1 = {graph.max_degree() + 1}) "
        f"in {result.total_rounds} beeping rounds"
    )
    print(f"class sizes: {sizes}")
    return 0


def _cmd_match(args) -> int:
    from .apps.matching import maximal_matching

    graph = by_name(args.family, args.n, seed=args.graph_seed)
    result = maximal_matching(graph, seed=args.seed, c1=args.c1)
    print(
        f"{args.family}(n={graph.num_vertices}, m={graph.num_edges}): "
        f"maximal matching of {result.size} edges "
        f"({len(result.matched_vertices())} vertices matched) "
        f"in {result.rounds} beeping rounds on the line graph"
    )
    return 0


def _cmd_figure1(args) -> int:
    rows = [[level, f"{p:.6f}"] for level, p in probability_table(args.ell_max)]
    print(format_table(["ℓ", "p(ℓ)"], rows,
                       title=f"Figure 1, ℓmax = {args.ell_max}"))
    return 0


def _cmd_info(args) -> int:
    graph = by_name(args.family, args.n, seed=args.graph_seed)
    components = connected_components(graph)
    d2 = deg2_all(graph)
    rows = [
        ["vertices", graph.num_vertices],
        ["edges", graph.num_edges],
        ["max degree Δ", graph.max_degree()],
        ["mean degree", f"{average_degree(graph):.2f}"],
        ["max deg₂", max(d2, default=0)],
        ["components", len(components)],
    ]
    print(format_table(["property", "value"],
                       rows, title=f"{args.family}(n≈{args.n})", align_right=False))
    return 0


def _cmd_check(args) -> int:
    # Imported lazily: the check machinery pulls in subprocess/importlib
    # plumbing no other subcommand needs.
    from .devtools import check as devtools_check

    argv: List[str] = list(args.paths)
    argv += ["--format", args.format]
    if args.no_external:
        argv.append("--no-external")
    if args.no_contract:
        argv.append("--no-contract")
    if args.sanitize:
        argv.append("--sanitize")
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.sarif:
        argv += ["--sarif", args.sarif]
    return devtools_check.main(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "recover": _cmd_recover,
        "color": _cmd_color,
        "match": _cmd_match,
        "figure1": _cmd_figure1,
        "info": _cmd_info,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
