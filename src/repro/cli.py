"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``graph``        print share graph + timestamp graphs for a topology
``run``          run a workload on a topology and verify it
``experiments``  regenerate paper experiment tables (E1..E14)
``race``         run the Theorem 8 adversarial race on a witness edge
``chaos``        sweep a fault-injection campaign (loss/dup/crash) over seeds
``shard``        sharded deployment smoke: build, run, check, audit, price
``cluster``      real-socket TCP cluster: serve / launch / load / chaos
``soak``         sustained-load soak with a scheduled fault timeline
``modelcheck``   exhaustively explore the interleavings of a small program

Performance is measured by ``bench/run.py`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Mapping, Optional

from repro.core.share_graph import ShareGraph
from repro.core.system import DSMSystem
from repro.core.timestamp_graph import all_timestamp_graphs
from repro.workloads import (
    clique_placements,
    fig3_placements,
    fig5_placements,
    fig6_counterexample_placements,
    fig8b_placements,
    grid_placements,
    line_placements,
    random_placements,
    ring_placements,
    run_workload,
    star_placements,
    tree_placements,
    uniform_writes,
)

TOPOLOGIES: Dict[str, Callable[[int], Mapping]] = {
    "fig3": lambda n: fig3_placements(),
    "fig5": lambda n: fig5_placements(),
    "fig6": lambda n: fig6_counterexample_placements(),
    "fig8b": lambda n: fig8b_placements(),
    "line": line_placements,
    "ring": ring_placements,
    "star": star_placements,
    "clique": clique_placements,
    "grid": lambda n: grid_placements(2, max(n // 2, 1)),
    "tree": lambda n: tree_placements(n, seed=0),
    "random": lambda n: random_placements(n, 2 * n, 3, seed=0),
}


def _build_graph(args: argparse.Namespace) -> ShareGraph:
    make = TOPOLOGIES[args.topology]
    return ShareGraph(make(args.n))


def cmd_graph(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    print(f"share graph: {graph}")
    for r in graph.replicas:
        print(f"  X_{r} = {sorted(map(str, graph.registers_at(r)))}")
    print("\ntimestamp graphs (Definition 5):")
    for r, tg in sorted(all_timestamp_graphs(graph).items(), key=lambda kv: str(kv[0])):
        print(f"  {tg}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    system = DSMSystem(graph, seed=args.seed)
    stream = uniform_writes(graph, args.writes, seed=args.seed + 1)
    run_workload(system, stream)
    metrics = system.metrics()
    result = system.check()
    print(f"topology={args.topology} R={len(graph)} writes={args.writes}")
    print(f"  messages sent      : {metrics.messages_sent}")
    print(f"  metadata counters  : {metrics.metadata_counters_sent}")
    print(f"  metadata bytes     : {metrics.metadata_bytes_sent}")
    print(f"  mean apply delay   : {metrics.mean_apply_delay:.4f}")
    print(f"  timestamp counters : {metrics.timestamp_counters}")
    print(f"  checker            : {result}")
    return 0 if result.ok else 1


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.harness import experiments as E

    runners: Dict[str, Callable[[], object]] = {
        "E1": E.e1_fig3_share_graph,
        "E2": E.e2_fig5_timestamp_graph,
        "E3": lambda: "\n".join(str(t) for t in E.e3_fig6_counterexample()),
        "E4": E.e4_fig8b_modified_hoop,
        "E5": E.e5_closed_form_bounds,
        "E6": E.e6_conflict_graph_bounds,
        "E7": E.e7_metadata_tradeoff,
        "E7b": E.e7_hoop_comparison,
        "E8": E.e8_compression,
        "E8b": E.e8b_wire_bytes,
        "E9": E.e9_dummy_registers,
        "E10": E.e10_ring_breaking,
        "E11": E.e11_bounded_loops,
        "E12": E.e12_client_server,
        "E13": E.e13_multicast,
        "E14": E.e14_protocol_costs,
    }
    wanted = args.only.split(",") if args.only else list(runners)
    unknown = [w for w in wanted if w not in runners]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {', '.join(runners)}", file=sys.stderr)
        return 2
    for name in wanted:
        print(runners[name]())
    return 0


def cmd_race(args: argparse.Namespace) -> int:
    from repro.adversary import demonstrate_necessity
    from repro.core.loops import LoopFinder

    graph = _build_graph(args)
    anchor = graph.replicas[0] if args.replica is None else _parse_replica(
        graph, args.replica
    )
    finder = LoopFinder(graph)
    edges = sorted(finder.loop_edges(anchor), key=str)
    if not edges:
        print(f"replica {anchor!r} has no loop edges to race on")
        return 0
    for edge in edges:
        result = demonstrate_necessity(graph, anchor, edge)
        if result is None:
            print(f"  {edge}: no schedule")
            continue
        schedule, broken, exact = result
        print(
            f"  edge {edge} (case {schedule.case}): oblivious -> "
            f"{len(broken.check().safety)} safety violations; exact -> "
            f"{'OK' if exact.check().ok else 'VIOLATED'}"
        )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.harness.chaos import (
        SCENARIOS,
        ChaosSpec,
        run_chaos_campaign,
        run_chaos_trial,
    )

    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            doc = (SCENARIOS[name].__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{name}: {summary}")
        return 0

    # Scenarios default to sync on (they exist to prove it necessary);
    # the classic sweep defaults to sync off, preserving its behaviour.
    sync = args.sync if args.sync is not None else args.scenario is not None
    if args.scenario is not None:
        spec = SCENARIOS[args.scenario](sync=sync)
    else:
        graph = _build_graph(args)
        spec = ChaosSpec(
            placements=graph,
            loss=args.loss,
            duplication=args.dup,
            writes=args.writes,
            horizon=args.horizon,
            crash_count=args.crashes,
            checkpoints=args.checkpoints,
            sync=sync,
        )
    # Explicit cap/threshold flags override the preset's tuning.
    overrides = {
        name: getattr(args, name)
        for name in ("pending_cap", "gap_threshold", "unacked_cap")
        if getattr(args, name) is not None
    }
    if overrides:
        spec = dataclasses.replace(spec, **overrides)

    if args.verbose:
        # Single-trial replay with an annotated timeline: the exact trial
        # a campaign line like ``seed=17: FAIL ...`` refers to.
        timeline = []
        result = run_chaos_trial(spec, args.seed, timeline=timeline)
        for event in timeline:
            print(event)
        print(result)
        report_trials = [result]
        campaign_ok = result.ok
    else:
        report = run_chaos_campaign(
            spec, seeds=range(args.seed, args.seed + args.seeds)
        )
        print(report.summary())
        report_trials = list(report.trials)
        campaign_ok = report.ok

    if args.report:
        doc = {
            "scenario": args.scenario or "custom",
            "sync": spec.sync,
            "ok": campaign_ok,
            # Every counter plus the timeline the trial ran: a failed
            # seed can be replayed from its own report.
            "trials": [
                {**dataclasses.asdict(t), "ok": t.ok} for t in report_trials
            ],
        }
        _write_json(doc, args.report)
    return 0 if campaign_ok else 1


def cmd_shard(args: argparse.Namespace) -> int:
    """Seeded sharded-deployment smoke: build, run, verify, price."""
    from repro.shard import (
        ShardedSystem,
        monolithic_metadata_bytes_per_op,
        social_shard_plan,
    )
    from repro.workloads.operations import run_workload, zipf_writes

    plan = social_shard_plan(
        replicas=args.replicas, group_size=args.group_size, seed=args.seed
    )
    info = plan.describe()
    print(
        f"shard plan: {info['replicas']} replicas in {info['groups']} "
        f"groups, {info['group_registers']} in-group + "
        f"{info['cross_registers']} cross registers, "
        f"{info['tree_edges']} tree edges"
    )
    system = ShardedSystem(plan, seed=args.seed + 4, batch_window=4.0)
    stream = zipf_writes(
        plan.logical_graph(),
        args.writes,
        rate=args.rate,
        skew=args.skew,
        seed=args.seed + 8,
    )
    run_workload(system, stream)
    report = system.check()
    failures = system.audit_stores()
    print(
        f"  {len(stream)} logical writes, quiescent={system.quiescent()}, "
        f"checker {'ok' if report.ok else 'VIOLATION'}, "
        f"store audit {'ok' if not failures else 'FAILED'}"
    )
    shard_md = system.metadata_bytes_per_op(len(stream))
    mono_md = monolithic_metadata_bytes_per_op(
        plan, min(len(stream), 240), rate=args.rate, skew=args.skew
    )
    print(
        f"  metadata: sharded {shard_md:.1f} B/op vs monolithic "
        f"{mono_md:.1f} B/op ({mono_md / max(shard_md, 1e-9):.1f}x)"
    )
    if not report.ok:
        print(f"FAIL: {report}", file=sys.stderr)
        return 1
    for failure in failures[:5]:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import os

    if args.cluster_command == "serve":
        from repro.tcp.cluster import serve_replica

        return asyncio.run(serve_replica(args.config, args.replica))

    if args.cluster_command == "launch":
        from repro.harness.process_chaos import ring_placements
        from repro.tcp.cluster import ProcessCluster

        placements = ring_placements(args.replicas)
        cluster = ProcessCluster(placements, args.workdir)
        cluster.start_all()

        async def boot() -> None:
            await cluster.wait_ready(timeout=args.timeout)

        try:
            asyncio.run(boot())
        except Exception as exc:
            cluster.terminate_all()
            print(f"launch failed: {exc}", file=sys.stderr)
            return 1
        print(f"cluster of {args.replicas} replicas ready")
        print(f"  config: {cluster.config_path}")
        for replica in sorted(cluster.addresses):
            host, port = cluster.addresses[replica]
            regs = ",".join(placements[replica])
            print(f"  {replica}: {host}:{port} stores [{regs}]")
        if not args.detach:
            print("running until interrupted (Ctrl-C shuts down cleanly)...")
            try:
                asyncio.run(_wait_forever(cluster))
            except KeyboardInterrupt:
                pass
            asyncio.run(cluster.shutdown_all())
        return 0

    if args.cluster_command == "load":
        from repro.harness.soak import run_load
        from repro.tcp.cluster import read_cluster_config

        doc = read_cluster_config(
            os.path.join(args.workdir, "cluster.json")
        )
        addresses = {
            r: (doc["host"], int(p)) for r, p in doc["ports"].items()
        }
        report = asyncio.run(
            run_load(
                addresses,
                doc["placements"],
                sessions=args.sessions,
                writes_per_session=args.writes,
                seed=args.seed,
                pipeline_window=args.pipeline,
                tcp_config=doc.get("config"),
            )
        )
        print(report.render())
        if args.report:
            _write_json(report.to_json(), args.report)
        return 0

    if args.cluster_command == "chaos":
        # The soak runner over a count-bounded burst: sessions stop after
        # --writes each, the fault timeline is --kills restarts and
        # --resets link resets drawn from --seed.
        from repro.harness.process_chaos import ring_placements
        from repro.harness.soak import SoakSpec
        from repro.harness.timeline import burst_timeline

        spec = SoakSpec(
            scenario="burst",
            replicas=args.replicas,
            sessions=args.sessions,
            writes=args.writes,
            seed=args.seed,
            settle_timeout=args.settle_timeout,
            timeline=burst_timeline(
                ring_placements(args.replicas),
                args.kills,
                args.resets,
                args.seed,
            ),
        )
        return _run_soak(spec, args.workdir, None, args.report)

    print(f"unknown cluster command {args.cluster_command!r}", file=sys.stderr)
    return 2


def cmd_soak(args: argparse.Namespace) -> int:
    from repro.harness.soak import SoakSpec

    spec = SoakSpec(
        scenario=args.scenario,
        replicas=args.replicas,
        sessions=args.sessions,
        duration=args.duration,
        sample_interval=args.sample_interval,
        pipeline_window=args.pipeline,
        seed=args.seed,
        settle_timeout=args.settle_timeout,
        think_time=args.think,
    )
    return _run_soak(spec, args.workdir, args.report, args.summary)


def _run_soak(
    spec, workdir: str, series: Optional[str], summary: Optional[str]
) -> int:
    """``soak`` and ``cluster chaos``: run, print, write, exit code."""
    import asyncio

    from repro.harness.soak import run_soak

    report = asyncio.run(run_soak(spec, workdir, report_path=series))
    print(report.render())
    if series:
        print(f"wrote time series to {series}")
    if summary:
        _write_json(report.to_json(), summary)
    for violation in report.violations:
        print(f"VIOLATION: {violation}", file=sys.stderr)
    return 0 if report.ok else 1


def _write_json(doc: Mapping, path: str) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


async def _wait_forever(cluster) -> None:
    import asyncio

    while any(cluster.alive(r) for r in cluster.processes):
        await asyncio.sleep(0.5)


def cmd_modelcheck(args: argparse.Namespace) -> int:
    from repro.modelcheck import ModelChecker

    graph = _build_graph(args)
    # A default exercise: every replica writes each of its registers once.
    programs = {
        r: sorted(graph.registers_at(r), key=lambda v: (str(type(v)), repr(v)))[
            : args.writes_per_replica
        ]
        for r in graph.replicas
    }
    checker = ModelChecker(graph, programs)
    result = checker.run(max_states=args.max_states)
    print(f"programs: {programs}")
    print(f"result  : {result}")
    for violation in result.violations[:10]:
        print(f"  {violation.kind} at {violation.replica!r}: {violation.detail}")
    return 0 if result.ok else 1


def _parse_replica(graph: ShareGraph, raw: str):
    for r in graph.replicas:
        if str(r) == raw:
            return r
    print(f"unknown replica {raw!r}; have {list(graph.replicas)}", file=sys.stderr)
    raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Partially replicated causally consistent shared memory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_topology_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--topology", choices=sorted(TOPOLOGIES), default="fig5"
        )
        p.add_argument("--n", type=int, default=6, help="family size")

    p_graph = sub.add_parser("graph", help="print share + timestamp graphs")
    add_topology_args(p_graph)
    p_graph.set_defaults(func=cmd_graph)

    p_run = sub.add_parser("run", help="run and verify a workload")
    add_topology_args(p_run)
    p_run.add_argument("--writes", type=int, default=200)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables")
    p_exp.add_argument(
        "--only", default=None, help="comma-separated ids, e.g. E5,E7"
    )
    p_exp.set_defaults(func=cmd_experiments)

    p_race = sub.add_parser(
        "race", help="Theorem 8 adversarial race on every loop edge"
    )
    add_topology_args(p_race)
    p_race.add_argument("--replica", default=None, help="anchor replica")
    p_race.set_defaults(func=cmd_race)

    p_chaos = sub.add_parser(
        "chaos", help="fault-injection campaign: loss, duplication, crashes"
    )
    add_topology_args(p_chaos)
    p_chaos.add_argument("--loss", type=float, default=0.2)
    p_chaos.add_argument("--dup", type=float, default=0.1)
    p_chaos.add_argument("--writes", type=int, default=30)
    p_chaos.add_argument("--horizon", type=float, default=300.0)
    p_chaos.add_argument("--crashes", type=int, default=2)
    p_chaos.add_argument("--checkpoints", type=int, default=4)
    p_chaos.add_argument("--seeds", type=int, default=20, help="trial count")
    p_chaos.add_argument("--seed", type=int, default=0, help="first seed")
    p_chaos.add_argument(
        "--scenario",
        choices=("long-partition", "slow-replica"),
        default=None,
        help="tuned robustness preset (overrides topology/fault flags)",
    )
    p_chaos.add_argument(
        "--sync",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="anti-entropy state transfer (default: on for --scenario, "
        "off otherwise)",
    )
    p_chaos.add_argument(
        "--pending-cap", type=int, default=None, dest="pending_cap",
        help="bound each replica's pending buffer (sheds + escalates)",
    )
    p_chaos.add_argument(
        "--gap-threshold", type=int, default=None, dest="gap_threshold",
        help="sender-edge sequence gap that escalates to state transfer",
    )
    p_chaos.add_argument(
        "--unacked-cap", type=int, default=None, dest="unacked_cap",
        help="bound each channel's retransmit log (truncates oldest)",
    )
    p_chaos.add_argument(
        "--verbose",
        action="store_true",
        help="replay a single trial (--seed) and print its timeline",
    )
    p_chaos.add_argument(
        "--report", default=None, help="write a JSON trial report here"
    )
    p_chaos.add_argument(
        "--list-scenarios",
        action="store_true",
        dest="list_scenarios",
        help="print the available --scenario presets and exit",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_shard = sub.add_parser(
        "shard",
        help="sharded deployment smoke: multicast groups + tree overlay",
    )
    p_shard.add_argument(
        "--replicas", type=int, default=128, help="total replicas"
    )
    p_shard.add_argument(
        "--group-size",
        type=int,
        default=8,
        dest="group_size",
        help="replicas per group (keep small: per-group loop enumeration "
        "is exponential in this)",
    )
    p_shard.add_argument(
        "--writes", type=int, default=1200, help="logical writes to issue"
    )
    p_shard.add_argument("--rate", type=float, default=400.0, help="writes/s")
    p_shard.add_argument(
        "--skew", type=float, default=0.8, help="Zipf skew of the workload"
    )
    p_shard.add_argument("--seed", type=int, default=3, help="plan/run seed")
    p_shard.set_defaults(func=cmd_shard)

    p_cluster = sub.add_parser(
        "cluster", help="real-socket TCP cluster runtime"
    )
    cluster_sub = p_cluster.add_subparsers(
        dest="cluster_command", required=True
    )

    p_serve = cluster_sub.add_parser(
        "serve", help="run one replica process from a cluster config"
    )
    p_serve.add_argument("--config", required=True, help="cluster.json path")
    p_serve.add_argument("--replica", required=True, help="replica name")
    p_serve.set_defaults(func=cmd_cluster)

    p_launch = cluster_sub.add_parser(
        "launch", help="spawn a local multi-process cluster"
    )
    p_launch.add_argument("--replicas", type=int, default=3)
    p_launch.add_argument("--workdir", required=True)
    p_launch.add_argument("--timeout", type=float, default=20.0)
    p_launch.add_argument(
        "--detach",
        action="store_true",
        help="return after readiness instead of supervising until Ctrl-C",
    )
    p_launch.set_defaults(func=cmd_cluster)

    p_load = cluster_sub.add_parser(
        "load", help="drive a write burst against a running cluster"
    )
    p_load.add_argument(
        "--workdir", required=True, help="workdir holding cluster.json"
    )
    p_load.add_argument("--sessions", type=int, default=4)
    p_load.add_argument("--writes", type=int, default=50, help="per session")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--pipeline",
        type=int,
        default=1,
        help="client pipeline window (1 = write-await-write)",
    )
    p_load.add_argument("--report", default=None, help="write JSON here")
    p_load.set_defaults(func=cmd_cluster)

    p_pchaos = cluster_sub.add_parser(
        "chaos", help="process-level chaos: SIGKILL, restart, resets"
    )
    p_pchaos.add_argument("--workdir", required=True)
    p_pchaos.add_argument("--replicas", type=int, default=5)
    p_pchaos.add_argument("--sessions", type=int, default=4)
    p_pchaos.add_argument("--writes", type=int, default=40, help="per session")
    p_pchaos.add_argument("--seed", type=int, default=0)
    p_pchaos.add_argument("--kills", type=int, default=1)
    p_pchaos.add_argument("--resets", type=int, default=1)
    p_pchaos.add_argument(
        "--settle-timeout", type=float, default=45.0, dest="settle_timeout"
    )
    p_pchaos.add_argument("--report", default=None, help="write JSON here")
    p_pchaos.set_defaults(func=cmd_cluster)

    p_soak = sub.add_parser(
        "soak",
        help="sustained-load soak: scheduled faults, JSONL series, audit",
    )
    p_soak.add_argument(
        "--scenario",
        choices=(
            "steady",
            "crash-storm",
            "corrupt-wal",
            "overload",
            "shard-storm",
        ),
        default="steady",
    )
    p_soak.add_argument("--workdir", required=True)
    p_soak.add_argument("--duration", type=float, default=60.0)
    p_soak.add_argument("--replicas", type=int, default=3)
    p_soak.add_argument("--sessions", type=int, default=4)
    p_soak.add_argument("--seed", type=int, default=0)
    p_soak.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        dest="sample_interval",
    )
    p_soak.add_argument(
        "--pipeline",
        type=int,
        default=1,
        help="client pipeline window (1 = write-await-write)",
    )
    p_soak.add_argument(
        "--settle-timeout",
        type=float,
        default=60.0,
        dest="settle_timeout",
    )
    p_soak.add_argument(
        "--think",
        type=float,
        default=0.0,
        help="per-session sleep between ops, seconds (0 = full speed; "
        "use ~0.04 on long soaks to keep the final audit tractable)",
    )
    p_soak.add_argument(
        "--report", default=None, help="write the JSONL time series here"
    )
    p_soak.add_argument(
        "--summary", default=None, help="write the JSON summary here"
    )
    p_soak.set_defaults(func=cmd_soak)

    p_mc = sub.add_parser(
        "modelcheck", help="exhaustively explore all interleavings"
    )
    add_topology_args(p_mc)
    p_mc.add_argument("--writes-per-replica", type=int, default=1)
    p_mc.add_argument("--max-states", type=int, default=200_000)
    p_mc.set_defaults(func=cmd_modelcheck)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module entry
    raise SystemExit(main())
