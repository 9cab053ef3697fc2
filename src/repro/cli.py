"""Command-line interface.

Gives shell access to the library's main entry points::

    python -m repro info sf:q=13
    python -m repro simulate mlfm:h=5 --routing ugal --pattern worstcase --load 0.4
    python -m repro sweep oft:k=4 --routing min --pattern uniform --loads 0.2,0.5,0.8
    python -m repro sweep oft:k=4 --loads 0.2,0.5,0.8 --jobs 4 --resume
    python -m repro campaign --topologies "sf:q=5;oft:k=4" --routings min,ugal \
        --patterns uniform,worstcase --jobs 4 --resume
    python -m repro exchange sf:q=5 --pattern a2a --routing min
    python -m repro workload sf:q=5 --collective ring-allreduce --sizes 4096,65536
    python -m repro workload oft:k=4 --collective halo3d --iterations 4 --jobs 4
    python -m repro figure fig6 --scale tiny
    python -m repro scalability --max-radix 64
    python -m repro bisection oft:k=6

Topology specs are ``family:key=value,...`` (``sf:q=5,p=ceil``,
``hyperx:r=9``, ...).  :mod:`repro.experiments.specs` lists the
families and defines what every topology, routing and pattern name
means; the commands only parse flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro.experiments.specs import (
    build_pattern,
    build_routing,
    build_workload,
    cli_pattern_spec,
    cli_routing_spec,
    parse_topology,
)

__all__ = ["main", "parse_topology"]


def _cmd_info(args) -> int:
    from repro.analysis import cost_metrics
    from repro.experiments.report import ascii_table

    topo = parse_topology(args.topology)
    m = cost_metrics(topo, with_diameter=not args.no_diameter)
    rows = [
        ["name", m.topology],
        ["end-nodes (N)", m.num_nodes],
        ["routers (R)", m.num_routers],
        ["max radix", m.max_radix],
        ["router links", topo.num_router_links],
        ["ports / node", f"{m.ports_per_node:.3f}"],
        ["links / node", f"{m.links_per_node:.3f}"],
    ]
    if m.diameter is not None:
        rows.append(["endpoint diameter", m.diameter])
    print(ascii_table(["metric", "value"], rows))
    return 0


def _maybe_profile(enabled: bool, top: int = 20):
    """Context manager wrapping a run in cProfile when *enabled*.

    On exit prints the *top* functions by internal time to stderr, so
    the profile never corrupts machine-readable stdout output.
    """
    import contextlib

    if not enabled:
        return contextlib.nullcontext()

    import cProfile
    import pstats

    @contextlib.contextmanager
    def _profiled():
        prof = cProfile.Profile()
        prof.enable()
        try:
            yield
        finally:
            prof.disable()
            print(f"--- cProfile: top {top} functions by internal time ---",
                  file=sys.stderr)
            stats = pstats.Stats(prof, stream=sys.stderr)
            stats.sort_stats("tottime")
            stats.print_stats(top)

    return _profiled()


def _print_kernel_profile(net) -> None:
    """--profile satellite for the kernel backend: the Python-escape
    split (where the remaining wall-clock lives once dispatch is in C),
    printed to stderr next to the cProfile table."""
    engine = net.engine
    stats_fn = getattr(engine, "kernel_stats", None)
    if stats_fn is None:
        return
    s = stats_fn()
    esc_ns = s["escape_ns"]
    run_ns = s["run_ns"]
    # A run that never entered the kernel (or a fully-fast one with no
    # escapes) must still print a well-formed table: guard the percent
    # denominator and say explicitly when the escape set is empty.
    denom = run_ns or 1.0
    in_kernel_ns = max(run_ns - esc_ns, 0.0)
    print("--- kernel escape split ---", file=sys.stderr)
    print(
        f"in-kernel: {s['events']} events, {in_kernel_ns / 1e6:.1f} ms "
        f"({100.0 * in_kernel_ns / denom:.1f}% of kernel run time)",
        file=sys.stderr,
    )
    for name, f in sorted(s.get("fast_path", {}).items()):
        print(
            f"fast-path {name}: {f['count']} packets handled in C",
            file=sys.stderr,
        )
    fired = [
        (name, e) for name, e in s["escapes"].items() if e["count"]
    ]
    if not fired:
        print("escapes: none", file=sys.stderr)
    for name, e in sorted(fired, key=lambda kv: kv[1]["ns"], reverse=True):
        print(
            f"escape {name}: {e['count']} calls, {e['ns'] / 1e6:.1f} ms "
            f"({100.0 * e['ns'] / denom:.1f}%)",
            file=sys.stderr,
        )
    q = s["queue"]
    pushes = q["lane_pushes"] + q["heap_pushes"]
    share = 100.0 / (pushes or 1)
    lanes = ", ".join(
        f"{name} {share * n:.1f}%" for name, n in q["lanes"].items()
    )
    print(
        f"event set: {pushes} pushes, {share * q['lane_pushes']:.1f}% on "
        f"delay lanes ({lanes}), heap high-water {q['heap_hwm']} events",
        file=sys.stderr,
    )
    # The sampled split: each sampled interval includes one clock read.
    smp = s["sampled"]
    ops = {name: o for name, o in smp["ops"].items() if o["count"]}
    smp_ns = smp["pop_ns"] + sum(o["ns"] for o in ops.values())
    print(
        f"sampled loop time (1 event in {smp['every']}, {smp['count']} "
        f"events): pop {100.0 * smp['pop_ns'] / (smp_ns or 1.0):.1f}%, "
        f"{smp['pop_ns'] / (smp['count'] or 1):.0f} ns/event",
        file=sys.stderr,
    )
    for name, o in sorted(ops.items(), key=lambda kv: kv[1]["ns"], reverse=True):
        print(
            f"handler {name}: {100.0 * o['ns'] / smp_ns:.1f}%, "
            f"{o['ns'] / o['count']:.0f} ns/event",
            file=sys.stderr,
        )


def _sim_config(args):
    """The run's SimConfig: the paper's, plus --check/--backend/--faults
    when requested."""
    from repro.sim import PAPER_CONFIG, SimConfig

    check = getattr(args, "check", False)
    backend = getattr(args, "backend", "object")
    faults = tuple(getattr(args, "faults", None) or ())
    if not check and backend == "object" and not faults:
        return PAPER_CONFIG
    return SimConfig(check=check, backend=backend, faults=faults,
                     fault_policy=getattr(args, "fault_policy", "reroute"))


def _print_fault_summary(net) -> None:
    fm = net.fault_manager
    s = fm.summary()
    print(
        f"faults: {s['events_fired']} events fired, "
        f"{s['reroutes']} packets rerouted, {s['dropped']} dropped, "
        f"{s['links_down']} links still down "
        f"(first failure at {s['first_fault_ns']}ns)"
    )


def _print_check_summary(net) -> None:
    checker = net.checker
    print(
        f"check: invariants verified ({checker.injected} packets tracked, "
        f"{checker.audits} full audits, {checker.history.appended} transitions)"
    )


def _cmd_simulate(args) -> int:
    from repro.sim import Network

    topo = parse_topology(args.topology)
    routing = build_routing(*cli_routing_spec(topo, args.routing), topo, args.seed)
    pattern = build_pattern(*cli_pattern_spec(topo, args.pattern, args.seed), topo)
    net = Network(topo, routing, _sim_config(args))
    tracer = net.enable_trace(capacity=args.trace) if args.trace else None
    with _maybe_profile(args.profile):
        stats = net.run_synthetic(
            pattern,
            load=args.load,
            warmup_ns=args.warmup,
            measure_ns=args.measure,
            seed=args.seed,
        )
    if args.profile:
        _print_kernel_profile(net)
    print(
        f"{topo.name} routing={args.routing} pattern={args.pattern} load={args.load:.2f}: "
        f"throughput={stats.throughput:.3f} mean_latency={stats.mean_latency_ns:.1f}ns "
        f"p99={stats.p99_latency_ns:.1f}ns packets={stats.ejected_packets}"
    )
    if net.fault_manager is not None:
        _print_fault_summary(net)
    if net.checker is not None:
        _print_check_summary(net)
    if tracer is not None:
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(tracer.by_kind().items()))
        print(f"trace: {len(tracer.records)} packets recorded ({kinds})")
        if tracer.dropped:
            print(
                f"warning: trace capacity {tracer.capacity} exhausted; "
                f"{tracer.dropped} delivered packets were not recorded, so the "
                f"traced latency distribution is truncated (raise --trace)",
                file=sys.stderr,
            )
    return 0


def _orchestration_requested(args) -> bool:
    return args.jobs != 1 or args.resume or args.force


def _make_orchestrator(args):
    """Build an Orchestrator from the shared ``--jobs/--resume/...`` flags."""
    from repro.orchestrate import Orchestrator

    return Orchestrator(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        resume=args.resume,
        force=args.force,
        timeout_s=args.job_timeout,
        max_retries=args.retries,
        telemetry_path=args.telemetry,
        progress=True if args.progress else None,
    )


def _print_campaign_stats(stats) -> None:
    jobs = stats.get("jobs", {})
    print(
        f"campaign: {jobs.get('done', 0)} done, {jobs.get('failed', 0)} failed, "
        f"{stats.get('cache_hits', 0)} cache hits, {stats.get('executed', 0)} executed "
        f"in {stats.get('wall_clock_s', 0.0):.1f}s "
        f"({stats.get('events_per_second', 0.0) / 1e3:.0f}k events/s)"
    )


def _cmd_sweep(args) -> int:
    from repro.experiments import saturation_point
    from repro.experiments.report import ascii_table
    from repro.orchestrate import run_jobs, sweep_jobs

    topo = parse_topology(args.topology)
    jobs = sweep_jobs(
        args.topology,
        cli_routing_spec(topo, args.routing),
        cli_pattern_spec(topo, args.pattern, seed=args.seed),
        [float(x) for x in args.loads.split(",")],
        warmup_ns=args.warmup,
        measure_ns=args.measure,
        seed=args.seed,
    )
    orch = _make_orchestrator(args) if _orchestration_requested(args) else None
    try:
        points = [result.sweep_point() for result in run_jobs(jobs, orch)]
    except RuntimeError as exc:
        if orch is None:
            raise
        # A point failed even after retries: report it like every
        # other CLI error instead of unwinding with a traceback.
        print(f"error: {exc}", file=sys.stderr)
        _print_campaign_stats(orch.last_stats)
        return 1
    rows = [
        [p.load, p.throughput, p.mean_latency_ns, p.indirect_fraction] for p in points
    ]
    print(ascii_table(["load", "throughput", "latency ns", "indirect frac"], rows))
    print(f"saturation point: {saturation_point(points):.3f}")
    if orch is not None:
        _print_campaign_stats(orch.last_stats)
    return 0


def _cmd_campaign(args) -> int:
    """Cross-product campaign: topologies x routings x patterns x loads x seeds."""
    from repro.experiments.export import write_json
    from repro.experiments.report import ascii_table
    from repro.orchestrate import sweep_jobs

    loads = [float(x) for x in args.loads.split(",")]
    seeds = [int(x) for x in args.seeds.split(",")]
    config = _sim_config(args)
    jobs = []
    for topo_spec in args.topologies.split(";"):
        topo = parse_topology(topo_spec)
        for routing in args.routings.split(","):
            for pattern in args.patterns.split(","):
                for seed in seeds:
                    jobs.extend(sweep_jobs(
                        topo_spec,
                        cli_routing_spec(topo, routing),
                        cli_pattern_spec(topo, pattern, seed=seed),
                        loads,
                        warmup_ns=args.warmup,
                        measure_ns=args.measure,
                        seed=seed,
                        config=config,
                        tag=f"{topo_spec}/{routing}/{pattern}/s{seed}",
                    ))
    orch = _make_orchestrator(args)
    result = orch.run(jobs)
    rows = []
    for job, job_id in zip(jobs, result.order):
        outcome = result.outcomes[job_id]
        if outcome.ok:
            point = outcome.result.sweep_point()
            rows.append([job.tag, job.load, point.throughput, point.mean_latency_ns,
                         "cached" if outcome.result.cached else "run"])
        else:
            rows.append([job.tag, job.load, "-", "-", f"FAILED: {outcome.error}"])
    print(ascii_table(["series", "load", "throughput", "latency ns", "status"], rows))
    _print_campaign_stats(result.stats)
    if args.summary_json:
        write_json(args.summary_json, result.stats)
        print(f"summary written to {args.summary_json}")
    return 1 if result.failed else 0


def _cmd_exchange(args) -> int:
    from repro.orchestrate import exchange_job, run_job

    topo = parse_topology(args.topology)
    job = exchange_job(
        args.topology,
        cli_routing_spec(topo, args.routing),
        (args.pattern, {"message_bytes": args.msg_bytes, "seed": args.seed}),
        seed=args.seed,
    )
    res = run_job(job).payload
    print(
        f"{topo.name} {args.pattern} routing={args.routing}: "
        f"effective_throughput={res['effective_throughput']:.3f} "
        f"completion={res['completion_ns'] / 1000:.2f}us "
        f"packets={int(res['packets'])}"
    )
    return 0


def _cmd_workload(args) -> int:
    """Closed-loop collective workloads (repro.workload)."""
    from repro.experiments.report import ascii_table

    topo = parse_topology(args.topology)
    sizes = [int(x) for x in args.sizes.split(",")]
    wkwargs: Dict[str, object] = {}
    if args.ranks is not None:
        wkwargs["ranks"] = args.ranks
    if args.iterations != 1:
        wkwargs["iterations"] = args.iterations
    if args.barrier:
        wkwargs["barrier"] = True

    def indirect_fraction(res: Dict) -> float:
        kinds: Dict[str, int] = {}
        for phase in res["phases"].values():
            for kind, count in phase["kind_counts"].items():
                kinds[kind] = kinds.get(kind, 0) + count
        total = sum(kinds.values()) or 1
        return kinds.get("indirect", 0) / total

    config = _sim_config(args)
    routing = cli_routing_spec(topo, args.routing)
    orch = None
    if _orchestration_requested(args):
        from repro.orchestrate import run_jobs, workload_size_jobs

        orch = _make_orchestrator(args)
        jobs = workload_size_jobs(
            args.topology,
            routing,
            args.collective,
            sizes,
            workload_kwargs=wkwargs,
            seed=args.seed,
            config=config,
        )
        try:
            outcomes = [result.payload for result in run_jobs(jobs, orch)]
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            _print_campaign_stats(orch.last_stats)
            return 1
    else:
        from repro.sim import Network

        outcomes = []
        with _maybe_profile(args.profile):
            for size in sizes:
                workload = build_workload(
                    args.collective, dict(wkwargs, message_bytes=size), topo
                )
                net = Network(
                    topo, build_routing(*routing, topo, args.seed), config
                )
                outcomes.append(net.run_workload(workload))
        if args.profile:
            _print_kernel_profile(net)
    rows = [
        [
            size,
            res["messages"],
            res["completion_ns"],
            res["critical_path_ideal_ns"],
            res["contention_stretch"],
            res["link_load_skew"],
            indirect_fraction(res),
        ]
        for size, res in zip(sizes, outcomes)
    ]
    print(ascii_table(
        ["msg bytes", "messages", "completion ns", "critical path ns",
         "stretch", "link skew", "indirect frac"],
        rows,
        title=f"{topo.name} {args.collective} routing={args.routing} (closed loop)",
    ))
    if getattr(args, "faults", None):
        for size, res in zip(sizes, outcomes):
            print(
                f"faults[{size}B]: {res.get('fault_events', 0)} events fired, "
                f"{res.get('fault_reroutes', 0)} packets rerouted, "
                f"{res.get('fault_dropped', 0)} dropped, post-fault skew "
                f"{res.get('post_fault_link_load_skew', 0.0):.3f}"
            )
    if args.check:
        print("check: invariant checker enabled; all runs completed without violation")
    if orch is not None:
        _print_campaign_stats(orch.last_stats)
    return 0


def _cmd_resilience(args) -> int:
    """Mid-collective degradation sweep (repro.experiments.resilience)."""
    from repro.experiments.resilience import resilience_data

    try:
        data = resilience_data(
            scale=args.scale,
            seed=args.seed,
            collective=args.collective,
            message_bytes=args.msg_bytes,
            drip_count=args.failures,
            drip_every_ns=args.every,
            drip_seed=args.fault_seed,
            fault_policy=args.fault_policy,
            backend=args.backend,
            check=args.check,
        )
    except RuntimeError as exc:
        # A dropped packet orphans its message's dependents, so the
        # schedule cannot complete -- report instead of unwinding.
        print(f"error: {exc}", file=sys.stderr)
        if args.fault_policy == "drop":
            print("note: fault-policy 'drop' is incompatible with "
                  "closed-loop workload completion; use 'reroute'",
                  file=sys.stderr)
        return 1
    print(data["report"])
    print(f"fault schedule: {', '.join(data['fault_specs'])}")
    return 0


def _cmd_figure(args) -> int:
    import inspect

    from repro import experiments

    func = getattr(experiments, f"{args.figure}_data", None)
    if func is None:
        valid = [n[: -len("_data")] for n in dir(experiments) if n.endswith("_data")]
        raise ValueError(f"unknown figure {args.figure!r}; choose from {sorted(valid)}")
    if args.figure in ("table2", "fig3"):
        data = func()
    else:
        kwargs = {}
        orch = None
        if (_orchestration_requested(args)
                and "orchestrator" in inspect.signature(func).parameters):
            orch = _make_orchestrator(args)
            kwargs["orchestrator"] = orch
        data = func(args.scale, **kwargs)
        if orch is not None and orch.last_stats:
            _print_campaign_stats(orch.last_stats)
    print(data["report"])
    return 0


def _cmd_validate(args) -> int:
    """Network doctor: structure, deadlock, forwarding-table checks."""
    from repro.routing import build_cdg_indirect, build_cdg_minimal
    from repro.routing.tables import ForwardingTables
    from repro.routing.vc import default_vc_policy
    from repro.topology.validate import validate_topology

    topo = parse_topology(args.topology)
    failures = 0

    report = validate_topology(topo)
    print(f"structure: {'OK' if report.ok else 'FAIL'} "
          f"(endpoint diameter {report.diameter})")
    for problem in report.problems:
        print(f"  - {problem}")
    failures += not report.ok

    policy = default_vc_policy(topo)
    minimal_ok = build_cdg_minimal(topo, policy).is_acyclic()
    print(f"deadlock (minimal, {type(policy).__name__}, "
          f"{policy.num_vcs(False)} VC): {'OK' if minimal_ok else 'FAIL'}")
    failures += not minimal_ok
    if not args.skip_indirect:
        indirect_ok = build_cdg_indirect(topo, policy).is_acyclic()
        print(f"deadlock (indirect, {policy.num_vcs(True)} VC): "
              f"{'OK' if indirect_ok else 'FAIL'}")
        failures += not indirect_ok

    tables = ForwardingTables(topo)
    problems = tables.verify()
    print(f"forwarding tables: {'OK' if not problems else 'FAIL'} "
          f"({tables.total_entries()} entries)")
    for problem in problems[:5]:
        print(f"  - {problem}")
    failures += bool(problems)

    print("verdict:", "HEALTHY" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


def _cmd_reproduce(args) -> int:
    from repro.experiments.export import write_json
    from repro.experiments.summary import run_all, write_summary

    only = args.only.split(",") if args.only else None

    def progress(exp_id: str, seconds: float) -> None:
        print(f"  {exp_id}: done in {seconds:.1f}s")

    print(f"Reproducing {'all experiments' if only is None else only} at scale {args.scale}")
    results = run_all(scale=args.scale, only=only, progress=progress)
    write_summary(results, args.output, scale=args.scale)
    print(f"summary written to {args.output}")
    if args.json:
        write_json(args.json, {k: {kk: vv for kk, vv in v.items() if kk != "report"}
                               for k, v in results.items()})
        print(f"raw data written to {args.json}")
    return 0


def _cmd_serve(args) -> int:
    """Simulation-as-a-service front-end (repro.serve)."""
    from repro.serve import serve

    def ready(host: str, port: int) -> None:
        # Parsed by smoke scripts and clients waiting for startup; keep
        # the prefix stable.
        print(f"repro-serve listening on http://{host}:{port} "
              f"(workers={args.workers}, store={args.store})", flush=True)

    return serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        store_dir=args.store,
        spool_dir=args.spool,
        max_queued=args.max_queued,
        max_running=args.max_running,
        job_timeout_s=args.job_timeout,
        max_retries=args.retries,
        inline=args.inline,
        store_gc_age_s=args.store_gc_age,
        ready=ready,
    )


def _cmd_scalability(args) -> int:
    from repro.analysis import scalability_table
    from repro.experiments.report import ascii_table

    table = scalability_table(args.max_radix)
    rows = sorted(table.items(), key=lambda kv: -kv[1])
    print(ascii_table(["family", f"max N @ radix {args.max_radix}"], rows))
    return 0


def _cmd_bisection(args) -> int:
    from repro.analysis import bisection_bandwidth

    topo = parse_topology(args.topology)
    bb = bisection_bandwidth(topo, restarts=args.restarts, seed=args.seed)
    print(
        f"{bb.topology}: cut={bb.cut_links:.0f} links, "
        f"bisection={bb.per_node:.3f} b/node, imbalance={bb.imbalance:.3f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cost-effective diameter-two topologies (SC '15) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="topology metrics")
    p.add_argument("topology")
    p.add_argument("--no-diameter", action="store_true")
    p.set_defaults(func=_cmd_info)

    def add_sim_args(p):
        p.add_argument("topology")
        p.add_argument("--routing", default="min")
        p.add_argument("--pattern", default="uniform")
        p.add_argument("--warmup", type=float, default=2_000.0)
        p.add_argument("--measure", type=float, default=8_000.0)
        p.add_argument("--seed", type=int, default=0)

    def add_check_arg(p):
        p.add_argument("--check", action="store_true",
                       help="run with the invariant checker (repro.sim.invariants): "
                            "verifies packet conservation, credit loops, VC "
                            "legality, latency floors and progress on every "
                            "transition; ~2x slower, identical results")

    def add_backend_arg(p):
        p.add_argument("--backend", default="object",
                       choices=["object", "kernel"],
                       help="simulator engine: 'object' is the reference "
                            "event-per-callback engine, 'kernel' runs the "
                            "same physics in a compiled C extension that "
                            "owns all simulation state (built at first use; "
                            "falls back to 'object' with a warning when no "
                            "compiler is available).  Bit-identical, "
                            "conformance-gated; see docs/PERFORMANCE.md")

    def add_fault_args(p):
        g = p.add_argument_group("fault injection (repro.resilience)")
        g.add_argument("--faults", action="append", default=None,
                       metavar="SPEC",
                       help="fault-schedule entry (repeatable): "
                            "'fail@T:U-V', 'recover@T:U-V', 'fail@T:rR' "
                            "(all links of router R), or "
                            "'drip@T:n=N,every=E[,seed=S]' for seeded "
                            "random connectivity-preserving failures")
        g.add_argument("--fault-policy", default="reroute",
                       choices=["reroute", "drop"],
                       help="packets queued toward a dead link are "
                            "rerouted at their current router (default) "
                            "or counted dropped; 'drop' breaks closed-"
                            "loop workload completion")

    def add_orchestration_args(p):
        g = p.add_argument_group("orchestration (repro.orchestrate)")
        g.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="parallel worker processes (1 = serial, in-process)")
        g.add_argument("--resume", action="store_true",
                       help="skip points already in the result cache")
        g.add_argument("--force", action="store_true",
                       help="invalidate cached results for these points and re-run")
        g.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                       help="result-cache directory (default: %(default)s)")
        g.add_argument("--job-timeout", type=float, default=None, metavar="S",
                       help="per-job wall-clock timeout in seconds")
        g.add_argument("--retries", type=int, default=1, metavar="K",
                       help="extra attempts per failed/crashed job (default: %(default)s)")
        g.add_argument("--telemetry", default=None, metavar="FILE",
                       help="append JSONL campaign events to FILE")
        g.add_argument("--progress", action="store_true",
                       help="force the live progress line even when not a TTY")

    p = sub.add_parser("simulate", help="one synthetic-traffic simulation")
    add_sim_args(p)
    p.add_argument("--load", type=float, default=0.5)
    p.add_argument("--trace", type=int, default=0, metavar="N",
                   help="record up to N delivered packets (route kind, latency); "
                        "warns if the capacity truncates the distribution")
    p.add_argument("--profile", action="store_true",
                   help="wrap the run in cProfile and print the top hot "
                        "functions to stderr")
    add_check_arg(p)
    add_backend_arg(p)
    add_fault_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="offered-load sweep")
    add_sim_args(p)
    p.add_argument("--loads", default="0.2,0.4,0.6,0.8")
    add_orchestration_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "campaign",
        help="orchestrated sweep grid: topologies x routings x patterns x seeds",
    )
    p.add_argument("--topologies", required=True,
                   help="';'-separated topology specs, e.g. 'sf:q=5;oft:k=4'")
    p.add_argument("--routings", default="min",
                   help="comma-separated routings (min | inr | ugal | ugal-ath)")
    p.add_argument("--patterns", default="uniform",
                   help="comma-separated traffic patterns")
    p.add_argument("--loads", default="0.2,0.4,0.6,0.8")
    p.add_argument("--seeds", default="0", help="comma-separated base seeds")
    p.add_argument("--warmup", type=float, default=2_000.0)
    p.add_argument("--measure", type=float, default=8_000.0)
    p.add_argument("--summary-json", default=None, metavar="FILE",
                   help="write the campaign summary (wall-clock, cache hits, ev/s) as JSON")
    add_check_arg(p)
    add_backend_arg(p)
    add_orchestration_args(p)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "workload",
        help="closed-loop collective workload (dependency-DAG schedule)",
    )
    p.add_argument("topology")
    p.add_argument("--collective", default="ring-allreduce",
                   choices=["ring-allreduce", "rd-allreduce", "allgather",
                            "halo3d", "phased-a2a"])
    p.add_argument("--routing", default="min")
    p.add_argument("--sizes", default="4096", metavar="B1,B2,...",
                   help="comma-separated message sizes in bytes (one run each)")
    p.add_argument("--ranks", type=int, default=None,
                   help="participating ranks (default: every node; rd-allreduce "
                        "trims to the largest power of two)")
    p.add_argument("--iterations", type=int, default=1,
                   help="stencil sweeps for halo3d (default: %(default)s)")
    p.add_argument("--barrier", action="store_true",
                   help="phased-a2a: global barrier between phases")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", action="store_true",
                   help="wrap the serial run in cProfile and print the top "
                        "hot functions to stderr (ignored with --jobs > 1: "
                        "the work executes in worker processes)")
    add_check_arg(p)
    add_backend_arg(p)
    add_fault_args(p)
    add_orchestration_args(p)
    p.set_defaults(func=_cmd_workload)

    p = sub.add_parser("exchange", help="finite exchange (a2a | nn)")
    p.add_argument("topology")
    p.add_argument("--pattern", default="a2a", choices=["a2a", "nn"])
    p.add_argument("--routing", default="min")
    p.add_argument("--msg-bytes", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_exchange)

    p = sub.add_parser(
        "resilience",
        help="mid-collective degradation sweep under identical fault schedules",
    )
    p.add_argument("--scale", default="tiny", choices=["tiny", "small", "paper"])
    p.add_argument("--collective", default="ring-allreduce",
                   choices=["ring-allreduce", "rd-allreduce", "allgather",
                            "halo3d", "phased-a2a"])
    p.add_argument("--msg-bytes", type=int, default=None,
                   help="message size in bytes (default: the scale's A2A size)")
    p.add_argument("--failures", type=int, default=2, metavar="N",
                   help="links to fail mid-run (default: %(default)s)")
    p.add_argument("--every", type=float, default=100.0, metavar="NS",
                   help="spacing between drip failures (default: %(default)s)")
    p.add_argument("--fault-seed", type=int, default=1,
                   help="drip link-selection seed (default: %(default)s)")
    p.add_argument("--fault-policy", default="reroute",
                   choices=["reroute", "drop"])
    p.add_argument("--seed", type=int, default=0)
    add_check_arg(p)
    add_backend_arg(p)
    p.set_defaults(func=_cmd_resilience)

    p = sub.add_parser("figure", help="regenerate a paper artefact")
    p.add_argument("figure", help="table2 | fig3 | ... | fig14 | diversity")
    p.add_argument("--scale", default="tiny", choices=["tiny", "small", "paper"])
    add_orchestration_args(p)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("validate", help="structure/deadlock/table checks")
    p.add_argument("topology")
    p.add_argument("--skip-indirect", action="store_true",
                   help="skip the (larger) indirect-routing CDG check")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("reproduce", help="run all table/figure reproductions")
    p.add_argument("--scale", default="tiny", choices=["tiny", "small", "paper"])
    p.add_argument("--only", default=None, help="comma-separated experiment ids")
    p.add_argument("--output", default="reproduction_summary.md")
    p.add_argument("--json", default=None, help="also dump raw data as JSON")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser(
        "serve",
        help="simulation-as-a-service HTTP API (asyncio, repro.serve)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000,
                   help="TCP port (0 = pick a free one; the chosen port is "
                        "printed on the ready line)")
    p.add_argument("--workers", default="auto", metavar="N|MIN:MAX|auto",
                   help="simulation worker pool: a fixed count, a min:max "
                        "autoscaling range, or 'auto' (1:min(cpus,8), scaled "
                        "by queue depth with hysteresis; default: %(default)s)")
    p.add_argument("--store", default=".repro-cache", metavar="DIR",
                   help="content-addressed ResultStore served at "
                        "/v1/results/{hash} (default: %(default)s)")
    p.add_argument("--spool", default=None, metavar="DIR",
                   help="event streams + drain state (default: STORE/serve)")
    p.add_argument("--max-queued", type=int, default=16, metavar="N",
                   help="per-tenant queued-job quota; breach answers 429 "
                        "(default: %(default)s)")
    p.add_argument("--max-running", type=int, default=4, metavar="N",
                   help="per-tenant concurrently-running ceiling; excess "
                        "stays queued behind other tenants (default: %(default)s)")
    p.add_argument("--job-timeout", type=float, default=None, metavar="S",
                   help="per-job wall-clock timeout in seconds")
    p.add_argument("--retries", type=int, default=1, metavar="K",
                   help="extra attempts per failed/crashed job (default: %(default)s)")
    p.add_argument("--store-gc-age", type=float, default=None, metavar="S",
                   help="periodically prune cached results older than S seconds")
    p.add_argument("--inline", action="store_true",
                   help="run jobs in server threads instead of per-job "
                        "worker processes (no crash isolation; for tests "
                        "and fork-averse environments)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("scalability", help="Fig. 3 summary")
    p.add_argument("--max-radix", type=int, default=64)
    p.set_defaults(func=_cmd_scalability)

    p = sub.add_parser("bisection", help="Fig. 4 estimate for one topology")
    p.add_argument("topology")
    p.add_argument("--restarts", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bisection)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): not an
        # error.  Point stdout at the null device so the interpreter's
        # exit-time flush of the unwritten output stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        # A route that cannot exist (faults that leave a pair without a
        # path inside the VC budget) is a usage error like a ValueError.
        # Invariant violations surface as their structured report rather
        # than a traceback that buries it (lazy imports: the checker may
        # never have been loaded).
        from repro.routing.cache import NoRouteError
        from repro.sim.invariants import InvariantViolation

        if isinstance(exc, NoRouteError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if isinstance(exc, InvariantViolation):
            print(exc.report(), file=sys.stderr)
            return 3
        raise
