"""One rep of one simulation workload, in a fresh process.

Run by ``bench.py`` as ``python child.py '<json spec>'``; prints one
JSON object.  A fresh process per rep makes ``peak_rss_mb`` the rep's
own high-water mark and puts the imports inside ``setup_s``, whose clock
starts on this file's first line, before ``import repro``.

Every call into the program goes through its public API (``SlimFly``,
``UGALRouting``, ``Network``, ``run_synthetic``/``run_workload``,
``kernel_stats``, ``RouteCache``).  With ``"trace": true`` the child
also records spans around those calls and measures the per-layer
extras: a full route-cache fill and a forced kernel compile.

``{"mode": "prewarm"}`` only imports the package and loads the compiled
kernel, building it into ``REPRO_KERNEL_CACHE`` if it is not there yet.
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402
from workloads import digest  # noqa: E402

OPS = ("RECV", "ENTER", "PWAKE", "DELIVER", "NWAKE", "GEN", "CALL")
ESCAPES = ("make_packet", "deliver", "call", "fault_divert", "stats_flush")
FAST = ("make_packet", "deliver")


def prewarm() -> dict:
    # Every module a rep imports, so a fresh checkout's bytecode is
    # compiled before anything is timed.
    import repro
    import repro.routing.cache  # noqa: F401
    import repro.sim  # noqa: F401
    import repro.topology  # noqa: F401
    import repro.traffic  # noqa: F401
    import repro.workload  # noqa: F401
    from repro.sim.vec import kernel

    t = time.perf_counter()
    mod = kernel.load_kernel()
    return {"repro_file": repro.__file__, "kernel": mod is not None,
            "kernel_error": kernel.load_error,
            "load_s": time.perf_counter() - t}


def kernel_build_s(tmp: str) -> float:
    """Wall time of a forced JIT compile (and load) into an empty cache."""
    cache = tempfile.mkdtemp(dir=tmp)
    try:
        env = dict(os.environ, REPRO_KERNEL_CACHE=cache)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             json.dumps({"mode": "prewarm"})],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"kernel build child failed: {proc.stderr[-500:]}")
        info = json.loads(proc.stdout.splitlines()[-1])
        if not info["kernel"]:
            raise RuntimeError(f"kernel build failed: {info['kernel_error']}")
        return info["load_s"]
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def fill_all_s(topo, routing) -> float:
    """A fresh RouteCache filled for every ordered router pair."""
    from repro.routing.cache import RouteCache

    t = time.perf_counter()
    cache = RouteCache(topo, routing.cache.vc_policy)
    routers = range(topo.num_routers)
    for s in routers:
        for d in routers:
            if s != d:
                cache.minimal_fill(s, d)
                cache.leg_fill(s, d)
    return time.perf_counter() - t


def kernel_layers(engine) -> dict:
    """Per-opcode, per-escape and fast-path counts of a kernel run.

    The object engine has no kernel: its counts read 0.
    """
    stats = engine.kernel_stats() if hasattr(engine, "kernel_stats") else {}
    ops = stats.get("op_counts", {})
    esc = stats.get("escapes", {})
    fast = stats.get("fast_path", {})
    out = {f"kernel.op.{op}": ops.get(op, 0) for op in OPS}
    out.update({f"kernel.esc.{e}.n": esc.get(e, {}).get("count", 0)
                for e in ESCAPES})
    out.update({f"kernel.fast.{f}.n": fast.get(f, {}).get("count", 0)
                for f in FAST})
    fast_n = sum(out[f"kernel.fast.{f}.n"] for f in FAST)
    slow_n = sum(out[f"kernel.esc.{f}.n"] for f in FAST)
    out["kernel.fast_frac"] = fast_n / (fast_n + slow_n) if fast_n + slow_n else 0.0
    run_ns = stats.get("run_ns", 0.0)
    out["kernel.escape_frac"] = stats.get("escape_ns", 0.0) / run_ns if run_ns else 0.0
    return out


def run_rep(spec: dict) -> dict:
    tracer = Tracer(spec["workload"], spec.get("rep", 0),
                    enabled=bool(spec.get("trace")))
    span = tracer.span
    clock = time.perf_counter
    seed = spec["seed"]
    with span("import"):
        from repro.routing import UGALRouting
        from repro.sim import Network, SimConfig
        from repro.topology import SlimFly
        from repro.traffic import UniformRandom
        from repro.workload import build_workload

    t = clock()
    with span("repro.topology"):
        topo = SlimFly(spec["q"])
    t_topo = clock()
    with span("repro.routing"):
        routing = UGALRouting(topo, seed=seed)
    t_routing = clock()
    with span("repro.workload"):
        if spec["kind"] == "open":
            work = UniformRandom(topo.num_nodes)
        else:
            work = build_workload("halo3d", topo.num_nodes,
                                  spec["message_bytes"])
    t_work = clock()
    config = SimConfig(backend=spec["backend"],
                       faults=tuple(spec.get("faults", ())),
                       fault_policy="reroute")
    with span("repro.sim"):
        net = Network(topo, routing, config)
    t_net = clock()
    setup_s = t_net - T0

    # The event loop is the engine's run(); its span is named after the
    # engine's module, so the object and kernel loops are told apart.
    # The object engine has __slots__, so the wrapper goes on the class
    # (this process runs one rep, so nothing else sees it).
    engine = net.engine
    engine_cls = type(engine)
    loop_name = engine_cls.__module__
    if tracer.enabled:
        inner = engine_cls.run

        def timed_run(self, *args, **kwargs):
            with span(loop_name):
                return inner(self, *args, **kwargs)

        engine_cls.run = timed_run

    errors = []
    with span("repro.sim.run"):
        t_run = clock()
        if spec["kind"] == "open":
            stats = net.run_synthetic(
                work, load=spec["load"], warmup_ns=spec["warmup_ns"],
                measure_ns=spec["measure_ns"], seed=seed + 1000,
            )
        else:
            result = net.run_workload(work)
        run_s = clock() - t_run

    with span("bench.check"):
        if net.backend_in_use != spec["backend"]:
            errors.append(f"ran on {net.backend_in_use!r}, not "
                          f"{spec['backend']!r}")
        if spec["kind"] == "open":
            # The WindowStats fields, serialised as the conformance
            # goldens serialise them.
            payload = {name: getattr(stats, name) for name in stats.__slots__}
            delivered = net.stats.ejected_total
            if not 0 < delivered <= net.stats.injected_total:
                errors.append(f"delivered {delivered} of "
                              f"{net.stats.injected_total} injected")
            if not stats.ejected_packets or not stats.throughput:
                errors.append("empty measurement window")
        else:
            # Everything but the host-time fields.  An exchange that did
            # not complete has already failed the rep: run_workload raises.
            payload = {k: v for k, v in result.items()
                       if k not in ("driver_wall_s", "events")}
            delivered = result["packets"]
            if result["fault_events"] != spec["expected_faults"]:
                errors.append(f"{result['fault_events']} of "
                              f"{spec['expected_faults']} faults fired")
            if result["fault_dropped"]:
                errors.append(f"{result['fault_dropped']} packets dropped "
                              f"under the reroute policy")
        fingerprint = digest(payload)

    out = {
        "fingerprint": fingerprint,
        "errors": errors,
        "delivered": delivered,
        "setup_s": setup_s,
        "run_s": run_s,
        "backend_in_use": net.backend_in_use,
    }
    if tracer.enabled:
        loop_s = sum(s["end"] - s["start"] for s in tracer.spans
                     if s["name"] == loop_name)
        cache_stats = routing.cache.stats()
        layers = {
            "topology.build_s": t_topo - t,
            "routing.init_s": t_routing - t_topo,
            "workload.build_s": t_work - t_routing,
            "workload.messages": len(getattr(work, "messages", ())),
            "sim.network_s": t_net - t_work,
            "sim.run_s": run_s,
            "sim.loop_s": loop_s,
            "sim.outside_loop_s": run_s - loop_s,
            "sim.events": engine.events_executed,
            "routing.cache.minimal_pairs": cache_stats["minimal_pairs"],
            "routing.cache.composed_routes": cache_stats["composed_routes"],
        }
        layers.update(kernel_layers(engine))
        faults = net.fault_manager.summary() if net.fault_manager else {}
        layers["resilience.fault_events"] = faults.get("events_fired", 0)
        layers["resilience.reroutes"] = faults.get("reroutes", 0)
        layers["resilience.dropped"] = faults.get("dropped", 0)
        with span("repro.routing.cache"):
            layers["routing.fill_all_s"] = fill_all_s(topo, routing)
        with span("repro.sim.vec.kernel.build"):
            layers["kernel.build_s"] = kernel_build_s(spec["tmp"])
        out["layers"] = layers
        with span("teardown"):
            # Free the network here, under a span, not unseen at exit: on
            # the 3k-node instance that takes a tenth of the child's wall
            # time.
            del net, engine, routing, topo, work
            gc.collect()
        out["spans"] = tracer.spans
    else:
        # No metric times the teardown, so an untraced rep keeps the
        # network alive and main() exits without freeing it.
        _KEEP.append(net)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


#: What an untraced rep leaves for the operating system to reclaim.
_KEEP = []


def main() -> int:
    spec = json.loads(sys.argv[1])
    out = prewarm() if spec.get("mode") == "prewarm" else run_rep(spec)
    print(json.dumps(out), flush=True)
    if _KEEP:
        os._exit(0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
