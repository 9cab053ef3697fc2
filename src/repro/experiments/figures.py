"""Per-figure reproduction experiments.

One function per table/figure of the paper (see DESIGN.md §3 for the
index).  Each returns a plain-data dict -- inputs, measured series and a
rendered ASCII table under ``"report"`` -- so the benchmark harness can
regenerate and print the paper's artefacts.

All simulation-based figures accept a ``scale`` preset (``"tiny"`` /
``"small"`` / ``"paper"``; DESIGN.md §4 explains the reduced-scale
substitution) plus overridable load grids, so quick runs and full
reproductions share one code path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.analysis import (
    bisection_bandwidth,
    channel_loads_minimal,
    path_diversity_stats,
    permutation_flows,
    saturation_throughput,
    scalability_points,
)
from repro.analysis.cost import COST_TABLE
from repro.experiments.configs import ExperimentConfig, configs_for_scale, windows_for_scale
from repro.experiments.report import ascii_table
from repro.experiments.runner import SweepPoint, saturation_point
from repro.experiments.specs import Spec
from repro.topology import MLFM, OFT, SlimFly, ml3b_table
from repro.traffic import paper_torus_dims, worst_case_traffic

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.orchestrate import Job, Orchestrator

__all__ = [
    "table2_data",
    "fig3_data",
    "fig4_data",
    "fig5_data",
    "fig6_data",
    "fig7_data",
    "fig8_data",
    "fig9_data",
    "fig10_data",
    "fig11_data",
    "fig12_data",
    "fig13_data",
    "fig14_data",
    "diversity_data",
    "tail_effects_data",
    "collectives_data",
]

UNI_LOADS = (0.2, 0.5, 0.8, 0.95)
WC_LOADS = (0.05, 0.1, 0.2, 0.35, 0.5)


# --------------------------------------------------------------------------
# Table 2 and the analytic figures (no simulation).
# --------------------------------------------------------------------------


def table2_data() -> Dict:
    """Table 2: the tabular representation of the 4-ML3B."""
    table = ml3b_table(4)
    rows = [[i] + [int(v) for v in table[i]] for i in range(table.shape[0])]
    return {
        "table": table,
        "report": ascii_table(
            ["i"] + [f"j{c}" for c in range(table.shape[1])],
            rows,
            title="Table 2: 4-ML3B (j s.t. (1,j) and (0,i) are connected)",
        ),
    }


def fig3_data(max_radix: int = 64) -> Dict:
    """Fig. 3: scale vs router radix, plus the cost table."""
    families = ("2D HyperX", "Slim Fly", "2-lvl Fat-Tree", "3-lvl Fat-Tree", "MLFM", "OFT")
    family_keys = {"2D HyperX": "HyperX2D", "Slim Fly": "SF", "2-lvl Fat-Tree": "FT2",
                   "3-lvl Fat-Tree": "FT3", "MLFM": "MLFM", "OFT": "OFT"}
    points = {name: scalability_points(family_keys[name], max_radix) for name in families}
    best = {name: max((n for _, n in pts), default=0) for name, pts in points.items()}
    rows = []
    for name in families:
        info = COST_TABLE[name]
        rows.append(
            [name, info["diameter"], info["scale"], info["links_per_node"],
             info["ports_per_node"], best[name]]
        )
    return {
        "points": points,
        "best_at_radix": best,
        "report": ascii_table(
            ["topology", "diam", "scale", "Nl/N", "Np/N", f"N @ r<={max_radix}"],
            rows,
            title=f"Fig. 3: scale and cost of low-diameter topologies (radix <= {max_radix})",
        ),
    }


def fig4_data(scale: str = "tiny", restarts: int = 6, seed: int = 0) -> Dict:
    """Fig. 4: approximate per-end-node bisection bandwidth vs size."""
    sizes = {
        "tiny": {"q": (5, 7), "h": (5, 7), "k": (4, 6)},
        "small": {"q": (5, 7, 9, 11), "h": (5, 7, 9, 11), "k": (4, 6, 8)},
        "paper": {"q": (5, 7, 9, 11, 13), "h": (5, 7, 9, 11, 15), "k": (4, 6, 8, 12)},
    }[scale]
    rows = []
    results = []
    for q in sizes["q"]:
        for p_mode in ("floor", "ceil"):
            topo = SlimFly(q, p_mode)
            bb = bisection_bandwidth(topo, restarts=restarts, seed=seed)
            results.append(bb)
            rows.append([bb.topology, topo.num_nodes, bb.cut_links, bb.per_node])
    for h in sizes["h"]:
        topo = MLFM(h)
        bb = bisection_bandwidth(topo, restarts=restarts, seed=seed)
        results.append(bb)
        rows.append([bb.topology, topo.num_nodes, bb.cut_links, bb.per_node])
    for k in sizes["k"]:
        topo = OFT(k)
        bb = bisection_bandwidth(topo, restarts=restarts, seed=seed)
        results.append(bb)
        rows.append([bb.topology, topo.num_nodes, bb.cut_links, bb.per_node])
    return {
        "results": results,
        "report": ascii_table(
            ["topology", "N", "cut links", "bisection b/node"],
            rows,
            title="Fig. 4: approximate bisection bandwidth (multilevel partitioner)",
        ),
    }


def fig5_data(scale: str = "tiny", seed: int = 0) -> Dict:
    """Fig. 5: the SF worst-case construction and its link overload.

    Validates that the greedy distance-2 pairing produces overlapping
    routes whose most-loaded link carries ``2p`` flows, i.e. analytic
    saturation ``1/(2p)``.
    """
    q = {"tiny": 5, "small": 7, "paper": 13}[scale]
    topo = SlimFly(q, "floor")
    wc = worst_case_traffic(topo, seed=seed)
    loads = channel_loads_minimal(topo, permutation_flows(wc.destinations))
    max_load = max(loads.values())
    sat = saturation_throughput(loads)
    rows = [[topo.name, topo.p, max_load, 2 * topo.p, sat, 1.0 / (2 * topo.p)]]
    return {
        "topology": topo.name,
        "max_link_load": max_load,
        "saturation": sat,
        "expected_saturation": 1.0 / (2 * topo.p),
        "report": ascii_table(
            ["topology", "p", "max link load", "2p", "analytic sat", "1/(2p)"],
            rows,
            title="Fig. 5: SF worst-case pairing (overlapping distance-2 routes)",
        ),
    }


# --------------------------------------------------------------------------
# Simulation figures.
# --------------------------------------------------------------------------


# Every simulated point is a repro.orchestrate Job built from a config's
# specs, and every figure runs its jobs through repro.orchestrate.run_jobs:
# inline when no orchestrator is given, as one cached, parallel campaign
# when one is.  repro.orchestrate imports this package, hence the
# function-level imports below.


def _sweep_points(
    jobs: Sequence["Job"], orchestrator: Optional["Orchestrator"]
) -> Dict[str, List[SweepPoint]]:
    """Run sweep *jobs*; their points grouped by tag (one per sweep), in job order."""
    from repro.orchestrate import run_jobs

    by_tag: Dict[str, List[SweepPoint]] = {}
    for job, result in zip(jobs, run_jobs(jobs, orchestrator)):
        by_tag.setdefault(job.tag, []).append(result.sweep_point())
    return by_tag


def _patterns(uni_loads: Sequence[float], wc_loads: Sequence[float], seed: int):
    """Figs. 6-12's traffic: (label, pattern spec, load grid) per pattern."""
    return (
        ("UNI", ("uniform", {}), uni_loads),
        ("WC", ("worstcase", {"seed": seed}), wc_loads),
    )


def fig6_data(
    scale: str = "tiny",
    uni_loads: Sequence[float] = UNI_LOADS,
    wc_loads: Sequence[float] = WC_LOADS,
    seed: int = 0,
    configs: Optional[Sequence[ExperimentConfig]] = None,
    orchestrator: Optional["Orchestrator"] = None,
) -> Dict:
    """Fig. 6: oblivious routing (MIN / INR) under uniform and worst-case.

    Reports throughput per offered load and the saturation point of
    every (config, routing, pattern) combination.  With *orchestrator*,
    the 16 sweeps run as one parallel, cached campaign.
    """
    from repro.orchestrate import sweep_jobs

    configs = list(configs) if configs is not None else configs_for_scale(scale)
    windows = windows_for_scale(scale)
    jobs: List["Job"] = []
    for config in configs:
        for rname in ("MIN", "INR"):
            for pname, pattern, loads in _patterns(uni_loads, wc_loads, seed):
                jobs += sweep_jobs(
                    config.spec, config.routing_spec(rname), pattern, loads,
                    warmup_ns=windows.warmup_ns, measure_ns=windows.measure_ns,
                    seed=seed, tag=f"{config.key}/{rname}/{pname}",
                )
    rows: List[List[object]] = []
    saturations: Dict[str, float] = {}
    for key, points in _sweep_points(jobs, orchestrator).items():
        saturations[key] = saturation_point(points)
        config_key, rname, pname = key.split("/")
        for p in points:
            rows.append([config_key, rname, pname, p.load, p.throughput, p.mean_latency_ns])
    return {
        "rows": rows,
        "saturations": saturations,
        "report": ascii_table(
            ["config", "routing", "pattern", "load", "throughput", "latency ns"],
            rows,
            title="Fig. 6: oblivious routing under uniform and worst-case traffic",
        ),
    }


def _adaptive_parameter_figure(
    config: ExperimentConfig,
    title: str,
    vary: str,
    values: Sequence[float],
    fixed: Dict[str, object],
    threshold: Optional[float],
    scale: str,
    uni_loads: Sequence[float],
    wc_loads: Sequence[float],
    seed: int,
    orchestrator: Optional["Orchestrator"] = None,
) -> Dict:
    """Shared engine of Figs. 7-12: UGAL parameter sensitivity sweeps."""
    from repro.orchestrate import sweep_jobs

    windows = windows_for_scale(scale)
    jobs: List["Job"] = []
    for value in values:
        routing = config.routing_spec(
            "ugal", **dict(fixed, **{vary: value, "threshold": threshold})
        )
        for pname, pattern, loads in _patterns(uni_loads, wc_loads, seed):
            jobs += sweep_jobs(
                config.spec, routing, pattern, loads,
                warmup_ns=windows.warmup_ns, measure_ns=windows.measure_ns,
                seed=seed, tag=f"{config.key}/{vary}={value:g}/{pname}",
            )
    rows: List[List[object]] = []
    for key, points in _sweep_points(jobs, orchestrator).items():
        _, label, pname = key.split("/")
        for p in points:
            rows.append([config.key, label, pname, p.load, p.throughput,
                         p.mean_latency_ns, p.indirect_fraction])
    return {
        "rows": rows,
        "report": ascii_table(
            ["config", "param", "pattern", "load", "throughput", "latency ns", "indirect frac"],
            rows,
            title=title,
        ),
    }


def _config_by_key(scale: str, key: str) -> ExperimentConfig:
    for config in configs_for_scale(scale):
        if config.key == key:
            return config
    raise KeyError(key)


def fig7_data(scale="tiny", uni_loads=UNI_LOADS, wc_loads=WC_LOADS, seed=0,
              orchestrator=None,
              ni_values=(1, 2, 4), csf_values=(0.5, 1.0, 2.0)) -> Dict:
    """Fig. 7: SF-A sensitivity to nI (cSF = 1) and cSF (nI = 4)."""
    config = _config_by_key(scale, "sf-floor")
    part_a = _adaptive_parameter_figure(
        config, "Fig. 7a: SF-A varying nI (cSF=1)", "num_indirect", ni_values,
        {"cost_mode": "sf", "c_sf": 1.0}, None, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    part_b = _adaptive_parameter_figure(
        config, "Fig. 7b: SF-A varying cSF (nI=4)", "c_sf", csf_values,
        {"cost_mode": "sf", "num_indirect": 4}, None, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    return {"a": part_a, "b": part_b, "report": part_a["report"] + "\n\n" + part_b["report"]}


def fig8_data(scale="tiny", uni_loads=UNI_LOADS, wc_loads=WC_LOADS, seed=0,
              orchestrator=None,
              ni_values=(1, 2, 4), csf_values=(0.5, 1.0, 2.0), threshold=0.10) -> Dict:
    """Fig. 8: SF-ATh (T = 10%) sensitivity to nI and cSF."""
    config = _config_by_key(scale, "sf-floor")
    part_a = _adaptive_parameter_figure(
        config, f"Fig. 8a: SF-ATh varying nI (cSF=1, T={threshold:.0%})",
        "num_indirect", ni_values, {"cost_mode": "sf", "c_sf": 1.0},
        threshold, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    part_b = _adaptive_parameter_figure(
        config, f"Fig. 8b: SF-ATh varying cSF (nI=4, T={threshold:.0%})",
        "c_sf", csf_values, {"cost_mode": "sf", "num_indirect": 4},
        threshold, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    return {"a": part_a, "b": part_b, "report": part_a["report"] + "\n\n" + part_b["report"]}


def fig9_data(scale="tiny", uni_loads=UNI_LOADS, wc_loads=WC_LOADS, seed=0,
              orchestrator=None,
              ni_values=(1, 2, 5), c_values=(1.0, 2.0, 4.0)) -> Dict:
    """Fig. 9: MLFM-A sensitivity to nI (c = 2) and c (nI = 5)."""
    config = _config_by_key(scale, "mlfm")
    part_a = _adaptive_parameter_figure(
        config, "Fig. 9a: MLFM-A varying nI (c=2)", "num_indirect", ni_values,
        {"cost_mode": "const", "c": 2.0}, None, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    part_b = _adaptive_parameter_figure(
        config, "Fig. 9b: MLFM-A varying c (nI=5)", "c", c_values,
        {"cost_mode": "const", "num_indirect": 5}, None, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    return {"a": part_a, "b": part_b, "report": part_a["report"] + "\n\n" + part_b["report"]}


def fig10_data(scale="tiny", uni_loads=UNI_LOADS, wc_loads=WC_LOADS, seed=0,
              orchestrator=None,
               ni_values=(1, 2, 5), c_values=(1.0, 2.0, 4.0)) -> Dict:
    """Fig. 10: OFT-A sensitivity to nI (c = 2) and c (nI = 1)."""
    config = _config_by_key(scale, "oft")
    part_a = _adaptive_parameter_figure(
        config, "Fig. 10a: OFT-A varying nI (c=2)", "num_indirect", ni_values,
        {"cost_mode": "const", "c": 2.0}, None, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    part_b = _adaptive_parameter_figure(
        config, "Fig. 10b: OFT-A varying c (nI=1)", "c", c_values,
        {"cost_mode": "const", "num_indirect": 1}, None, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    return {"a": part_a, "b": part_b, "report": part_a["report"] + "\n\n" + part_b["report"]}


def fig11_data(scale="tiny", uni_loads=UNI_LOADS, wc_loads=WC_LOADS, seed=0,
              orchestrator=None,
               ni_values=(1, 2, 5), c_values=(1.0, 2.0, 4.0), threshold=0.10) -> Dict:
    """Fig. 11: MLFM-ATh (T = 10%) sensitivity to nI and c."""
    config = _config_by_key(scale, "mlfm")
    part_a = _adaptive_parameter_figure(
        config, f"Fig. 11a: MLFM-ATh varying nI (c=2, T={threshold:.0%})",
        "num_indirect", ni_values, {"cost_mode": "const", "c": 2.0},
        threshold, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    part_b = _adaptive_parameter_figure(
        config, f"Fig. 11b: MLFM-ATh varying c (nI=5, T={threshold:.0%})",
        "c", c_values, {"cost_mode": "const", "num_indirect": 5},
        threshold, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    return {"a": part_a, "b": part_b, "report": part_a["report"] + "\n\n" + part_b["report"]}


def fig12_data(scale="tiny", uni_loads=UNI_LOADS, wc_loads=WC_LOADS, seed=0,
              orchestrator=None,
               ni_values=(1, 2, 5), c_values=(1.0, 2.0, 4.0), threshold=0.10) -> Dict:
    """Fig. 12: OFT-ATh (T = 10%) sensitivity to nI and c."""
    config = _config_by_key(scale, "oft")
    part_a = _adaptive_parameter_figure(
        config, f"Fig. 12a: OFT-ATh varying nI (c=2, T={threshold:.0%})",
        "num_indirect", ni_values, {"cost_mode": "const", "c": 2.0},
        threshold, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    part_b = _adaptive_parameter_figure(
        config, f"Fig. 12b: OFT-ATh varying c (nI=1, T={threshold:.0%})",
        "c", c_values, {"cost_mode": "const", "num_indirect": 1},
        threshold, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    return {"a": part_a, "b": part_b, "report": part_a["report"] + "\n\n" + part_b["report"]}


def _exchange_results(
    configs: Sequence[ExperimentConfig],
    exchange: Spec,
    seed: int,
    orchestrator: Optional["Orchestrator"],
) -> Dict[str, Dict[str, float]]:
    """Figs. 13/14 engine: one finite exchange per config under MIN, INR
    and ADAPT; the :func:`~repro.experiments.runner.run_exchange` result
    per ``config/routing`` key, in that order."""
    from repro.orchestrate import exchange_job, run_jobs

    jobs = [
        exchange_job(config.spec, config.routing_spec(rname), exchange, seed=seed,
                     tag=f"{config.key}/{rname}")
        for config in configs
        for rname in ("MIN", "INR", "ADAPT")
    ]
    return {job.tag: res.payload for job, res in zip(jobs, run_jobs(jobs, orchestrator))}


def fig13_data(scale: str = "tiny", seed: int = 0,
               configs: Optional[Sequence[ExperimentConfig]] = None,
               orchestrator: Optional["Orchestrator"] = None) -> Dict:
    """Fig. 13: effective throughput of one all-to-all exchange."""
    configs = list(configs) if configs is not None else configs_for_scale(scale)
    windows = windows_for_scale(scale)
    exchange = ("a2a", {"message_bytes": windows.a2a_message_bytes, "seed": seed})
    rows: List[List[object]] = []
    results: Dict[str, float] = {}
    for key, res in _exchange_results(configs, exchange, seed, orchestrator).items():
        eff = res["effective_throughput"]
        results[key] = eff
        config_key, rname = key.split("/")
        rows.append([config_key, rname, eff, res["completion_ns"]])
    return {
        "results": results,
        "rows": rows,
        "report": ascii_table(
            ["config", "routing", "effective throughput", "completion ns"],
            rows,
            title="Fig. 13: effective throughput, one all-to-all exchange",
        ),
    }


def fig14_data(scale: str = "tiny", seed: int = 0,
               configs: Optional[Sequence[ExperimentConfig]] = None,
               orchestrator: Optional["Orchestrator"] = None) -> Dict:
    """Fig. 14: effective throughput of one nearest-neighbour exchange."""
    configs = list(configs) if configs is not None else configs_for_scale(scale)
    windows = windows_for_scale(scale)
    dims_of = {config.key: paper_torus_dims(config.topology()) for config in configs}
    exchange = ("nn", {"message_bytes": windows.nn_message_bytes})
    rows: List[List[object]] = []
    results: Dict[str, float] = {}
    for key, res in _exchange_results(configs, exchange, seed, orchestrator).items():
        eff = res["effective_throughput"]
        results[key] = eff
        config_key, rname = key.split("/")
        dims = dims_of[config_key]
        rows.append([config_key, f"{dims[0]}x{dims[1]}x{dims[2]}", rname, eff])
    return {
        "results": results,
        "rows": rows,
        "report": ascii_table(
            ["config", "torus", "routing", "effective throughput"],
            rows,
            title="Fig. 14: effective throughput, nearest-neighbour exchange",
        ),
    }


def tail_effects_data(scale: str = "tiny", seed: int = 0,
                      configs: Optional[Sequence[ExperimentConfig]] = None) -> Dict:
    """Sec. 4.4's tail-effect argument, quantified.

    The paper argues that the A2A effective throughput being "almost
    identical to the steady state throughput is a strong indicator that
    tail effects are negligible".  This experiment measures both sides:
    the steady-state uniform throughput under minimal routing at high
    offered load, and the A2A effective throughput, and reports their
    ratio per configuration.
    """
    from repro.orchestrate import exchange_job, run_jobs, sweep_jobs

    configs = list(configs) if configs is not None else configs_for_scale(scale)
    windows = windows_for_scale(scale)
    exchange = ("a2a", {"message_bytes": windows.a2a_message_bytes, "seed": seed})
    jobs: List["Job"] = []
    for config in configs:
        routing = config.routing_spec("min")
        jobs += sweep_jobs(config.spec, routing, ("uniform", {}), [0.95],
                           warmup_ns=windows.warmup_ns, measure_ns=windows.measure_ns,
                           seed=seed, tag=config.key)
        jobs.append(exchange_job(config.spec, routing, exchange, seed=seed, tag=config.key))
    payloads = [result.payload for result in run_jobs(jobs)]
    rows: List[List[object]] = []
    ratios: Dict[str, float] = {}
    for config, steady_res, exchange_res in zip(configs, payloads[::2], payloads[1::2]):
        steady = steady_res["throughput"]
        eff = exchange_res["effective_throughput"]
        ratio = eff / steady
        ratios[config.key] = ratio
        rows.append([config.key, steady, eff, ratio])
    return {
        "ratios": ratios,
        "rows": rows,
        "report": ascii_table(
            ["config", "steady-state thr", "A2A effective thr", "ratio"],
            rows,
            title="Tail effects: steady-state vs finite-exchange throughput (Sec. 4.4)",
        ),
    }


def diversity_data(scale: str = "tiny") -> Dict:
    """Sec. 2.3.3: shortest-path diversity statistics per topology."""
    rows = []
    stats = []
    for config in configs_for_scale(scale):
        topo = config.topology()
        st = path_diversity_stats(topo)
        stats.append(st)
        rows.append([st.topology, st.num_pairs, st.mean, st.max,
                     st.mean_distance2, st.max_distance2])
    return {
        "stats": stats,
        "report": ascii_table(
            ["topology", "pairs", "mean", "max", "mean d2", "max d2"],
            rows,
            title="Sec. 2.3.3: minimal-path diversity between endpoint routers",
        ),
    }


# --------------------------------------------------------------------------
# Collective workloads (repro.workload): closed-loop completion times.
# --------------------------------------------------------------------------


def collectives_data(scale: str = "tiny", seed: int = 0,
                     collective: str = "ring-allreduce",
                     sizes: Optional[Sequence[int]] = None,
                     routings: Sequence[str] = ("MIN", "ADAPT"),
                     configs: Optional[Sequence[ExperimentConfig]] = None,
                     orchestrator: Optional["Orchestrator"] = None) -> Dict:
    """Collective completion time vs message size, per topology x routing.

    The closed-loop counterpart of Figs. 13/14: instead of a one-shot
    exchange's effective throughput, this measures how long a
    dependency-DAG collective (default: ring all-reduce over all nodes)
    takes to *complete* as the vector size grows -- the metric that
    separates low-diameter topologies on real workloads.  Also reports
    the DAG critical-path bound, the contention stretch (measured /
    bound) and the observed link-load skew.
    """
    from repro.orchestrate import run_jobs, workload_job

    configs = list(configs) if configs is not None else configs_for_scale(scale)
    if sizes is None:
        # Span latency-bound through bandwidth-bound regimes.  Ring
        # chunks are size/R bytes, so sizes must straddle multiples of
        # R * packet_bytes or adjacent points collapse onto the same
        # per-step packet count (and hence identical completion times).
        n = max(c.topology().num_nodes for c in configs)
        step = n * 256  # one extra packet per ring step
        sizes = (step // 2, 2 * step, 8 * step)
    jobs = [
        workload_job(config.spec, config.routing_spec(rname),
                     (collective, {"message_bytes": int(size)}), seed=seed,
                     tag=f"{config.key}/{rname}/B{size}")
        for config in configs
        for rname in routings
        for size in sizes
    ]
    rows: List[List[object]] = []
    results: Dict[str, Dict[str, object]] = {}
    for job, result in zip(jobs, run_jobs(jobs, orchestrator)):
        res = result.payload
        results[job.tag] = res
        config_key, rname, blabel = job.tag.split("/")
        rows.append([
            config_key, rname, int(blabel[1:]), res["completion_ns"],
            res["critical_path_ideal_ns"], res["contention_stretch"],
            res["link_load_skew"],
        ])
    return {
        "collective": collective,
        "sizes": list(int(s) for s in sizes),
        "results": results,
        "rows": rows,
        "report": ascii_table(
            ["config", "routing", "msg bytes", "completion ns",
             "critical path ns", "stretch", "link skew"],
            rows,
            title=f"Collective completion time: {collective} (closed loop)",
        ),
    }
