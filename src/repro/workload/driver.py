"""Closed-loop workload execution through the flit-level simulator.

:class:`WorkloadDriver` releases a :class:`~repro.workload.dag.Workload`
into a :class:`~repro.sim.Network`: root messages are submitted by the
run's first event, at time zero, and every subsequent message enters
its source NIC the moment the last packet of its last dependency is
ejected at the destination.  The network counts each message's packets
down (:meth:`Network.watch_messages`), writes every completion time to
its table, counts the delivered packets per phase and route kind in
another, and calls :class:`WorkloadDriver` only for a completed message
that other messages depend on -- on the kernel from its C delivery
path, so a message that releases nothing costs no Python call at all.
Releasing a message hands it to its source NIC whole, as one queue
entry (``submit``).  The DAG's dependents map and topological order are built
once per run, for the validation, the releases and the critical path.
This is the closed-loop dual of
``run_synthetic``/``run_exchange``: injection is gated by delivery, so
the measured quantity is *schedule completion time*, not sustained rate.

The driver reports, per phase and overall:

- completion time (ns) and effective throughput,
- the DAG critical path (length, bytes, zero-contention bound) and the
  resulting *contention stretch* (measured / bound),
- per-route-kind packet counts (how much of each phase went minimal
  vs. indirect under adaptive routing),
- link-load skew (max / mean router-link utilization over the run).
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Dict, List, Optional

from repro.sim.network import Network
from repro.workload.dag import Message, Workload

__all__ = ["WorkloadDriver", "run_workload"]


class WorkloadDriver:
    """Drives one workload through one (fresh) network instance."""

    def __init__(self, net: Network, workload: Workload):
        self._dependents, self._order = workload._checked_graph(
            num_nodes=net.topology.num_nodes
        )
        self.net = net
        self.workload = workload
        # Mutable DAG execution state: dependencies not yet complete per
        # message, and the countdown's completion-time table.
        self._deps_left: Dict[int, int] = {}
        self._complete_ns = array("d")
        self._released = 0

    # -- release / completion machinery -------------------------------------

    def _release(self, msg: Message) -> None:
        """Submit *msg* to its source NIC (or complete it instantly if
        local)."""
        self._released += 1
        if msg.is_local:
            # Control-only edge: completes at release time, but via the
            # event queue so dependents observe a consistent clock.
            self.net.engine.schedule(0.0, self._complete_local, msg.mid)
            return
        self.net.nics[msg.src].submit(msg.dst, msg.size, msg.mid)

    def _complete_local(self, mid: int) -> None:
        """Local message *mid* completes: the event its release
        scheduled writes its time to the table and releases its
        dependents."""
        self._complete_ns[mid] = self.net.engine.now
        self._complete(mid)

    def _complete(self, mid: int) -> None:
        """Message *mid*, which other messages depend on, finished (the
        network's countdown calls this once its last packet is
        delivered): release every dependent it was the last wait of."""
        for dep_mid in self._dependents[mid]:
            self._deps_left[dep_mid] -= 1
            if self._deps_left[dep_mid] == 0:
                self._release(self.workload.messages[dep_mid])

    # -- the experiment ------------------------------------------------------

    def run(self, max_events: Optional[int] = None) -> Dict[str, Any]:
        """Execute to completion; returns a plain-data result dict."""
        net = self.net
        wall_start = time.perf_counter()

        pkt_bytes = net.config.packet_bytes
        roots: List[Message] = []
        packets: List[int] = []
        # Each message's phase, by index in first-appearance order: the
        # countdown's group, whose row of its kind table is the phase's.
        phase_ids: Dict[str, int] = {}
        groups = array("i")
        for msg in self.workload:
            self._deps_left[msg.mid] = len(msg.deps)
            packets.append(0 if msg.is_local else -(-msg.size // pkt_bytes))
            groups.append(phase_ids.setdefault(msg.phase, len(phase_ids)))
            if not msg.deps:
                roots.append(msg)

        def release_roots() -> None:
            for msg in roots:
                self._release(msg)

        # The roots go out from the run's first event, at time 0.
        net._claim_experiment(release_roots)
        net.stats.set_window(0.0, None)
        self._complete_ns, kinds = net.watch_messages(
            packets, self._dependents.values(), groups, self._complete
        )
        events = net.engine.run(max_events=max_events)
        wall_s = time.perf_counter() - wall_start

        times = self._complete_ns
        done = sum(t >= 0.0 for t in times)
        if done != self.workload.num_messages:
            fm = getattr(net, "fault_manager", None)
            dropped = fm.dropped if fm is not None else 0
            why = (
                f"{dropped} packets dropped at failed links "
                f"(fault_policy='drop' cannot complete a closed-loop "
                f"workload: lost packets are never retransmitted)"
                if dropped
                else "possible deadlock or event-budget exhaustion"
            )
            raise RuntimeError(
                f"workload {self.workload.name!r} incomplete: {done}/"
                f"{self.workload.num_messages} messages finished, "
                f"{self._released - done} in flight ({why})"
            )

        completion = max(times)
        # Finite runs measure utilization over the whole schedule, so
        # net.channel_utilization() works without an explicit window.
        if completion > 0:
            net.utilization_window = completion
        cp = self.workload._critical_path(self._order)
        ideal = cp.ideal_ns(net.config)
        total_bytes = self.workload.total_bytes
        rate = net.config.link_bandwidth_gbps / 8.0  # bytes per ns
        n = net.topology.num_nodes
        skew = self._link_skew(completion)
        # Each phase, in first-appearance order: its messages, when its
        # last one completed and its delivered packets per route kind
        # (its row of the countdown's kind table).
        names = net.stats.kind_names
        width = len(net.stats.kind_totals)
        phases: Dict[str, Dict[str, Any]] = {
            phase: {"messages": 0, "done_ns": 0.0, "kind_counts": {
                kind: count for kind, count
                in zip(names, kinds[g * width:(g + 1) * width]) if count}}
            for g, phase in enumerate(phase_ids)
        }
        by_group = list(phases.values())
        for g, t in zip(groups, times):
            phase = by_group[g]
            phase["messages"] += 1
            phase["done_ns"] = max(phase["done_ns"], t)
        result = {
            "workload": self.workload.name,
            "completion_ns": completion,
            "messages": self.workload.num_messages,
            "packets": sum(kinds),
            "total_bytes": float(total_bytes),
            "effective_throughput": (
                total_bytes / (completion * n * rate) if completion > 0 else 0.0
            ),
            "critical_path_messages": cp.length,
            "critical_path_bytes": cp.bytes,
            "critical_path_ideal_ns": ideal,
            "contention_stretch": completion / ideal if ideal > 0 else 0.0,
            "link_load_max": skew["max"],
            "link_load_mean": skew["mean"],
            "link_load_skew": skew["skew"],
            "phases": phases,
            "events": events,
            "driver_wall_s": wall_s,
        }
        fm = net.fault_manager
        if fm is not None:
            # Degradation metrics (repro.resilience): how the schedule
            # absorbed the injected faults.  Post-fault skew covers the
            # window from the first failure to schedule completion.
            result["fault_events"] = fm.fired
            result["fault_reroutes"] = fm.reroutes
            result["fault_dropped"] = fm.dropped
            result["first_fault_ns"] = fm.first_fault_ns
            post = fm.post_fault_skew(completion)
            if post is not None:
                result["post_fault_link_load_max"] = post["max"]
                result["post_fault_link_load_mean"] = post["mean"]
                result["post_fault_link_load_skew"] = post["skew"]
        return result

    def _link_skew(self, completion_ns: float) -> Dict[str, float]:
        """Max/mean utilization over router-router links for the run."""
        net = self.net
        skew = None
        if completion_ns > 0:
            skew = net.fabric_link_load(net.sent_counts(), completion_ns)
        return skew or {"max": 0.0, "mean": 0.0, "skew": 0.0}


def run_workload(
    net: Network, workload: Workload, max_events: Optional[int] = None
) -> Dict[str, Any]:
    """Convenience wrapper: drive *workload* through *net* to completion."""
    return WorkloadDriver(net, workload).run(max_events=max_events)
