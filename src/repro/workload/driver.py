"""Closed-loop workload execution through the flit-level simulator.

:class:`WorkloadDriver` releases a :class:`~repro.workload.dag.Workload`
into a :class:`~repro.sim.Network`: root messages are submitted by the
run's first event, at time zero, and every subsequent message enters
its source NIC the moment the last packet of its last dependency is
ejected at the destination.  The
network counts each message's packets down
(:meth:`Network.watch_messages`) and calls the driver once per completed
message -- on the kernel from its C delivery path, with no Python call
per packet.  Releasing a message hands it to its source NIC whole, as
one queue entry (``submit``).  This is the closed-loop dual of
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
from typing import Any, Dict, List, Optional

from repro.sim.network import Network
from repro.workload.dag import Message, Workload

__all__ = ["WorkloadDriver", "run_workload"]


class WorkloadDriver:
    """Drives one workload through one (fresh) network instance."""

    def __init__(self, net: Network, workload: Workload):
        workload.validate(num_nodes=net.topology.num_nodes)
        self.net = net
        self.workload = workload
        # Mutable DAG execution state.
        self._deps_left: Dict[int, int] = {}
        self._dependents = workload.dependents()
        self._complete_ns: Dict[int, float] = {}
        self._released = 0
        # Per-phase accounting.
        self._phase_done_ns: Dict[str, float] = {}
        self._phase_msgs_left: Dict[str, int] = {}

    # -- release / completion machinery -------------------------------------

    def _release(self, msg: Message) -> None:
        """Submit *msg* to its source NIC (or complete it instantly if
        local)."""
        self._released += 1
        if msg.is_local:
            # Control-only edge: completes at release time, but via the
            # event queue so dependents observe a consistent clock.
            self.net.engine.schedule(0.0, self._complete, msg.mid)
            return
        self.net.nics[msg.src].submit(msg.dst, msg.size, msg.mid)

    def _complete(self, mid: int) -> None:
        """Message *mid* finished: its last packet was delivered (the
        network's countdown calls this) or, if local, it was released."""
        msg = self.workload.messages[mid]
        now = self.net.engine.now
        self._complete_ns[mid] = now
        self._phase_msgs_left[msg.phase] -= 1
        if self._phase_msgs_left[msg.phase] == 0:
            self._phase_done_ns[msg.phase] = now
        for dep_mid in self._dependents[msg.mid]:
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
        for msg in self.workload:
            self._deps_left[msg.mid] = len(msg.deps)
            packets.append(0 if msg.is_local else -(-msg.size // pkt_bytes))
            self._phase_msgs_left[msg.phase] = (
                self._phase_msgs_left.get(msg.phase, 0) + 1
            )
            if not msg.deps:
                roots.append(msg)

        def release_roots() -> None:
            for msg in roots:
                self._release(msg)

        # The roots go out from the run's first event, at time 0.
        net._claim_experiment(release_roots)
        net.stats.set_window(0.0, None)
        net.watch_messages(packets, self._complete)
        events = net.engine.run(max_events=max_events)
        wall_s = time.perf_counter() - wall_start

        if len(self._complete_ns) != self.workload.num_messages:
            done = len(self._complete_ns)
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

        completion = max(self._complete_ns.values())
        # Finite runs measure utilization over the whole schedule, so
        # net.channel_utilization() works without an explicit window.
        if completion > 0:
            net.utilization_window = completion
        cp = self.workload.critical_path()
        ideal = cp.ideal_ns(net.config)
        total_bytes = self.workload.total_bytes
        rate = net.config.link_bandwidth_gbps / 8.0  # bytes per ns
        n = net.topology.num_nodes
        skew = self._link_skew(completion)
        phase_kinds: Dict[str, Dict[str, int]] = {}
        delivered = 0
        for (mid, kind), count in net.message_kinds().items():
            kinds = phase_kinds.setdefault(self.workload.messages[mid].phase, {})
            kinds[kind] = kinds.get(kind, 0) + count
            delivered += count
        phases = {
            phase: {
                "messages": count_total,
                "done_ns": self._phase_done_ns[phase],
                "kind_counts": phase_kinds.get(phase, {}),
            }
            for phase, count_total in _phase_sizes(self.workload).items()
        }
        result = {
            "workload": self.workload.name,
            "completion_ns": completion,
            "messages": self.workload.num_messages,
            "packets": delivered,
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


def _phase_sizes(workload: Workload) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for msg in workload:
        out[msg.phase] = out.get(msg.phase, 0) + 1
    return out


def run_workload(
    net: Network, workload: Workload, max_events: Optional[int] = None
) -> Dict[str, Any]:
    """Convenience wrapper: drive *workload* through *net* to completion."""
    return WorkloadDriver(net, workload).run(max_events=max_events)
