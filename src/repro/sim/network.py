"""Network assembly and experiment drivers.

:class:`Network` wires a :class:`~repro.topology.base.Topology` and a
:class:`~repro.routing.base.RoutingAlgorithm` into a simulated system of
switches and NICs, implements the UGAL-L congestion interface over live
switch state, and offers the two measurement modes of the paper:

- :meth:`Network.run_synthetic` -- rate-driven open-loop traffic with a
  warm-up then a measurement window (Sec. 4.3),
- :meth:`Network.run_exchange` -- a finite exchange simulated to
  completion, reporting effective throughput (Sec. 4.4).
"""

from __future__ import annotations

import random
import warnings
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.routing.base import RoutingAlgorithm
from repro.sim.clock import SimClock
from repro.sim.config import PAPER_CONFIG, SimConfig
from repro.sim.engine import Engine
from repro.sim.nic import NIC
from repro.sim.packet import Packet
from repro.sim.stats import StatsCollector, WindowStats
from repro.sim.switch import OutputPort, Router
from repro.topology.base import Topology

__all__ = ["Network"]


class Network:
    """A simulated instance of (topology, routing, configuration)."""

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm,
        config: SimConfig = PAPER_CONFIG,
    ):
        self.topology = topology
        self.routing = routing
        self.config = config
        self.engine = Engine()
        self.num_vcs = routing.num_vcs
        self.stats = StatsCollector(topology.num_nodes, config)
        self.checker = None  # InvariantChecker when config.check is set
        self.fault_manager = None  # FaultManager when config.faults is set
        self._pid = 0
        # Port-tuple fallback for routes without precompiled ports
        # (legacy ``compiled=False`` algorithms, ad-hoc Route objects);
        # compiled routes carry their hop ports and never touch it.
        self._route_port_cache: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self.tracer = None  # optional PacketTracer (see enable_trace)
        self._vec = None  # KernelEngine when the kernel backend runs
        self._msg_track: Optional[Dict] = None  # per-message tracking (exchanges)
        self._delivery_listeners: list = []  # see add_delivery_listener
        self._experiment_ran = False  # one experiment per Network instance

        vc_capacity = config.buffer_packets_per_vc(self.num_vcs)

        #: Which engine actually runs: ``"kernel"`` when the compiled
        #: kernel was requested (``"batched"`` is a deprecated alias for
        #: it) and loads, otherwise ``"object"``.  Resolved before the
        #: routers are wired, so a checked run that falls back gets the
        #: object engine's per-transition checker.
        self.backend_in_use = self._resolve_backend(config.backend)
        kernel = self.backend_in_use == "kernel"

        # With checking enabled, routers and NICs are built as Checked*
        # subclasses that notify the invariant checker around every
        # transition; the unchecked hot path pays nothing for this.
        # The kernel has no per-transition callbacks to hook, so its
        # checker (repro.sim.vec.check) audits state instead and the
        # plain classes suffice as the wiring template.
        if config.check and not kernel:
            from repro.sim.invariants import CheckedNIC, CheckedRouter

            router_cls, nic_cls = CheckedRouter, CheckedNIC
        else:
            router_cls, nic_cls = Router, NIC

        # Build switches.
        self.routers = []
        for r in range(topology.num_routers):
            deg = topology.degree(r)
            p = topology.nodes_attached(r)
            self.routers.append(router_cls(r, self, deg + p, self.num_vcs))

        # Wire router-to-router channels and ejection ports.  Output
        # queues get the same 100 KB/port/direction provisioning as the
        # input buffers (the "input-output-buffered" architecture).
        for r, router in enumerate(self.routers):
            deg = topology.degree(r)
            for out_idx, neighbor in enumerate(topology.neighbors(r)):
                ds_router = self.routers[neighbor]
                ds_in_idx = topology.port(neighbor, r)
                router.out.append(
                    OutputPort(
                        out_idx, self.num_vcs, vc_capacity, vc_capacity, ds_router, ds_in_idx
                    )
                )
            for local, node in enumerate(topology.nodes_of(r)):
                router.out.append(
                    OutputPort(
                        deg + local, self.num_vcs, vc_capacity, 0, None, -1, eject_node=node
                    )
                )

        # Upstream credit sinks for router inputs, plus the directed
        # channel -> OutputPort table behind the UGAL-L congestion
        # signal (queue_len is called ~nI+1 times per packet; a
        # row-indexed list lookup replaces a topology.port() resolution
        # -- and the tuple-key hashing a dict would pay -- per call).
        n_routers = topology.num_routers
        self._channel_rows: List[List[Optional[OutputPort]]] = [
            [None] * n_routers for _ in range(n_routers)
        ]
        for r, router in enumerate(self.routers):
            row = self._channel_rows[r]
            for out_idx, neighbor in enumerate(topology.neighbors(r)):
                ds_router = self.routers[neighbor]
                ds_in_idx = topology.port(neighbor, r)
                ds_router.in_upstream[ds_in_idx] = router.make_credit_sink(out_idx)
                row[neighbor] = router.out[out_idx]

        # NICs (and their credit sinks at the injection inputs).  The
        # ejection port of each node is fixed by the wiring, so it is
        # precomputed here: make_packet then does one list lookup
        # instead of a degree() + nodes_of().index() scan per packet.
        self.nics = []
        self._eject_ports = []
        for node in range(topology.num_nodes):
            r = topology.router_of(node)
            router = self.routers[r]
            deg = topology.degree(r)
            local = topology.nodes_of(r).index(node)
            nic = nic_cls(node, self, router, deg + local)
            router.in_upstream[deg + local] = nic
            self.nics.append(nic)
            self._eject_ports.append(deg + local)

        if config.check and not kernel:
            from repro.sim.invariants import InvariantChecker

            self.checker = InvariantChecker(self)
            self.checker.attach()

        if kernel:
            # Swap in the compiled kernel.  The object routers and NICs
            # built above stay the wiring's single source of truth (the
            # kernel is built *from* them), but all event execution and
            # all mutable state move into C: the NIC list becomes
            # driver-facing shims over the kernel and UGAL-L's congestion
            # signal reads its per-port counters (instance attribute
            # shadows the class method).
            from repro.sim.vec.kernel import KernelEngine

            self._vec = KernelEngine(self)
            self.engine = self._vec
            self.nics = self._vec.nic_shims
            self.queue_len = self._vec.kernel.queue_len
            if config.check:
                from repro.sim.vec.check import KernelChecker

                self.checker = KernelChecker(self)
                self.checker.attach()

        if config.faults:
            from repro.resilience import FaultManager, FaultSchedule

            self.fault_manager = FaultManager(
                self, FaultSchedule(config.faults), config.fault_policy
            )

        #: Backend-neutral time source; stats code reads ``clock.now``
        #: and the utilization window rather than engine internals.
        self.clock = SimClock(self.engine)

    @staticmethod
    def _resolve_backend(requested: str) -> str:
        """The engine a run gets for *requested* (see ``backend_in_use``)."""
        if requested == "object":
            return "object"
        from repro.sim.vec import kernel as _kernel_mod

        if _kernel_mod.load_kernel() is not None:
            return "kernel"
        warnings.warn(
            f"backend={requested!r} requested but the compiled kernel is "
            f"unavailable ({_kernel_mod.load_error}); falling back to the "
            "object engine",
            RuntimeWarning,
            stacklevel=3,
        )
        return "object"

    @property
    def _utilization_window(self) -> Optional[float]:
        """Measurement window behind ``channel_utilization`` -- kept as
        a compatibility alias; the value lives on :class:`SimClock`."""
        return self.clock.utilization_window

    @_utilization_window.setter
    def _utilization_window(self, value: Optional[float]) -> None:
        self.clock.utilization_window = value

    # -- CongestionContext (UGAL-L's local signal) -----------------------------

    def queue_len(self, router: int, neighbor: int) -> int:
        """Packets queued at *router* for the output toward *neighbor*."""
        return self._channel_rows[router][neighbor].queued

    def queue_capacity(self) -> int:
        """Port buffer capacity in packets (threshold reference)."""
        return self.config.buffer_packets_per_port

    # -- packet construction -------------------------------------------------

    def make_packet(
        self,
        src_node: int,
        dst_node: int,
        size: int,
        msg_id: Optional[int],
        gen_time: float,
    ) -> Packet:
        """Route and materialise one packet (called by the NIC at send time).

        The kernel backend mirrors this method in C for the compiled
        routing implementations (``make_fast`` in
        ``repro/sim/vec/_kernel.c``, golden- and fuzz-gated); changes
        to routing dispatch, packet construction or inject accounting
        here must be reflected there.
        """
        topo = self.topology
        node_router = topo.router_of
        route = self.routing.route(node_router(src_node), node_router(dst_node), self)

        routers = route.routers
        hop_ports = route.ports
        if hop_ports is None:
            hop_ports = self._route_port_cache.get(routers)
            if hop_ports is None:
                hop_ports = tuple(
                    topo.port(routers[i], routers[i + 1]) for i in range(len(routers) - 1)
                )
                self._route_port_cache[routers] = hop_ports

        self._pid += 1
        return Packet(
            pid=self._pid,
            src_node=src_node,
            dst_node=dst_node,
            size=size,
            routers=routers,
            ports=hop_ports + (self._eject_ports[dst_node],),
            vcs=route.vcs,
            kind=route.kind,
            gen_time=gen_time,
            msg_id=msg_id,
        )

    def _claim_experiment(self) -> None:
        """Guard against reusing a Network across experiments.

        Warmed-up buffers, advanced clocks and mixed statistics make a
        second run silently wrong; build a fresh :class:`Network` per
        experiment instead (topologies and configs are reusable).
        """
        if self._experiment_ran:
            raise RuntimeError(
                "this Network already ran an experiment; build a fresh "
                "Network(topology, routing) for the next one"
            )
        self._experiment_ran = True
        if self.fault_manager is not None:
            # Arm before any traffic is scheduled so fault events take
            # the earliest sequence numbers -- identically on both
            # backends (every driver claims before submitting work).
            self.fault_manager.arm()

    def reset_utilization(self) -> None:
        """Zero the per-port transmission counters (called at warm-up end)."""
        if self._vec is not None:
            self._vec.reset_sent()
            return
        for router in self.routers:
            for out in router.out:
                out.sent_packets = 0

    def channel_utilization(self, window_ns: Optional[float] = None) -> Dict:
        """Link-utilization fractions measured since the last reset.

        Returns ``{(u, v): fraction}`` for router-router channels and
        ``{("eject", node): fraction}`` for ejection links.  With
        fixed-size packets the busy time is exactly
        ``sent_packets * serialization``.  ``window_ns`` defaults to the
        last synthetic run's measurement window.
        """
        window = window_ns if window_ns is not None else self.clock.utilization_window
        if window is None or window <= 0:
            raise ValueError("channel_utilization: no measurement window available")
        if self._vec is not None:
            # Cold path: surface the flat counters through the object
            # ports so one loop below serves both backends.
            self._vec.sync_ports()
        ser = self.config.packet_time_ns
        out_map: Dict = {}
        topo = self.topology
        for r, router in enumerate(self.routers):
            neighbors = topo.neighbors(r)
            for idx, out in enumerate(router.out):
                key = (r, neighbors[idx]) if idx < len(neighbors) else ("eject", out.eject_node)
                out_map[key] = out.sent_packets * ser / window
        return out_map

    def enable_trace(self, capacity: int = 10_000, start_ns: float = 0.0):
        """Attach a :class:`repro.sim.trace.PacketTracer`; returns it."""
        from repro.sim.trace import PacketTracer

        self.tracer = PacketTracer(capacity=capacity, start_ns=start_ns)
        return self.tracer

    def add_delivery_listener(self, fn) -> None:
        """Register ``fn(pkt)`` to run on every packet delivery.

        This is the closed-loop hook: a listener observes each ejection
        (with its ``msg_id``) and may submit new traffic in response --
        :class:`repro.workload.driver.WorkloadDriver` uses it to release
        DAG successors the moment their dependencies complete.
        Listeners run after statistics/trace recording, in registration
        order, and must not raise.
        """
        if not callable(fn):
            raise TypeError(f"delivery listener {fn!r} is not callable")
        self._delivery_listeners.append(fn)

    def deliver(self, pkt: Packet) -> None:
        """Final hop: the packet reaches its destination node.

        The kernel backend mirrors the stats accounting in C when no
        observer (tracer, listener, message tracker, checker) is
        attached (``do_deliver`` in ``repro/sim/vec/_kernel.c``,
        flushed via :meth:`StatsCollector.absorb_kernel`); changes
        here must be reflected there.
        """
        pkt.eject_time = self.clock.now
        self.stats.record_eject(pkt)
        if self.tracer is not None:
            self.tracer.record(pkt)
        for listener in self._delivery_listeners:
            listener(pkt)
        if self._msg_track is not None and pkt.msg_id is not None:
            key = (pkt.src_node, pkt.msg_id)
            entry = self._msg_track.get(key)
            if entry is None:
                self._msg_track[key] = [pkt.send_time, pkt.eject_time]
            else:
                if pkt.send_time < entry[0]:
                    entry[0] = pkt.send_time
                if pkt.eject_time > entry[1]:
                    entry[1] = pkt.eject_time

    # -- synthetic (rate-driven) experiments -----------------------------------

    def run_synthetic(
        self,
        pattern,
        load: float,
        warmup_ns: float = 2_000.0,
        measure_ns: float = 10_000.0,
        arrival: str = "poisson",
        seed: int = 0,
        drain: bool = False,
    ) -> WindowStats:
        """Open-loop synthetic traffic experiment (paper Sec. 4.3).

        Every node generates ``packet_bytes`` packets at fraction *load*
        of the link rate with destinations drawn from *pattern*
        (:meth:`pick_destination`), for ``warmup + measure`` ns;
        statistics are computed over the measurement window.

        Set ``drain=True`` to additionally run the network empty after
        generation stops (used by conservation tests).
        """
        if not (0.0 < load <= 1.0):
            raise ValueError(f"load {load} must be in (0, 1]")
        if arrival not in ("poisson", "deterministic"):
            raise ValueError(f"unknown arrival process {arrival!r}")
        self._claim_experiment()
        cfg = self.config
        horizon = warmup_ns + measure_ns
        mean_ia = cfg.packet_time_ns / load
        self.stats.set_window(warmup_ns, horizon)

        if self._vec is not None:
            # Kernel backend: pregenerate every node's injection
            # stream in one pass (identical per-node RNG draws; see
            # KernelEngine.setup_synthetic for the exactness argument).
            self._vec.setup_synthetic(
                pattern, mean_ia, horizon, seed, arrival, cfg.packet_bytes
            )
        else:
            master = random.Random(seed)
            for node in range(self.topology.num_nodes):
                rng = random.Random(master.getrandbits(64))
                phase = rng.uniform(0.0, mean_ia)
                self.engine.schedule_at(
                    phase, self._generate, node, pattern, mean_ia, horizon, rng, arrival
                )
        # Utilization counters measure the post-warm-up window only.
        self.engine.schedule_at(warmup_ns, self.reset_utilization)

        self.engine.run(until=horizon)
        self.clock.utilization_window = measure_ns
        if drain:
            self.engine.run()
        if self.checker is not None:
            if drain:
                self.checker.verify_quiescent()
            else:
                self.checker.audit()
        return self.stats.window_stats()

    def _generate(
        self,
        node: int,
        pattern,
        mean_ia: float,
        until: float,
        rng: random.Random,
        arrival: str,
    ) -> None:
        now = self.engine.now
        if now >= until:
            return
        dst = pattern.pick_destination(node, rng)
        if dst is not None:
            if dst == node:
                raise ValueError(f"pattern sent node {node} traffic to itself")
            self.nics[node].submit(dst, self.config.packet_bytes)
        delay = rng.expovariate(1.0 / mean_ia) if arrival == "poisson" else mean_ia
        self.engine.schedule(delay, self._generate, node, pattern, mean_ia, until, rng, arrival)

    # -- closed-loop workloads -------------------------------------------------

    def run_workload(self, workload, max_events: Optional[int] = None) -> Dict:
        """Drive a dependency-DAG workload to completion (closed loop).

        *workload* is a :class:`repro.workload.Workload`; messages are
        released into the NICs as their dependencies' deliveries are
        observed.  Returns the driver's result dict (completion time,
        critical path, per-phase route kinds, link-load skew); see
        :mod:`repro.workload.driver`.
        """
        from repro.workload.driver import WorkloadDriver  # lazy: avoids cycle

        result = WorkloadDriver(self, workload).run(max_events=max_events)
        if self.checker is not None:
            self.checker.verify_quiescent()
        return result

    # -- finite exchanges ----------------------------------------------------------

    def run_exchange(
        self,
        exchange,
        max_events: Optional[int] = None,
        track_messages: bool = False,
    ) -> Dict[str, float]:
        """Simulate a finite exchange to completion (paper Sec. 4.4).

        *exchange* provides ``node_messages(node) -> iterable of
        (dst_node, size_bytes)`` message descriptors, packetised into
        ``packet_bytes`` units.  If the exchange sets ``interleave =
        True`` (e.g. the nearest-neighbour exchange, which models
        concurrent non-blocking sends to all six neighbours) packets are
        drawn round-robin across the node's messages; otherwise messages
        are sent strictly in order.

        Returns a dict with ``completion_ns``, ``effective_throughput``
        (fraction of injection bandwidth per node), ``total_bytes`` and
        packet counts.  With ``track_messages=True`` it also includes
        per-message completion statistics under ``"messages"`` (count,
        mean/max latency from first packet transmitted to last packet
        delivered).
        """
        self._claim_experiment()
        self.stats.set_window(0.0, None)
        self._msg_track: Optional[Dict] = {} if track_messages else None
        total_bytes = 0
        expected_packets = 0
        pkt_size = self.config.packet_bytes
        interleave = bool(getattr(exchange, "interleave", False))
        for node in range(self.topology.num_nodes):
            messages = list(exchange.node_messages(node))
            for dst, size in messages:
                total_bytes += size
                expected_packets += -(-size // pkt_size)
            if messages:
                source = (
                    _packetize_interleaved(messages, pkt_size)
                    if interleave
                    else _packetize(messages, pkt_size)
                )
                self.nics[node].set_source(source)
        if total_bytes == 0:
            raise ValueError("exchange generated no traffic")

        self.engine.run(max_events=max_events)
        if self.stats.ejected_total != expected_packets:
            raise RuntimeError(
                f"exchange incomplete: {self.stats.ejected_total}/{expected_packets} "
                f"packets delivered (possible deadlock or event-budget exhaustion)"
            )
        if self.checker is not None:
            self.checker.verify_quiescent()
        completion = self.stats.last_eject - self.stats.first_inject
        # Finite runs measure utilization over the whole exchange, so
        # channel_utilization() works without an explicit window --
        # previously it raised after run_exchange/run_workload.
        if completion > 0:
            self.clock.utilization_window = completion
        result: Dict[str, object] = {
            "completion_ns": completion,
            "effective_throughput": self.stats.effective_throughput(total_bytes),
            "total_bytes": float(total_bytes),
            "packets": float(expected_packets),
        }
        if self._msg_track is not None:
            latencies = sorted(
                last_eject - first_send
                for first_send, last_eject in self._msg_track.values()
            )
            count = len(latencies)
            result["messages"] = {
                "count": count,
                "mean_latency_ns": sum(latencies) / count if count else 0.0,
                "p50_latency_ns": latencies[count // 2] if count else 0.0,
                "p99_latency_ns": latencies[min(count - 1, int(count * 0.99))]
                if count
                else 0.0,
                "max_latency_ns": latencies[-1] if count else 0.0,
            }
            self._msg_track = None
        return result


def _packetize(
    messages: Iterable[Tuple[int, int]], packet_bytes: int
) -> Iterator[Tuple[int, int, Optional[int]]]:
    """Split (dst, size) messages into packet descriptors, in order."""
    for msg_id, (dst, size) in enumerate(messages):
        remaining = size
        while remaining > 0:
            chunk = min(packet_bytes, remaining)
            yield (dst, chunk, msg_id)
            remaining -= chunk


def _packetize_interleaved(
    messages: Iterable[Tuple[int, int]], packet_bytes: int
) -> Iterator[Tuple[int, int, Optional[int]]]:
    """Round-robin packets across concurrent messages (non-blocking sends)."""
    remaining = [
        (msg_id, dst, size)
        for msg_id, (dst, size) in enumerate(messages)
        if size > 0  # zero-byte messages emit no packets (matches _packetize)
    ]
    while remaining:
        nxt = []
        for msg_id, dst, size in remaining:
            chunk = min(packet_bytes, size)
            yield (dst, chunk, msg_id)
            if size > chunk:
                nxt.append((msg_id, dst, size - chunk))
        remaining = nxt
