"""Network assembly and experiment drivers.

:class:`Network` wires a :class:`~repro.topology.base.Topology` and a
:class:`~repro.routing.base.RoutingAlgorithm` into the engine that runs
them -- the object engine's switch and NIC objects, or the compiled
kernel, whose flat wiring comes straight from the topology -- implements
the UGAL-L congestion interface over live switch state, and offers the
two measurement modes of the paper:

- :meth:`Network.run_synthetic` -- rate-driven open-loop traffic with a
  warm-up then a measurement window (Sec. 4.3),
- :meth:`Network.run_exchange` -- a finite exchange simulated to
  completion, reporting effective throughput (Sec. 4.4).
"""

from __future__ import annotations

import random
import warnings
from array import array
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.routing.base import RoutingAlgorithm
from repro.sim.config import PAPER_CONFIG, SimConfig
from repro.sim.packet import Packet
from repro.sim.stats import StatsCollector, WindowStats, numpy_reduction
from repro.topology.base import Topology
from repro.traffic.base import bad_destination

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.switch import OutputPort, Router

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
        self.num_vcs = routing.num_vcs
        self.stats = StatsCollector(topology.num_nodes, config)
        self.checker = None  # InvariantChecker when config.check is set
        self.fault_manager = None  # FaultManager when config.faults is set
        self._pid = array("q", [0])  # the last packet id (make_packet)
        self._vec = None  # KernelEngine when the kernel backend runs
        self._delivery_listeners: list = []  # see add_delivery_listener
        # The message countdown (see watch_messages): packets left,
        # release flags, completion times and groups per message, the
        # group-by-kind counts, and the callback.
        self._msg_left: Optional[array] = None
        self._msg_release: Optional[bytes] = None
        self._msg_time: Optional[array] = None
        self._msg_group: Optional[array] = None
        self._msg_kinds: Optional[array] = None
        self._msg_done: Optional[Callable[[int], None]] = None
        self._experiment_ran = False  # one experiment per Network instance
        #: Window (ns) behind ``channel_utilization()``: the measurement
        #: window of ``run_synthetic``, the completion time of a finite
        #: run; ``None`` until an experiment sets it.
        self.utilization_window: Optional[float] = None

        #: Which engine actually runs: ``"kernel"`` when the compiled
        #: kernel was requested and loads, otherwise ``"object"``.
        #: Resolved first, so only the engine that runs is built, and a
        #: checked run that falls back gets the object checker.
        self.backend_in_use = self._resolve_backend(config.backend)

        if self.backend_in_use == "kernel":
            # The compiled kernel builds its flat wiring from the
            # topology and holds all mutable state in C.  The NIC list
            # is driver-facing shims over the kernel, and UGAL-L's
            # congestion signal reads its per-port counters (instance
            # attribute shadows the class method).
            from repro.sim.vec.kernel import KernelEngine

            self._vec = KernelEngine(self)
            self.engine = self._vec
            self.nics = self._vec.nic_shims
            self.queue_len = self._vec.kernel.queue_len
            #: Each node's ejection port at its router, which
            #: make_packet and the checkers read (either engine).
            self._eject_ports: Sequence[int] = self._vec.st.n_eject
            if config.check:
                # No per-transition callbacks to hook: the kernel's
                # checker audits state instead.
                from repro.sim.vec.check import KernelChecker

                self.checker = KernelChecker(self)
                self.checker.attach()
        else:
            self._build_object_engine()

        if config.faults:
            from repro.resilience import FaultManager, FaultSchedule

            self.fault_manager = FaultManager(
                self, FaultSchedule(config.faults), config.fault_policy
            )

    def _build_object_engine(self) -> None:
        """The object engine: an event heap, one :class:`Router` per
        switch with its :class:`OutputPort` objects, one :class:`NIC`
        per node, and the checker when ``config.check`` is set.  Their
        modules, and numpy for the statistics' reference reduction, are
        imported here, so a kernel network loads none of them."""
        from repro.sim.engine import Engine
        from repro.sim.nic import NIC
        from repro.sim.switch import OutputPort, Router

        topology = self.topology
        config = self.config
        self.engine = Engine()
        self.stats.reduce_latencies = numpy_reduction()
        vc_capacity = config.buffer_packets_per_vc(self.num_vcs)

        # With checking enabled, routers and NICs are built as Checked*
        # subclasses that notify the invariant checker around every
        # transition; the unchecked hot path pays nothing for this.
        if config.check:
            from repro.sim.invariants import CheckedNIC, CheckedRouter

            router_cls, nic_cls = CheckedRouter, CheckedNIC
        else:
            router_cls, nic_cls = Router, NIC

        # Build switches.
        self.routers: List[Router] = []
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

        if config.check:
            from repro.sim.invariants import InvariantChecker

            self.checker = InvariantChecker(self)
            self.checker.attach()

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
        ``repro/sim/vec/_kernel.c``, golden- and fuzz-gated), taking ids
        from the same ``_pid`` array; changes to routing dispatch,
        packet construction or inject accounting here must be reflected
        there.
        """
        topo = self.topology
        node_router = topo.router_of
        route = self.routing.route(node_router(src_node), node_router(dst_node), self)

        routers = route.routers
        hop_ports = route.ports
        if hop_ports is None:
            # A custom algorithm's Route; RouteCache routes carry ports.
            hop_ports = tuple(
                topo.port(routers[i], routers[i + 1]) for i in range(len(routers) - 1)
            )

        pid = self._pid
        pid[0] += 1
        return Packet(
            pid=pid[0],
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

    def _claim_experiment(self, start: Optional[Callable[[], None]] = None) -> None:
        """Guard against reusing a Network across experiments.

        Warmed-up buffers, advanced clocks and mixed statistics make a
        second run silently wrong; build a fresh :class:`Network` per
        experiment instead (topologies and configs are reusable).

        *start*, when given, is a finite driver's first sends: it runs
        as the run's first event, at the current time (0 on a fresh
        network), ahead of the fault events (so a fault at time 0 still
        finds them sent).  Sent from inside the run, the first packets
        route like every later one -- on the kernel in C, without
        filling the ``RouteCache``.
        """
        if self._experiment_ran:
            raise RuntimeError(
                "this Network already ran an experiment; build a fresh "
                "Network(topology, routing) for the next one"
            )
        self._experiment_ran = True
        if start is not None:
            self.engine.schedule(0.0, start)
        if self.fault_manager is not None:
            # Arm before any traffic is scheduled so fault events take
            # the earliest sequence numbers after *start* -- identically
            # on both backends (every driver claims before submitting
            # work).
            self.fault_manager.arm()

    def reset_utilization(self) -> None:
        """Zero the per-port transmission counters (called at warm-up end)."""
        if self._vec is not None:
            self._vec.reset_sent()
            return
        for router in self.routers:
            for out in router.out:
                out.sent_packets = 0

    def sent_counts(self) -> List[int]:
        """Packets each output port transmitted since the last reset, in
        port-gid order: routers in id order, each router's ports toward
        its neighbours, then toward its nodes."""
        if self._vec is not None:
            return self._vec.sent_counts()
        return [out.sent_packets for router in self.routers for out in router.out]

    def channel_utilization(self, window_ns: Optional[float] = None) -> Dict:
        """Link-utilization fractions measured since the last reset.

        Returns ``{(u, v): fraction}`` for router-router channels and
        ``{("eject", node): fraction}`` for ejection links.  With
        fixed-size packets the busy time is exactly
        ``sent_packets * serialization``.  ``window_ns`` defaults to
        :attr:`utilization_window`.
        """
        window = window_ns if window_ns is not None else self.utilization_window
        if window is None or window <= 0:
            raise ValueError("channel_utilization: no measurement window available")
        ser = self.config.packet_time_ns
        topo = self.topology
        sent = iter(self.sent_counts())
        out_map: Dict = {}
        for r in range(topo.num_routers):
            for neighbor in topo.neighbors(r):
                out_map[(r, neighbor)] = next(sent) * ser / window
            for node in topo.nodes_of(r):
                out_map[("eject", node)] = next(sent) * ser / window
        return out_map

    def fabric_link_load(
        self, sent: List[int], window_ns: float
    ) -> Optional[Dict[str, float]]:
        """Max, mean and max/mean skew of router-router link utilization
        for per-port transmission counts *sent* (in :meth:`sent_counts`
        order) over *window_ns*; ``None`` without router-router links."""
        ser = self.config.packet_time_ns
        topo = self.topology
        utils = []
        gid = 0
        for r in range(topo.num_routers):
            deg = topo.degree(r)
            utils.extend(count * ser / window_ns for count in sent[gid:gid + deg])
            gid += deg + topo.nodes_attached(r)
        if not utils:
            return None
        peak = max(utils)
        mean = sum(utils) / len(utils)
        return {
            "max": peak,
            "mean": mean,
            "skew": peak / mean if mean > 0 else 0.0,
        }

    def enable_trace(self, capacity: int = 10_000, start_ns: float = 0.0):
        """Register a new :class:`repro.sim.trace.PacketTracer`'s
        ``record`` as a delivery listener; returns the tracer."""
        from repro.sim.trace import PacketTracer

        tracer = PacketTracer(capacity=capacity, start_ns=start_ns)
        self.add_delivery_listener(tracer.record)
        return tracer

    def add_delivery_listener(self, fn) -> None:
        """Register ``fn(pkt)`` to run on every packet delivery.

        Listeners are the one delivery hook: the tracer
        (:meth:`enable_trace`), an exchange's message tracking and the
        checkers' delivery checks are listeners too.  A listener
        observes each ejection (with its ``msg_id`` and ``eject_time``)
        after the statistics count it, in registration order, so the
        checker, registered when the network is built, observes first;
        a listener registered during a delivery is called for it too
        (the kernel's latencies and kind counts complete at run end).
        It may submit new traffic in response, and an exception it
        raises (a checker's violation) propagates out of the run.  On
        the kernel each delivery builds the listeners a new
        :class:`Packet`, equal field for field to the object engine's
        but never the object :meth:`make_packet` returned, so a listener
        costs every delivery a ``Packet`` and a Python call; a driver
        that only needs to know when messages complete arms
        :meth:`watch_messages` instead.
        """
        if not callable(fn):
            raise TypeError(f"delivery listener {fn!r} is not callable")
        self._delivery_listeners.append(fn)

    def watch_messages(
        self,
        packets: Iterable[int],
        releases: Iterable[object],
        groups: Iterable[int],
        on_complete: Callable[[int], None],
    ) -> Tuple[array, array]:
        """Arm the message countdown: message ``i`` completes when
        ``packets[i]`` packets with ``msg_id == i`` have been delivered,
        and then, if ``releases[i]`` is true, ``on_complete(i)`` runs.
        Returns two tables: an ``array('d')`` of completion times (that
        last delivery's, ``-1.0`` before), and an ``array('q')`` of a
        row per group (``max(groups) + 1``) by a column per
        ``stats.kind_totals`` entry, row-major, which counts each
        counted packet at ``groups[i] * len(stats.kind_totals) +
        stats.kind_index(pkt.kind)``.

        This is the closed-loop hook: :class:`repro.workload.driver
        .WorkloadDriver` arms it with every message's packet count, a
        flag for the messages that DAG successors depend on, which it
        releases from the callback, and each message's phase as its
        group; a completion that releases nothing calls no Python.  A
        message of zero packets never completes here (``WorkloadDriver``
        writes its time to the table itself).  Packets with no ``msg_id``, one
        outside the table, or one of a message already complete are not
        counted.  :meth:`deliver` counts down on the object engine; the
        kernel counts every delivery down in C, into the same tables,
        with the same rule, after any delivery listeners have run.
        """
        if not callable(on_complete):
            raise TypeError(f"completion callback {on_complete!r} is not callable")
        left = array("i", packets)
        if any(n < 0 for n in left):
            raise ValueError("watch_messages: packet counts must be >= 0")
        release = bytes(map(bool, releases))
        group = array("i", groups)
        for name, table in (("release flags", release), ("group ids", group)):
            if len(table) != len(left):
                raise ValueError(f"watch_messages: {len(table)} {name} for "
                                 f"{len(left)} messages")
        if any(g < 0 for g in group):
            raise ValueError("watch_messages: group ids must be >= 0")
        times = array("d", [-1.0]) * len(left)
        kinds = array("q", bytes(8 * (max(group, default=-1) + 1)
                                 * len(self.stats.kind_totals)))
        self._msg_left = left
        self._msg_release = release
        self._msg_time = times
        self._msg_group = group
        self._msg_kinds = kinds
        self._msg_done = on_complete
        if self._vec is not None:
            self._vec.kernel.watch(left, release, times, group, kinds,
                                   on_complete)
        return times, kinds

    def deliver(self, pkt: Packet) -> None:
        """Final hop on the object engine: the packet reaches its
        destination node.

        Stamps the eject time, records the statistics, runs the
        delivery listeners (:meth:`add_delivery_listener`) and counts
        the message down (:meth:`watch_messages`): its last packet
        writes its completion time, and calls back only for a message
        that releases others.  The kernel never calls this: its DELIVER
        handler runs the same steps in C, writing the collector's
        counters in place, and calls the listeners itself
        (``do_deliver`` in ``repro/sim/vec/_kernel.c``); changes here
        must be reflected there.
        """
        pkt.eject_time = self.engine.now
        self.stats.record_eject(pkt)
        for listener in self._delivery_listeners:
            listener(pkt)
        left = self._msg_left
        if left is not None:
            mid = pkt.msg_id  # None or an int in [0, 2**63): see NIC.submit
            if mid is not None and mid < len(left) and left[mid] > 0:
                row = self._msg_group[mid] * len(self.stats.kind_totals)
                self._msg_kinds[row + self.stats.kind_index(pkt.kind)] += 1
                left[mid] -= 1
                if not left[mid]:
                    self._msg_time[mid] = pkt.eject_time
                    if self._msg_release[mid]:
                        self._msg_done(mid)

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
        statistics are computed over the measurement window.  Each node
        draws from a private RNG in generate events (:meth:`_generate`);
        on the kernel the built-in permutation, uniform and hotspot
        patterns draw the same streams in C instead, and any other
        pattern runs these generate events there too.

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

        # The kernel draws a tabled pattern's streams in C; any other
        # pattern runs these generate events on either engine.
        if self._vec is None or not self._vec.setup_synthetic(
            pattern, mean_ia, horizon, seed, arrival
        ):
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
        self.utilization_window = measure_ns
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
            nics = self.nics
            if dst == node or not 0 <= dst < len(nics):
                raise bad_destination(node, dst, len(nics))
            nics[node].submit(dst, self.config.packet_bytes)
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
        (dst_node, size_bytes)``.  Every non-empty message is submitted
        to its node's NIC by the run's first event, at time 0 (an
        invalid message or an exchange without traffic raises from
        there), with its index in the node's list
        as ``msg_id`` (so a zero-byte message sends nothing but keeps
        the later ids stable; the kernel keeps each id as a C integer),
        and leaves as ``packet_bytes`` packets.
        If the exchange sets ``interleave = True`` (e.g. the
        nearest-neighbour exchange, which models concurrent non-blocking
        sends to all six neighbours) the NIC sends one packet of each
        message in turn; otherwise messages are sent strictly in order.

        Returns a dict with ``completion_ns``, ``effective_throughput``
        (fraction of injection bandwidth per node), ``total_bytes`` and
        packet counts.  With ``track_messages=True`` it also includes
        per-message completion statistics under ``"messages"`` (count,
        mean/max latency from first packet transmitted to last packet
        delivered), from a delivery listener keyed by source node and
        ``msg_id`` (on the kernel, each delivery builds it a ``Packet``).
        """
        pkt_size = self.config.packet_bytes
        interleave = bool(getattr(exchange, "interleave", False))
        num_nodes = self.topology.num_nodes
        total_bytes = expected_packets = 0

        def submit_all() -> None:
            nonlocal total_bytes, expected_packets
            for node in range(num_nodes):
                submit = self.nics[node].submit
                messages = exchange.node_messages(node)
                for msg_id, (dst, size) in enumerate(messages):
                    if not 0 <= dst < num_nodes:
                        raise ValueError(
                            f"exchange sends node {node}'s message to node "
                            f"{dst!r}, outside [0, {num_nodes})"
                        )
                    if size < 0:
                        raise ValueError(
                            f"exchange gives node {node} a message of "
                            f"{size!r} bytes to node {dst}; sizes must be >= 0"
                        )
                    if size:
                        submit(dst, size, msg_id, interleave)
                        total_bytes += size
                        expected_packets += -(-size // pkt_size)
            if total_bytes == 0:
                raise ValueError("exchange generated no traffic")

        # Every message is submitted by the run's first event, at time 0.
        self._claim_experiment(submit_all)
        self.stats.set_window(0.0, None)
        # (src, msg_id) -> [first send, last eject] of each message.
        spans: Dict[Tuple[int, int], List[float]] = {}
        if track_messages:

            def track(pkt: Packet) -> None:
                if pkt.msg_id is None:
                    return
                span = spans.get((pkt.src_node, pkt.msg_id))
                if span is None:
                    spans[pkt.src_node, pkt.msg_id] = [pkt.send_time, pkt.eject_time]
                else:
                    span[0] = min(span[0], pkt.send_time)
                    span[1] = max(span[1], pkt.eject_time)

            self.add_delivery_listener(track)
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
            self.utilization_window = completion
        result: Dict[str, object] = {
            "completion_ns": completion,
            "effective_throughput": self.stats.effective_throughput(total_bytes),
            "total_bytes": float(total_bytes),
            "packets": float(expected_packets),
        }
        if track_messages:
            latencies = sorted(
                last_eject - first_send for first_send, last_eject in spans.values()
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
        return result

