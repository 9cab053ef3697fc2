"""Compiled event kernel: the ``"kernel"`` simulator backend.

:class:`KernelEngine` is engine-compatible with the object engine
(``schedule``, ``schedule_at``, ``run``, ``now``, ``events_executed``,
``pending``) but runs every event in a C extension
(``repro/sim/vec/_kernel.c``).  The extension owns the pending-event
set *and* all mutable simulation state: per-port, per-VC and per-NIC
scalars as typed C arrays, the output, input-VC, NIC and pending-input
queues and the credit-arrival FIFOs as C ring buffers, and packets as C
slots recycled on delivery.  A NIC queue holds one 32-byte entry per
message, whichever driver submitted it (open-loop GEN, the closed-loop
driver or a finite exchange), and the NIC cuts one packet off its head
entry per send: a queued packet has no record of its own.  A slot is
one record of at most 88 bytes
that holds a route of up to eight ports inline as output-port indices
and VCs (a longer route, from a fault detour or a custom routing,
spills to one block of its own); the routers are derived from the
ports when a ``Packet`` is built, and a ``Packet`` loaded from
Python must have routers that follow its ports.  Queue entries and
slots are plain C data, their message ids C integers: they hold no
Python object.  The event set is four FIFO *delay lanes*
(one per fixed handler delay: serialisation, link, both, switch) plus a
binary heap for every other push (GEN, CALL, wakes at older reserved
keys); a pop takes the least ``(time, seq)`` among
the lane heads and the heap top, so the order is exactly that of one
heap.  The extension is built once from the read-only wiring that
:class:`~repro.sim.vec.state.SoAState` derives from the topology (a
kernel network builds no object routers, ports or NICs), and
enumerates, filters and composes routes from that wiring's
directed-channel table too, calling into ``RouteCache`` only for the
pairs its route table cannot serve.  The kernel records every send
and delivery and counts every closed-loop message down itself, in C,
whichever path routed the packet, never through ``record_inject``,
``record_eject`` or ``Network.deliver``: it writes the
``StatsCollector``'s counter, time, eject-count and per-kind arrays
and ``Network._pid`` in place (a route kind is an index into the
collector's ``kind_names``), and hands over only its latency block
(``absorb_kernel``), when the block fills and when a run returns; the
module's ``window_reduce``, which the engine gives the collector as its
``reduce_latencies``, reduces the window to numpy's mean and 99th
percentile in C, so a kernel run never imports numpy.  A
:class:`~repro.sim.packet.Packet` exists only where Python must see
one: the make_packet escape, whose ``Packet`` the kernel drops once it
has loaded the route, and a delivery while the network has delivery
listeners (the tracer and the checker are listeners too; the kernel
calls them itself), which builds the listeners a new ``Packet`` equal
field for field to the object engine's.  A link fault costs no Python
per packet: the kernel reroutes or drops packets off dead ports
itself, with BFS detours of its own, rewriting only their slots.
Python queues no raw event
records: a scheduled callback enters through ``Kernel.call``, which
reserves its sequence number in C.  Python reads kernel state as
snapshots (``Kernel.view`` and ``Kernel.lengths`` return bytes
copies).

Exactness model
===============

The object engine executes ~13 heap events per delivered packet.  Five
of them (NIC/port link-free, NIC/port credit-return) only flip a flag
or bump a counter and then *maybe* re-attempt a send.  The kernel
elides them: busyness is a stored ``(busy_t, busy_seq)`` key compared
lazily, credits are a count plus the in-flight arrival keys drained on
demand.  Two invariants make the elision exact rather than merely
plausible:

1. **Sequence reservation.**  Every ``engine.schedule()`` call the
   object engine would make is mirrored -- in the same order inside
   each handler -- by incrementing the sequence counter, whether or not
   an event record is queued.  An elided event's reserved
   ``(time, seq)`` key is stored with the lazy state it represents.

2. **Reserved-key wake-ups.**  When an elided event *would* have done
   real work (the link-free retry that finds a queued packet, the
   credit arrival that unblocks a stalled VC), a wake event is pushed
   *at the reserved key*, so it executes exactly where the object
   engine's callback would have.  Wake rules are conservative: a
   spurious wake re-checks state and no-ops, exactly like the object
   handlers it replaces, so duplicates cannot change behaviour.

A credit count is the materialised count *plus* every pending arrival
with key ``<= (t, seq)``; arrivals materialise only when a sender finds
the count at zero, so every wake test reads the same count the object
engine's state implies.  Arrivals whose key has already passed fold
into a per-VC *matured* count when the next credit is recorded, so each
FIFO holds only credits still on the wire (bounded by the VC capacity)
while the materialised count changes exactly when it otherwise would.

Because every surviving event carries the key it would have had in the
object engine, the global event order -- and with it the shared routing
RNG draw order, every float addition producing a timestamp, and every
round-robin/FIFO arbitration decision -- is reproduced bit-for-bit.
The golden conformance suite asserts exactly that.

Packet generation for ``run_synthetic`` is drawn ahead of each node's
GEN events (:meth:`KernelEngine.setup_synthetic`): each node's traffic
pattern and inter-arrival draws come from a *private* per-node RNG, so
drawing ahead consumes the identical stream the object engine draws one
event at a time.  For permutation, uniform and hotspot traffic the
kernel seeds a C copy of each node's ``random.Random`` and draws its
stream in chunks of 256 entries as the GEN events consume them, holding
the generator state only until the stream reaches the horizon.  Any
other pattern runs the object engine's own generate events
(``Network._generate``) as CALLs, at the keys GEN events would take:
one Python call per generated packet.

Arbitrary callbacks (``schedule(delay, fn, *args)``) remain supported
via a CALL op, so the drivers in :mod:`repro.sim.network` and
:mod:`repro.workload.driver` run unchanged on either engine.

Loading
=======

:func:`load_kernel` compiles the shipped C source at first use with
``cc -O2`` (plus ``$REPRO_KERNEL_CFLAGS``, e.g. sanitizer flags) into a
cache directory keyed by a hash of the source, the interpreter ABI and
those flags (``REPRO_KERNEL_CACHE``, default ``~/.cache/repro-kernel``),
and loads it from there; nothing else is ever imported, so a stale
binary cannot load against newer source.  A load from the cache imports
no toolchain: ``subprocess`` and ``sysconfig`` are imported only to
compile, and ``shlex`` only to compile or to split a set
``REPRO_KERNEL_CFLAGS``.  Set ``REPRO_NO_KERNEL=1`` to skip the build.
Any build/load failure is recorded in
:data:`load_error` and surfaces as a single ``RuntimeWarning`` from
:class:`~repro.sim.network.Network`, which then runs the object engine.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.machinery
import importlib.util
import os
import random
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator, Optional

from repro.routing.minimal import MinimalRouting
from repro.routing.ugal import UGALRouting
from repro.routing.valiant import IndirectRandomRouting
from repro.sim.packet import Packet
from repro.sim.vec.state import KernelNIC, SoAState
from repro.traffic.base import PermutationTraffic
from repro.traffic.classic import HotspotTraffic
from repro.traffic.uniform import UniformRandom

__all__ = ["KernelEngine", "load_kernel", "load_error"]

_SRC = Path(__file__).with_name("_kernel.c")

# Event opcodes (must match _kernel.c).
OP_RECV = 0     # a=input gid, b=vc, c=slot  -- arrival at an input buffer
OP_ENTER = 1    # a=port-vc id, b=slot, c=port gid -- enter an output queue
OP_PWAKE = 2    # a=port gid                 -- elided link-free/credit retry
OP_DELIVER = 3  # c=slot                     -- the packet reaches its NIC
OP_NWAKE = 4    # a=node                     -- elided NIC link-free/credit retry
OP_GEN = 5      # a=node                     -- open-loop injection (stream entry)
OP_CALL = 6     # a=callable, b=args         -- generic scheduled callback

#: Why the kernel failed to load (None until an attempt fails).
load_error: Optional[str] = None

_mod = None
_attempted = False


def _extra_cflags() -> list:
    """``$REPRO_KERNEL_CFLAGS`` split as a shell splits it."""
    flags = os.environ.get("REPRO_KERNEL_CFLAGS")
    if not flags:
        return []
    import shlex

    return shlex.split(flags)


def _jit_build_and_load():
    """Compile the shipped C source into a cached extension (on a cache
    miss only, the one place that imports the toolchain) and load it."""
    source = _SRC.read_bytes()
    extra = _extra_cflags()
    tag = hashlib.sha256(
        source + sys.implementation.cache_tag.encode()
        + "\0".join(extra).encode()
    ).hexdigest()[:16]
    cache = Path(
        os.environ.get("REPRO_KERNEL_CACHE")
        or Path.home() / ".cache" / "repro-kernel"
    )
    # The interpreter's own suffix: the first entry is EXT_SUFFIX.
    ext = importlib.machinery.EXTENSION_SUFFIXES[0]
    so = cache / f"_kernel-{tag}{ext}"
    if not so.exists():
        import shlex
        import subprocess
        import sysconfig

        cache.mkdir(parents=True, exist_ok=True)
        cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
        cmd = shlex.split(cc)[:1] + [
            "-O2",
            # Python rounds every float operation; a fused multiply-add
            # (random.uniform's a + (b - a) * r) would not.
            "-ffp-contract=off",
            "-fPIC",
            "-shared",
            f"-I{sysconfig.get_paths()['include']}",
            f"-I{sysconfig.get_paths()['platinclude']}",
        ]
        if sys.platform == "darwin":
            cmd += ["-undefined", "dynamic_lookup"]
        tmp = so.with_name(f".{so.name}.{os.getpid()}.tmp")
        cmd += extra + [str(_SRC), "-o", str(tmp), "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            raise RuntimeError(
                f"kernel build failed ({' '.join(cmd[:1])} exited "
                f"{proc.returncode}): {proc.stderr.strip()[-500:]}"
            )
        os.replace(tmp, so)  # atomic: concurrent builders race safely
    name = "repro.sim.vec._kernel"
    loader = importlib.machinery.ExtensionFileLoader(name, str(so))
    spec = importlib.util.spec_from_file_location(name, str(so), loader=loader)
    mod = importlib.util.module_from_spec(spec)
    loader.exec_module(mod)
    return mod


def load_kernel():
    """Return the compiled ``_kernel`` module, or None (see module doc).

    The first failure is cached: one process attempts one build.
    """
    global _mod, _attempted, load_error
    if _attempted:
        return _mod
    _attempted = True
    if os.environ.get("REPRO_NO_KERNEL"):
        load_error = "disabled by REPRO_NO_KERNEL"
        return None
    try:
        _mod = _jit_build_and_load()
    except Exception as exc:  # noqa: BLE001 -- any failure means fallback
        load_error = f"{type(exc).__name__}: {exc}"
        _mod = None
    return _mod


def _reset_for_tests() -> None:
    """Forget a cached load attempt (test hook)."""
    global _mod, _attempted, load_error
    _mod = None
    _attempted = False
    load_error = None


# Pattern-table kinds (must match _kernel.c).
PAT_PERM = 1
PAT_UNIFORM = 2
PAT_HOTSPOT = 3


def _pattern_entry(pattern, num_nodes: int) -> Optional[tuple]:
    """The kernel's pattern-table entry ``(kind, table, n, hot_fraction)``
    for *pattern* on *num_nodes* nodes, or ``None`` when it has none and
    runs the object engine's generate events.

    The entry is chosen by which ``pick_destination`` the pattern runs
    (a subclass that overrides it has no entry), and only when every
    destination it can draw is valid, so the C draws never need the
    error path: anything else draws in ``Network._generate``, which
    raises where and when the object engine does.
    """
    pick = getattr(getattr(pattern, "pick_destination", None), "__func__", None)
    if pick is PermutationTraffic.pick_destination:
        dsts = [int(d) if d >= 0 else -1 for d in pattern.destinations]
        if len(dsts) == num_nodes and all(
            d < num_nodes and d != src for src, d in enumerate(dsts)
        ):
            return PAT_PERM, dsts, 0, 0.0
    elif pick is UniformRandom.pick_destination:
        if 2 <= pattern.num_nodes <= num_nodes:
            return PAT_UNIFORM, (), pattern.num_nodes, 0.0
    elif pick is HotspotTraffic.pick_destination:
        hot = pattern.hotspots
        if 2 <= pattern.num_nodes <= num_nodes and hot and all(
            0 <= h < num_nodes for h in hot
        ):
            return PAT_HOTSPOT, hot, pattern.num_nodes, float(pattern.hot_fraction)
    return None


class KernelEngine:
    """Engine over the compiled kernel (see the module docstring).

    Built once per :class:`~repro.sim.network.Network`, which runs one
    experiment: nothing resets the kernel, and its state goes with the
    network.
    """

    def __init__(self, net) -> None:
        mod = load_kernel()
        if mod is None:
            raise RuntimeError(f"compiled kernel unavailable: {load_error}")
        self.net = net
        self.st = SoAState.from_topology(net.topology, net.routing, net.config)
        #: The C kernel: event set, simulation state and dispatch loop.
        self.kernel = mod.Kernel(self.st, net, Packet)
        # The latency window reduces in C too, as numpy would reduce it.
        net.stats.reduce_latencies = mod.window_reduce
        self.nic_shims = [KernelNIC(self.kernel, node)
                          for node in range(self.st.NN)]

    # -- clock state (owned by the kernel) -------------------------------------

    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def events_executed(self) -> int:
        return self.kernel.executed

    # -- engine API ----------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` *delay* ns (>= 0) after the current time."""
        if not delay >= 0.0:
            raise ValueError(
                f"schedule(delay={delay!r}): the delay must be a "
                f"non-negative number of nanoseconds"
            )
        k = self.kernel
        k.call(k.now + delay, fn, args)

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute time *when* (>= now)."""
        k = self.kernel
        if not when >= k.now:
            raise ValueError(
                f"schedule_at(when={when!r}) is in the past (now={k.now!r}); "
                f"events cannot be scheduled before the current simulated time"
            )
        k.call(when, fn, args)

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return self.kernel.pending()

    def iter_pending(self) -> Iterator[tuple]:
        """All queued event records, in no particular order (audits)."""
        return iter(self.kernel.events())

    def kernel_stats(self) -> dict:
        """In-kernel event counts, the Python-escape time split, where
        the event set's pushes went (``queue``: delay lanes vs heap, the
        heap's high-water mark) and a sampled split of loop time into
        pop and per-opcode handler time (``sampled``)."""
        return self.kernel.stats()

    def memory_stats(self) -> dict:
        """Live and peak packet slots, what one costs (``slot_bytes``)
        and how many the slot pages hold (``slot_capacity``), live and
        peak routes spilled out of their slots, credit-FIFO high-water
        marks, the NIC queue entries (``nic_backlog``: one per queued
        message, however many packets it has left), the traffic
        generator's states and chunks, and the watched messages."""
        return self.kernel.memory()

    # -- per-port counters ----------------------------------------------------

    def reset_sent(self) -> None:
        """Zero the per-port transmission counters (warm-up boundary)."""
        self.kernel.reset_sent()

    def sent_counts(self) -> list:
        """Packets transmitted per port gid since the last reset."""
        return memoryview(self.kernel.view("p_sent")).cast("q").tolist()

    # -- open-loop traffic -----------------------------------------------------

    def setup_synthetic(
        self,
        pattern,
        mean_ia: float,
        horizon: float,
        seed: int,
        arrival: str,
    ) -> bool:
        """Draw every node's injection stream in C and queue its first
        GEN, if *pattern* has a table entry (:func:`_pattern_entry`);
        returns whether it has.  Without one, ``Network.run_synthetic``
        schedules the object engine's generate events instead.

        Exactness: the object engine draws, per node and per event,
        ``pick_destination(node, rng)`` then ``expovariate`` from a
        *private* per-node RNG seeded off one master stream.  Nobody
        else draws from a node's RNG (a tabled pattern is a pure
        function of ``(node, rng)``), so the node's whole stream can be
        drawn ahead of its events, chunk by chunk as the GEN handler
        consumes it, and the times accumulate with the same float
        additions.  The last entry of a stream is the object engine's
        final past-horizon generate event (which fires and does
        nothing); it is kept so event and sequence accounting stay
        aligned.
        """
        n = self.st.NN
        entry = _pattern_entry(pattern, n)
        if entry is None:
            return False
        master = random.Random(seed)
        seeds = [master.getrandbits(64) for _ in range(n)]
        self.kernel.gen_streams(seeds, *entry, mean_ia, horizon,
                                arrival == "poisson")
        return True

    # -- fast-path spec --------------------------------------------------------

    def _fastpath_spec(self):
        """Bindings for the C route path and the fault diverts, or
        ``None`` when neither applies.

        ``route_mode >= 0`` moves the routing of every NIC send --
        candidate selection, with a C replica of the ``random.Random``
        draw stream -- behind the C boundary.  Only two things decide
        it: the routing must be one of those ported to C (minimal
        routing with random selection, INR, and UGAL-L with random
        minimal selection), and ``Network.make_packet`` must not be
        wrapped on the instance (the checker wraps it, so a checked run
        routes every packet in Python, the ``make_packet`` escape).
        Every other routing -- minimal with ``"best"`` selection, UGAL-G,
        UGAL with ``"best"`` minimal selection, a subclass -- routes each
        send through that escape too.  The accounting is not
        gated: the kernel records every send and delivery and counts
        every closed-loop message down in C whichever path routed the
        packet, and calls the delivery listeners itself when there are
        any (see ``do_deliver`` in ``_kernel.c``).

        Routes come from the kernel's own route table (built from
        ``row_port``, see ``_kernel.c``), which also gives a pair whose
        every candidate crosses a failed link its BFS detour; only the
        pairs it cannot serve call into ``RouteCache`` (the
        ``route_fill`` escape): pairs more than two hops apart,
        VC-budget errors and VC policies other than ``HopIndexVC`` /
        ``PhaseVC``.  Scheduled CALLs run in Python.

        An armed :class:`~repro.resilience.FaultManager` is bound on
        every run, fast paths or not: the kernel diverts packets off
        dead ports in C, drawing from a resident copy of its ``rng``,
        and adds each reroute and drop to its ``counts`` array in place.
        """
        net = self.net
        fm = net.fault_manager
        if fm is not None and fm.cache is None:
            fm = None  # not armed: no fault fires, no port dies
        routing = net.routing
        cache = getattr(routing, "cache", None)
        route_mode = -1
        rngs = []
        if cache is not None and "make_packet" not in vars(net):
            # Strict type checks: a subclass could override route(), so
            # only the exact implementations ported to C are eligible.
            rtype = type(routing)
            if rtype is MinimalRouting and routing.selection == "random":
                route_mode, rngs = 0, [routing._rng]
            elif rtype is IndirectRandomRouting:
                route_mode, rngs = 2, [routing._rng]
            elif (
                rtype is UGALRouting
                and routing._local
                and routing._minimal_random
            ):
                route_mode = 3
                rngs = [routing._minimal._rng, routing._indirect._rng]
        if route_mode < 0 and fm is None:
            return None
        threshold = getattr(routing, "threshold", None)
        return SimpleNamespace(
            route_mode=route_mode,
            rngs=rngs,
            min_rows=cache.minimal_rows if cache is not None else None,
            leg_rows=cache.leg_rows if cache is not None else None,
            minimal_fill=cache.minimal_fill if cache is not None else None,
            leg_fill=cache.leg_fill if cache is not None else None,
            compose=cache.compose if cache is not None else None,
            fault_manager=fm,
            fault_rng=fm.rng if fm is not None else None,
            fault_counts=fm.counts if fm is not None else None,
            fault_drop=int(fm is not None and fm.policy == "drop"),
            pool=getattr(routing, "_pool", None),
            n_indirect=getattr(routing, "num_indirect", 0),
            sf_mode=int(getattr(routing, "_sf_mode", False)),
            c=float(getattr(routing, "c", 0.0)),
            c_sf=float(getattr(routing, "c_sf", 0.0)),
            thr_cap=(
                threshold * net.queue_capacity()
                if threshold is not None
                else None
            ),
        )

    # -- the event loop --------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Execute events in ``(time, seq)`` order; same contract as
        :meth:`repro.sim.engine.Engine.run`."""
        k = self.kernel
        # The hot handlers allocate nothing; escapes (deliveries to
        # listeners, CALLs) allocate but never create cycles, so the
        # cyclic GC would only trace young Packets and records.
        gc_was = gc.isenabled()
        if gc_was:
            gc.disable()
        try:
            executed = k.run(until, max_events, self._fastpath_spec())
        finally:
            if gc_was:
                gc.enable()
        if until is not None and k.now < until:
            nt = k.peek_time()
            if nt is None or nt > until:
                # Advance the clock to the horizon even if the queue ran
                # dry (but not when the event budget cut the run short).
                k.now = until
        return executed
