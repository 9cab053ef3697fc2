"""Compiled event kernel: the ``"kernel"`` simulator backend.

:class:`KernelEngine` is engine-compatible with the object engine
(``schedule``, ``schedule_at``, ``run``, ``now``, ``events_executed``,
``pending``, ``clear``) but runs every event in a C extension
(``repro/sim/vec/_kernel.c``).  The extension owns the pending-event
heap *and* all mutable simulation state: per-port, per-VC and per-NIC
scalars as typed C arrays, the output, input-VC, NIC and pending-input
queues and the credit-arrival FIFOs as C ring buffers, and packets as C
slots recycled on delivery.  It is built once from the read-only wiring
in :class:`~repro.sim.vec.state.SoAState`.  A
:class:`~repro.sim.packet.Packet` is materialised only where Python
must see one: the make_packet and deliver escapes, delivery observers,
fault diverts and the checker.

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

Packet generation for ``run_synthetic`` is pregenerated per node
(:meth:`KernelEngine.setup_synthetic`): each node's traffic pattern and
inter-arrival draws come from a *private* per-node RNG, so playing a
node's draws forward at setup consumes the identical stream the object
engine draws one event at a time.

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
binary cannot load against newer source.  Set ``REPRO_NO_KERNEL=1`` to
skip the build.  Any build/load failure is recorded in
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
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator, Optional

from repro.routing.minimal import MinimalRouting
from repro.routing.ugal import UGALRouting
from repro.routing.valiant import IndirectRandomRouting
from repro.sim.packet import Packet
from repro.sim.vec.state import KernelNIC, SoAState

__all__ = ["KernelEngine", "load_kernel", "load_error"]

_SRC = Path(__file__).with_name("_kernel.c")

# Event opcodes (must match _kernel.c).
OP_RECV = 0     # a=input gid, b=vc, c=slot  -- arrival at an input buffer
OP_ENTER = 1    # a=port-vc id, b=slot, c=port gid -- enter an output queue
OP_PWAKE = 2    # a=port gid                 -- elided link-free/credit retry
OP_DELIVER = 3  # c=slot                     -- the packet reaches its NIC
OP_NWAKE = 4    # a=node                     -- elided NIC link-free/credit retry
OP_GEN = 5      # a=node                     -- pregenerated synthetic injection
OP_CALL = 6     # a=callable, b=args         -- generic scheduled callback

#: Why the kernel failed to load (None until an attempt fails).
load_error: Optional[str] = None

_mod = None
_attempted = False


def _jit_build_and_load():
    """Compile the shipped C source into a cached extension and load it."""
    source = _SRC.read_bytes()
    extra = shlex.split(os.environ.get("REPRO_KERNEL_CFLAGS", ""))
    tag = hashlib.sha256(
        source + sys.implementation.cache_tag.encode()
        + "\0".join(extra).encode()
    ).hexdigest()[:16]
    cache = Path(
        os.environ.get("REPRO_KERNEL_CACHE")
        or Path.home() / ".cache" / "repro-kernel"
    )
    ext = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    so = cache / f"_kernel-{tag}{ext}"
    if not so.exists():
        cache.mkdir(parents=True, exist_ok=True)
        cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
        cmd = shlex.split(cc)[:1] + [
            "-O2",
            "-fPIC",
            "-shared",
            f"-I{sysconfig.get_paths()['include']}",
            f"-I{sysconfig.get_paths()['platinclude']}",
        ]
        if sys.platform == "darwin":
            cmd += ["-undefined", "dynamic_lookup"]
        tmp = so.with_name(f".{so.name}.{os.getpid()}.tmp")
        cmd += extra + [str(_SRC), "-o", str(tmp)]
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


class KernelEngine:
    """Engine over the compiled kernel (see the module docstring)."""

    def __init__(self, net) -> None:
        mod = load_kernel()
        if mod is None:
            raise RuntimeError(f"compiled kernel unavailable: {load_error}")
        self.net = net
        self.st = SoAState.from_network(net)
        #: The C kernel: event heap, simulation state and dispatch loop.
        self.kernel = mod.Kernel(self.st, net, Packet)
        self.nic_shims = [KernelNIC(self.kernel, node)
                          for node in range(self.st.NN)]

    # -- clock state (owned by the kernel) -------------------------------------

    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def _seq(self) -> int:
        return self.kernel.seq

    @_seq.setter
    def _seq(self, value: int) -> None:
        self.kernel.seq = value

    @property
    def events_executed(self) -> int:
        return self.kernel.executed

    # -- engine API ----------------------------------------------------------

    def _push(self, t: float, s: int, op: int, a, b, c) -> None:
        self.kernel.push(t, s, op, a, b, c)

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` *delay* ns after the current time."""
        k = self.kernel
        k.seq += 1
        k.push(k.now + delay, k.seq, OP_CALL, fn, args, 0)

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute time *when* (>= now)."""
        k = self.kernel
        if when < k.now:
            raise ValueError(
                f"schedule_at(when={when!r}) is in the past (now={k.now!r}); "
                f"events cannot be scheduled before the current simulated time"
            )
        k.seq += 1
        k.push(when, k.seq, OP_CALL, fn, args, 0)

    def clear(self) -> None:
        """Reset queue, clock and counters (simulation state is
        per-Network and rebuilt with it)."""
        self.kernel.clear()

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return self.kernel.pending()

    def iter_pending(self) -> Iterator[tuple]:
        """All queued event records, in no particular order (audits)."""
        return iter(self.kernel.events())

    def kernel_stats(self) -> dict:
        """In-kernel event counts and the Python-escape time split."""
        return self.kernel.stats()

    def memory_stats(self) -> dict:
        """Live and peak packet slots, credit-FIFO high-water marks."""
        return self.kernel.memory()

    # -- per-port counters ----------------------------------------------------

    def reset_sent(self) -> None:
        """Zero the per-port transmission counters (warm-up boundary)."""
        self.kernel.reset_sent()

    def sent_counts(self) -> list:
        """Packets transmitted per port gid since the last reset."""
        return memoryview(self.kernel.view("p_sent")).tolist()

    def sync_ports(self) -> None:
        """Write the live per-port counters into the object-mode
        ``OutputPort`` instances, so cold-path readers (utilization maps,
        debugging) see one representation."""
        sent = memoryview(self.kernel.view("p_sent"))
        queued = memoryview(self.kernel.view("p_queued"))
        for gid, port in enumerate(self.st.obj_ports):
            port.sent_packets = sent[gid]
            port.queued = queued[gid]

    # -- synthetic-traffic pregeneration --------------------------------------

    def setup_synthetic(
        self,
        pattern,
        mean_ia: float,
        horizon: float,
        seed: int,
        arrival: str,
        packet_bytes: int,
    ) -> None:
        """Pregenerate every node's injection stream and seed GEN events.

        Exactness: the object engine draws, per node and per event,
        ``pick_destination(node, rng)`` then ``expovariate`` from a
        *private* per-node RNG seeded off one master stream.  Playing
        each node's draws forward here consumes the identical per-node
        stream (patterns are pure functions of ``(node, rng)``), and the
        per-node timestamps accumulate with the same float additions.
        The trailing entry is the object engine's final past-horizon
        generate event (which fires and does nothing); it is kept so
        event and sequence accounting stay aligned.
        """
        k = self.kernel
        master = random.Random(seed)
        poisson = arrival == "poisson"
        pick = pattern.pick_destination
        seq = k.seq
        for node in range(self.st.NN):
            rng = random.Random(master.getrandbits(64))
            t = rng.uniform(0.0, mean_ia)
            expo = rng.expovariate
            times = []
            dsts = []
            while t < horizon:
                dst = pick(node, rng)
                if dst is None:
                    dst = -1
                elif dst == node:
                    raise ValueError(f"pattern sent node {node} traffic to itself")
                times.append(t)
                dsts.append(dst)
                t = t + (expo(1.0 / mean_ia) if poisson else mean_ia)
            times.append(t)  # past-horizon sentinel event
            dsts.append(-2)
            k.set_stream(node, times, dsts)
            seq += 1
            k.push(times[0], seq, OP_GEN, node, 0, 0)
        k.seq = seq
        k.pkt_bytes = packet_bytes

    # -- fast-path spec --------------------------------------------------------

    def _fastpath_spec(self):
        """Bindings for the C fast paths, or ``None`` when ineligible.

        Two independently-gated tiers:

        * ``route_mode >= 0`` moves the entire NIC send -- routing
          candidate selection (with a C replica of the ``random.Random``
          draw stream) and inject accounting -- behind the C boundary.
          Requires compiled routing of a known type and no checker (the
          checker wraps ``net.make_packet``).
        * ``deliver_fast`` accumulates the per-packet eject statistics
          in C arrays, flushed via ``StatsCollector.absorb_kernel``.
          Requires no checker/tracer/listener/message-tracking observer.

        Escapes remain for cold paths only: cache-row misses (BFS refill
        under faults) call back into ``RouteCache``, scheduled CALLs and
        fault diverts run in Python, and unknown routing setups keep
        the ``make_packet`` escape.  Set ``REPRO_KERNEL_NO_FASTPATH=1``
        to force escapes everywhere.
        """
        if os.environ.get("REPRO_KERNEL_NO_FASTPATH"):
            return None
        net = self.net
        if net.checker is not None:
            return None
        routing = net.routing
        cache = getattr(routing, "cache", None)
        route_mode = -1
        rngs = []
        if getattr(routing, "compiled", False) and cache is not None:
            # Strict type checks: a subclass could override route(), so
            # only the exact implementations ported to C are eligible.
            rtype = type(routing)
            if rtype is MinimalRouting:
                if routing.selection == "random":
                    route_mode, rngs = 0, [routing._rng]
                else:
                    route_mode = 1
            elif rtype is IndirectRandomRouting:
                route_mode, rngs = 2, [routing._rng]
            elif (
                rtype is UGALRouting
                and routing._local
                and routing._minimal_random
            ):
                route_mode = 3
                rngs = [routing._minimal._rng, routing._indirect._rng]
        deliver_fast = int(
            net.tracer is None
            and not net._delivery_listeners
            and net._msg_track is None
        )
        if route_mode < 0 and not deliver_fast:
            return None
        stats = net.stats
        threshold = getattr(routing, "threshold", None)
        return SimpleNamespace(
            route_mode=route_mode,
            deliver_fast=deliver_fast,
            stats_absorb=stats.absorb_kernel,
            win_start=stats.window_start,
            win_end=stats.window_end,
            rngs=rngs,
            min_rows=cache.minimal_rows if cache is not None else None,
            leg_rows=cache.leg_rows if cache is not None else None,
            composed=cache._composed if cache is not None else None,
            selfs=cache._self if cache is not None else None,
            minimal_fill=cache.minimal_fill if cache is not None else None,
            leg_fill=cache.leg_fill if cache is not None else None,
            compose=cache.compose if cache is not None else None,
            compose_or_none=(
                cache.compose_or_none if cache is not None else None
            ),
            self_route=cache.self_route if cache is not None else None,
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
        # observers, CALLs) allocate but never create cycles, so the
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
