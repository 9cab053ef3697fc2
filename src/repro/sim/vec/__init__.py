"""Compiled simulator backend (``SimConfig(backend="kernel")``).

The object engine (:mod:`repro.sim.engine` + switch/NIC objects) pays a
Python callback dispatch, an argument tuple and several attribute hops
for *every* event -- about 13 heap events per delivered packet.  The
kernel backend keeps the physics and the event *order* bit-identical
while running the whole switch pipeline in C
(:mod:`repro.sim.vec.kernel`): typed integer events over flat
``(router, port, vc)`` ids, with the simulation state held in C arrays,
ring buffers and recycled packet slots inside the kernel object.

Roughly 40% of the object engine's events (link-free and credit-return
callbacks) exist only to flip one flag or bump one counter; the kernel
elides them and applies their effects lazily, while *reserving their
sequence numbers* so the surviving events execute in exactly the object
engine's order -- including the shared-RNG draw order that UGAL/Valiant
routing depends on.  The golden conformance suite
(``tests/golden/conformance.json``) is the gate.

The kernel is compiled from its shipped C source at first use; when
that is impossible, :class:`~repro.sim.network.Network` warns once and
runs the object engine.  Select with ``SimConfig(backend="kernel")`` or
``--backend kernel`` on the CLI; see docs/PERFORMANCE.md ("Choosing a
backend").
"""

from repro.sim.vec.state import KernelNIC, SoAState

__all__ = ["KernelNIC", "SoAState"]
