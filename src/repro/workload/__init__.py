"""Collective-communication workload engine (closed-loop evaluation).

The paper evaluates topologies under open-loop synthetic traffic
(Sec. 6); real HPC/ML jobs are closed-loop -- ranks send the *next*
message only when its dependencies complete.  This package expresses
such workloads as dependency DAGs of messages and drives them through
the flit-level simulator:

- :mod:`~repro.workload.dag` -- :class:`Workload` / :class:`Message`
  (nodes = sends with src/dst/size, edges = happens-after), validation
  and critical-path analysis;
- :mod:`~repro.workload.collectives` -- schedule generators: ring and
  recursive-doubling all-reduce, ring all-gather, 3D-stencil halo
  exchange, and the paper's phased linear-shift all-to-all;
- :mod:`~repro.workload.driver` -- the closed-loop driver releasing
  messages via ``NIC.submit`` as their predecessors complete.  The
  network's countdown (:meth:`repro.sim.Network.watch_messages`; on
  the kernel, counted in C) records every completion time and each
  phase's delivered packets per route kind, and reports only the
  completions that release other messages, once each.

Typical use::

    from repro.sim import Network
    from repro.workload import ring_allreduce

    w = ring_allreduce(ranks=topo.num_nodes, message_bytes=65536)
    result = Network(topo, routing).run_workload(w)
    print(result["completion_ns"], result["link_load_skew"])
"""

from repro.workload.collectives import (
    WORKLOAD_GENERATORS,
    build_workload,
    halo_exchange_3d,
    largest_power_of_two,
    phased_alltoall,
    recursive_doubling_allreduce,
    ring_allgather,
    ring_allreduce,
)
from repro.workload.dag import CriticalPath, Message, Workload
from repro.workload.driver import WorkloadDriver, run_workload

__all__ = [
    "Message",
    "Workload",
    "CriticalPath",
    "ring_allreduce",
    "recursive_doubling_allreduce",
    "ring_allgather",
    "halo_exchange_3d",
    "phased_alltoall",
    "WORKLOAD_GENERATORS",
    "build_workload",
    "largest_power_of_two",
    "WorkloadDriver",
    "run_workload",
]
