"""Read-only wiring the compiled kernel is built from.

:class:`SoAState` lays a topology's switch wiring out as parallel int32
arrays (``array('i')``) indexed by dense integer ids:

- **ports** get a global id ``gid`` (``p_off[router] + out_idx``);
- **port x VC** pairs are ``gid * V + vc``;
- **inputs** (router input ports, including injection inputs) get a
  global id ``p_off[router] + in_idx`` (a router has as many inputs as
  outputs), and input VCs ``in_gid * V + vc``.

Every id is derived from the topology alone, in the object engine's
numbering (:meth:`SoAState.from_topology`, plain loops over each
router's neighbours and nodes that write the ten arrays directly, with
no numpy), so a kernel network builds no ``Router``, ``OutputPort`` or
``NIC``; ``tests/test_kernel_wiring.py``
holds the ids to an object network's wiring on every topology family.
The compiled kernel (:mod:`repro.sim.vec.kernel`) copies each array's
buffer into its own C array once and owns every piece of *mutable*
state from then on; Python reads live state only through kernel
methods, which return snapshot copies of it.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Optional

from repro.routing.vc import HopIndexVC, PhaseVC

if TYPE_CHECKING:  # pragma: no cover
    from repro.routing.base import RoutingAlgorithm
    from repro.sim.config import SimConfig
    from repro.topology.base import Topology

__all__ = ["SoAState", "KernelNIC"]


class SoAState:
    """Flat network wiring; see the module docstring for the layout."""

    __slots__ = (
        # dimensions / physics constants
        "V", "NN", "NR", "NP", "NI", "OQ_CAP", "VC_CAP", "NIC_CAP",
        "PKT_BYTES", "SER", "LINK", "SWITCH", "SL",
        # router/port geometry
        "p_off", "in_pbase", "in_up_port", "in_up_node",
        "p_dest_in", "p_has_cred",
        # NIC wiring (len NN)
        "n_in", "n_rid", "n_eject",
        # directed-channel table (flat, stride NR), behind UGAL's
        # congestion probe and the kernel's route table:
        # row_port[r * NR + neighbor] -> port gid
        "row_port",
        # the routing's VC labelling (see _vc_labelling)
        "vc_scheme", "vc_min", "vc_ind",
    )

    @classmethod
    def from_topology(cls, topology: "Topology", routing: "RoutingAlgorithm",
                      config: "SimConfig") -> "SoAState":
        """The wiring of *topology* with *routing*'s VC count and
        *config*'s physics, numbered as the object engine wires it:

        - router ``r``'s outputs are its neighbours in ``neighbors(r)``
          order, then its nodes in ``nodes_of(r)`` order;
        - its input from neighbour ``u`` is ``port(r, u)``;
        - each node's injection input follows the neighbours, in
          ``nodes_of(r)`` order.
        """
        st = cls()
        topo = topology
        V = st.V = routing.num_vcs
        NN = st.NN = topo.num_nodes
        NR = st.NR = topo.num_routers
        st.PKT_BYTES = config.packet_bytes
        st.SER = config.packet_time_ns
        st.LINK = config.link_latency_ns
        st.SWITCH = config.switch_latency_ns
        st.SL = st.SER + st.LINK
        # Output-queue and downstream-buffer capacity per VC (the
        # "input-output-buffered" provisioning), and a NIC's credits.
        st.OQ_CAP = st.VC_CAP = config.buffer_packets_per_vc(V)
        st.NIC_CAP = config.buffer_packets_per_port

        # A router has one output and one input per neighbour and per
        # node, numbered alike, so one offset array spaces both ids.
        # in_pbase (input gid -> its router's port-id base) is a
        # hot-loop shortcut.
        nbrs = [topo.neighbors(r) for r in range(NR)]
        nodes = [topo.nodes_of(r) for r in range(NR)]
        p_off, in_pbase = array("i"), array("i")
        for nb, ns in zip(nbrs, nodes):
            p_off.append(len(in_pbase))
            in_pbase.extend([len(in_pbase)] * (len(nb) + len(ns)))
        total = st.NP = st.NI = len(in_pbase)

        # row_port is the directed-channel table in global port ids
        # (row-major, stride NR -- one multiply-indexed load per UGAL-L
        # probe; -1 where routers are not adjacent); the kernel also
        # enumerates its minimal paths from it.  Router r's output to
        # its i-th neighbour is port p_off[r] + i.
        row_port = array("i", [-1]) * (NR * NR)
        for r, nb in enumerate(nbrs):
            base, row = p_off[r], r * NR
            for i, v in enumerate(nb):
                row_port[row + v] = base + i

        # A channel's downstream input, v's input from r, is numbered
        # port(v, r) like v's output back to r: the reverse channel's
        # entry.  Each node's injection input and ejection output follow
        # its router's neighbours, in nodes_of order; n_rid is node ->
        # router id, for the kernel's in-C route selection.
        p_dest_in = array("i", [-1]) * total
        p_has_cred = array("i", [0]) * total
        in_up_node = array("i", [-1]) * total
        n_in, n_rid, n_eject = (array("i", [0]) * NN for _ in range(3))
        for r, (nb, ns) in enumerate(zip(nbrs, nodes)):
            base, deg = p_off[r], len(nb)
            p_dest_in[base:base + deg] = array(
                "i", [row_port[v * NR + r] for v in nb])
            p_has_cred[base:base + deg] = array("i", [1]) * deg
            in_up_node[base + deg:base + deg + len(ns)] = array("i", ns)
            for j, node in enumerate(ns):
                n_in[node] = base + deg + j
                n_rid[node] = r
                n_eject[node] = deg + j
        # So p_dest_in is its own inverse: the port that feeds an input
        # (in_up_port) is the input's entry in p_dest_in.
        in_up_port = array("i", p_dest_in)
        st.p_off, st.in_pbase, st.row_port = p_off, in_pbase, row_port
        st.p_dest_in, st.p_has_cred = p_dest_in, p_has_cred
        st.in_up_port, st.in_up_node = in_up_port, in_up_node
        st.n_in, st.n_rid, st.n_eject = n_in, n_rid, n_eject
        st.vc_scheme, st.vc_min, st.vc_ind = _vc_labelling(routing)
        return st


def _vc_labelling(routing) -> tuple:
    """``(scheme, minimal budget, indirect budget)`` of *routing*'s
    compiled routes: scheme 0 for :class:`~repro.routing.vc.HopIndexVC`,
    1 for :class:`~repro.routing.vc.PhaseVC` (exact types: a subclass may
    label differently), -1 for any other policy, whose routes the kernel
    takes from the ``RouteCache`` instead of labelling them itself."""
    policy = getattr(getattr(routing, "cache", None), "vc_policy", None)
    scheme = {HopIndexVC: 0, PhaseVC: 1}.get(type(policy), -1)
    if scheme < 0:
        return -1, 0, 0
    return scheme, policy.num_vcs_minimal, policy.num_vcs_indirect


class KernelNIC:
    """Driver-facing NIC shim over kernel state.

    Implements the object :class:`~repro.sim.nic.NIC`'s driver interface
    (``submit`` plus the observability counters) so workload drivers,
    exchanges and tests address NICs identically on both engines.
    ``submit`` goes straight into the kernel, which queues the message
    as one entry and sends its first packet at once when the NIC is
    idle.
    """

    __slots__ = ("_k", "node")

    def __init__(self, kernel, node: int):
        self._k = kernel
        self.node = node

    def submit(
        self,
        dst_node: int,
        size: int,
        msg_id: Optional[int] = None,
        interleave: bool = False,
    ) -> None:
        """Queue a *size*-byte message (see :meth:`repro.sim.nic.NIC.submit`)."""
        self._k.nic_submit(self.node, dst_node, size, msg_id, interleave)

    # -- observability (mirrors the object NIC's counters) -------------------

    @property
    def queued_packets(self) -> int:
        return self._k.nic_info(self.node)[0]

    @property
    def credit_stalls(self) -> int:
        return self._k.nic_info(self.node)[1]

    @property
    def credits(self) -> int:
        """Credits materialised so far (pending arrivals not drained)."""
        return self._k.nic_info(self.node)[2]
