"""Read-only wiring the compiled kernel is built from.

:class:`SoAState` lays a topology's switch wiring out as parallel lists
indexed by dense integer ids:

- **ports** get a global id ``gid`` (``p_off[router] + out_idx``);
- **port x VC** pairs are ``gid * V + vc``;
- **inputs** (router input ports, including injection inputs) get a
  global id ``p_off[router] + in_idx`` (a router has as many inputs as
  outputs), and input VCs ``in_gid * V + vc``.

Every id is derived from the topology alone, in the object engine's
numbering (:meth:`SoAState.from_topology`), so a kernel network builds
no ``Router``, ``OutputPort`` or ``NIC``; ``tests/test_kernel_wiring.py``
holds the ids to an object network's wiring on every topology family.
The compiled kernel (:mod:`repro.sim.vec.kernel`) copies these lists
into C arrays once and owns every piece of *mutable* state from then
on; Python reads live state only through kernel methods, which return
snapshot copies of it.
"""

from __future__ import annotations

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
        "SER", "LINK", "SWITCH", "SL",
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
        st.SER = config.packet_time_ns
        st.LINK = config.link_latency_ns
        st.SWITCH = config.switch_latency_ns
        st.SL = st.SER + st.LINK
        # Output-queue and downstream-buffer capacity per VC (the
        # "input-output-buffered" provisioning), and a NIC's credits.
        st.OQ_CAP = st.VC_CAP = config.buffer_packets_per_vc(V)
        st.NIC_CAP = config.buffer_packets_per_port

        # A router has one output and one input per neighbour and per
        # node, numbered alike, so one offset list spaces both ids.
        p_off = st.p_off = [0] * NR
        total = 0
        for r in range(NR):
            p_off[r] = total
            total += topo.degree(r) + len(topo.nodes_of(r))
        st.NP = st.NI = total

        # Hot-loop shortcut in_pbase: input gid -> its router's port-id
        # base.  row_port is the directed-channel table in global port
        # ids (row-major, stride NR -- one multiply-indexed load per
        # UGAL-L probe); the kernel also enumerates its minimal paths
        # from it.  n_rid is node -> router id, for the kernel's in-C
        # route selection.
        st.in_pbase = []
        st.in_up_port = [-1] * total
        st.in_up_node = [-1] * total
        st.p_dest_in = [-1] * total
        st.p_has_cred = [False] * total
        row_port = st.row_port = [-1] * (NR * NR)
        st.n_in = [0] * NN
        st.n_rid = [0] * NN
        st.n_eject = [0] * NN
        port = topo.port
        for r in range(NR):
            base = p_off[r]
            neighbors = topo.neighbors(r)
            deg = len(neighbors)
            for out_idx, u in enumerate(neighbors):
                gid = base + out_idx
                ds_in = p_off[u] + port(u, r)
                st.p_dest_in[gid] = ds_in
                st.p_has_cred[gid] = True
                st.in_up_port[ds_in] = gid
                row_port[r * NR + u] = gid
            nodes = topo.nodes_of(r)
            for local, node in enumerate(nodes):
                st.in_up_node[base + deg + local] = node
                st.n_in[node] = base + deg + local
                st.n_rid[node] = r
                st.n_eject[node] = deg + local
            st.in_pbase.extend([base] * (deg + len(nodes)))
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
