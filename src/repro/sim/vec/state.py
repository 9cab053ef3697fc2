"""Read-only wiring the compiled kernel is built from.

:class:`SoAState` flattens the object model's *wiring* (routers owning
``OutputPort``/input-queue objects, per-node ``NIC`` objects) into
parallel lists indexed by dense integer ids:

- **ports** get a global id ``gid`` (``p_off[router] + out_idx``);
- **port x VC** pairs are ``gid * V + vc``;
- **inputs** (router input ports, including injection inputs) get a
  global id ``in_off[router] + in_idx``, and input VCs ``in_gid * V + vc``.

The state is *built from* an assembled object-mode network, so the
wiring (neighbor ports, credit sinks, ejection ports) has exactly one
source of truth and cannot drift between the two engines.  The compiled
kernel (:mod:`repro.sim.vec.kernel`) copies these lists into C arrays
once and owns every piece of *mutable* state from then on; Python reads
live state only through kernel methods and read-only buffer views.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.routing.vc import HopIndexVC, PhaseVC
from repro.sim.nic import Descriptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network

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
        # object-mode ports in gid order (for utilization sync)
        "obj_ports",
    )

    @classmethod
    def from_network(cls, net: "Network") -> "SoAState":
        st = cls()
        topo = net.topology
        cfg = net.config
        V = st.V = net.num_vcs
        st.NN = topo.num_nodes
        NR = st.NR = topo.num_routers
        st.SER = cfg.packet_time_ns
        st.LINK = cfg.link_latency_ns
        st.SWITCH = cfg.switch_latency_ns
        st.SL = st.SER + st.LINK
        # Output-queue and downstream-buffer capacity per VC (the
        # "input-output-buffered" provisioning), and a NIC's credits.
        st.OQ_CAP = st.VC_CAP = cfg.buffer_packets_per_vc(V)
        st.NIC_CAP = cfg.buffer_packets_per_port

        # Port and input id spaces.  Ports and inputs are congruent in
        # this model (every router has degree+p of each), but they are
        # flattened independently so the layout survives asymmetries.
        st.p_off = [0] * NR
        in_off = [0] * NR
        np_total = ni_total = 0
        for r, router in enumerate(net.routers):
            st.p_off[r] = np_total
            in_off[r] = ni_total
            np_total += len(router.out)
            ni_total += len(router.in_q)
        NP = st.NP = np_total
        NI = st.NI = ni_total

        in_rid = [0] * NI
        st.in_up_port = [-1] * NI
        st.in_up_node = [-1] * NI
        st.p_dest_in = [-1] * NP
        st.p_has_cred = [False] * NP
        st.obj_ports = []

        from repro.sim.nic import NIC
        from repro.sim.switch import _PortCreditSink

        for r, router in enumerate(net.routers):
            base = st.p_off[r]
            for out_idx, port in enumerate(router.out):
                gid = base + out_idx
                st.obj_ports.append(port)
                if port.downstream is not None:
                    ds_rid = port.downstream.rid
                    st.p_dest_in[gid] = in_off[ds_rid] + port.downstream_in_idx
                if port.credits is not None:
                    if any(c != st.VC_CAP for c in port.credits):
                        raise ValueError("kernel wiring: port credits differ "
                                         "from the per-VC buffer capacity")
                    st.p_has_cred[gid] = True
            ibase = in_off[r]
            for in_idx, upstream in enumerate(router.in_upstream):
                igid = ibase + in_idx
                in_rid[igid] = r
                if isinstance(upstream, NIC):
                    st.in_up_node[igid] = upstream.node
                elif isinstance(upstream, _PortCreditSink):
                    st.in_up_port[igid] = (
                        st.p_off[upstream.router.rid] + upstream.port.out_idx
                    )

        # Hot-loop shortcut: input gid -> its router's port-id base.
        st.in_pbase = [st.p_off[in_rid[i]] for i in range(NI)]

        NN = st.NN
        st.n_in = [0] * NN
        # Node -> router id, for the kernel's in-C route selection
        # (make_packet resolves both endpoints via topology.router_of;
        # the flat list is the array-friendly equivalent).
        st.n_rid = [0] * NN
        for node, nic in enumerate(net.nics):
            st.n_in[node] = in_off[nic.router_id] + nic.in_idx
            st.n_rid[node] = nic.router_id
        st.n_eject = list(net._eject_ports)

        # Directed-channel table in global port ids (row-major, stride
        # NR -- one multiply-indexed load per UGAL-L probe); the kernel
        # also enumerates its minimal paths from it.
        row_port = st.row_port = [-1] * (NR * NR)
        for r in range(NR):
            base = r * NR
            gid = st.p_off[r]
            for out_idx, neighbor in enumerate(topo.neighbors(r)):
                row_port[base + neighbor] = gid + out_idx
        st.vc_scheme, st.vc_min, st.vc_ind = _vc_labelling(net.routing)
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
    (``submit`` / ``set_source`` plus the observability counters) so
    workload drivers, exchanges and tests address NICs identically on
    both engines.  Every call goes straight into the kernel, which
    queues the descriptor and sends at once when the NIC is idle.
    """

    __slots__ = ("_k", "node")

    def __init__(self, kernel, node: int):
        self._k = kernel
        self.node = node

    def submit(self, dst_node: int, size: int, msg_id: Optional[int] = None) -> None:
        """Queue one packet for transmission (time-driven traffic)."""
        self._k.nic_submit(self.node, dst_node, size, msg_id)

    def set_source(self, source: Iterator[Descriptor]) -> None:
        """Attach a pull-source of descriptors (finite exchanges)."""
        self._k.nic_set_source(self.node, source)

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

    @property
    def source(self):
        return self._k.nic_info(self.node)[3]
