"""Network topologies studied by the paper.

Diameter-two designs:

- :class:`repro.topology.SlimFly` -- direct MMS-graph topology (Sec. 2.1.2),
- :class:`repro.topology.HyperX2D` -- direct generalized hypercube (Sec. 2.1.1),
- :class:`repro.topology.FatTree2L` -- indirect baseline (Sec. 2.2.1),
- :class:`repro.topology.MLFM` -- Multi-Layer Full-Mesh SSPT (Sec. 2.2.3),
- :class:`repro.topology.OFT` -- two-level Orthogonal Fat-Tree SSPT (Sec. 2.2.4).

Reference topologies for cost/scalability comparison:

- :class:`repro.topology.FatTree3L` (diameter 4),
- :class:`repro.topology.Dragonfly` (diameter 3).

All of them are :class:`repro.topology.Topology` instances; see
:mod:`repro.topology.base` for the shared interface.
"""

from repro._lazy import lazy_exports

#: Every public name and the submodule that defines it, imported when
#: the name is first read (see :mod:`repro._lazy`).
_EXPORTS = {
    "Topology": ".base",
    "LINK_FLAT": ".base",
    "LINK_UP": ".base",
    "LINK_DOWN": ".base",
    "SlimFly": ".slimfly",
    "slim_fly_delta": ".slimfly",
    "slim_fly_generator_sets": ".slimfly",
    "valid_slim_fly_q": ".slimfly",
    "HyperX2D": ".hyperx",
    "FatTree2L": ".fattree",
    "FatTree3L": ".fattree",
    "MLFM": ".mlfm",
    "OFT": ".oft",
    "SSPT": ".spt",
    "spt_incidence": ".spt",
    "verify_spt_incidence": ".spt",
    "ml3b_table": ".ml3b",
    "verify_ml3b": ".ml3b",
    "valid_oft_k": ".ml3b",
    "Dragonfly": ".dragonfly",
    "ValidationReport": ".validate",
    "validate_topology": ".validate",
    "LoadedTopology": ".serialize",
    "save_topology": ".serialize",
    "load_topology": ".serialize",
    "topology_to_dict": ".serialize",
    "topology_from_dict": ".serialize",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
