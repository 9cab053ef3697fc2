"""Traffic patterns and workloads (paper Sec. 4.2-4.4).

Synthetic (rate-driven): :class:`UniformRandom`, :class:`ShiftTraffic`,
:class:`PermutationTraffic`, and the per-topology adversarial patterns
from :func:`worst_case_traffic`.

Exchanges (finite): :class:`AllToAll` and :class:`NearestNeighbor3D`.
"""

from repro._lazy import lazy_exports

#: Every public name and the submodule that defines it, imported when
#: the name is first read (see :mod:`repro._lazy`).
_EXPORTS = {
    "SyntheticTraffic": ".base",
    "ExchangeTraffic": ".base",
    "PermutationTraffic": ".base",
    "UniformRandom": ".uniform",
    "BitComplement": ".classic",
    "BitReverse": ".classic",
    "Transpose": ".classic",
    "Tornado": ".classic",
    "HotspotTraffic": ".classic",
    "ShiftTraffic": ".shift",
    "shift_permutation": ".shift",
    "worst_case_traffic": ".worstcase",
    "SlimFlyWorstCase": ".worstcase",
    "slimfly_worst_case_chain": ".worstcase",
    "AllToAll": ".alltoall",
    "NearestNeighbor3D": ".nearest",
    "best_torus_dims": ".mapping",
    "paper_torus_dims": ".mapping",
    "torus_rank": ".mapping",
    "torus_coords": ".mapping",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
