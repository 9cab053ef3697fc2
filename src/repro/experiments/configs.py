"""Named experiment configurations.

The paper evaluates four configurations sized like CORAL Summit
(Sec. 4.1):

- SF with q = 13, p = 9 (floor) -- N = 3042,
- SF with q = 13, p = 10 (ceil) -- N = 3380,
- MLFM with h = 15 -- N = 3600,
- OFT with k = 12 -- N = 3192.

Pure-Python flit-level simulation at that scale is expensive, so three
scale presets are provided (DESIGN.md §4): ``tiny`` and ``small`` keep
the identical structure at reduced size (the reproduced quantities are
scale-invariant ratios), ``paper`` matches the paper exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.specs import Spec, parse_topology
from repro.topology import Topology

__all__ = ["ExperimentConfig", "SCALES", "configs_for_scale", "SimWindows", "windows_for_scale"]


@dataclass
class ExperimentConfig:
    """One (topology, adaptive-routing defaults) evaluation target."""

    key: str  # short id, e.g. "sf-floor"
    #: Topology spec (e.g. ``"sf:q=5,p=floor"``; :mod:`repro.experiments.specs`).
    spec: str
    #: Adaptive-routing keyword arguments that performed best for this
    #: topology under synthetic traffic (used for Figs. 13/14).
    ugal_kwargs: Dict[str, object] = field(default_factory=dict)

    def topology(self) -> Topology:
        return parse_topology(self.spec)

    def routing_spec(self, kind: str, **overrides) -> Spec:
        """The routing spec of *kind*: ``min``, ``inr``, or this config's UGAL.

        *overrides* replace entries of :attr:`ugal_kwargs` for the
        adaptive kind (``ugal``, ``adaptive`` or ``ADAPT``).
        """
        if kind in ("min", "MIN"):
            return ("min", {})
        if kind in ("inr", "INR"):
            return ("inr", {})
        if kind in ("ugal", "adaptive", "ADAPT"):
            kwargs = dict(self.ugal_kwargs)
            kwargs.update(overrides)
            return ("ugal", kwargs)
        raise ValueError(f"unknown routing kind {kind!r}")


def _sf_ugal(threshold: Optional[float] = None) -> Dict[str, object]:
    return {"cost_mode": "sf", "c_sf": 1.0, "num_indirect": 4, "threshold": threshold}


def _mlfm_ugal(threshold: Optional[float] = None) -> Dict[str, object]:
    return {"cost_mode": "const", "c": 4.0, "num_indirect": 5, "threshold": threshold}


def _oft_ugal(threshold: Optional[float] = None) -> Dict[str, object]:
    return {"cost_mode": "const", "c": 2.0, "num_indirect": 1, "threshold": threshold}


def _make(scale_params: Dict[str, int]) -> List[ExperimentConfig]:
    q, h, k = scale_params["q"], scale_params["h"], scale_params["k"]
    return [
        ExperimentConfig("sf-floor", f"sf:q={q},p=floor", _sf_ugal()),
        ExperimentConfig("sf-ceil", f"sf:q={q},p=ceil", _sf_ugal()),
        ExperimentConfig("mlfm", f"mlfm:h={h}", _mlfm_ugal()),
        ExperimentConfig("oft", f"oft:k={k}", _oft_ugal()),
    ]


SCALES: Dict[str, Dict] = {
    # N in the low hundreds: seconds per simulation point.
    "tiny": {"q": 5, "h": 5, "k": 4},
    # N around 400-500: tens of seconds per point.
    "small": {"q": 7, "h": 7, "k": 6},
    # The paper's configurations (N ~ 3000-3600): hours per figure in
    # pure Python -- build them, but budget accordingly.
    "paper": {"q": 13, "h": 15, "k": 12},
}


def configs_for_scale(scale: str = "tiny") -> List[ExperimentConfig]:
    """The four evaluation configurations at the requested scale."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r} (choose from {sorted(SCALES)})")
    return _make(SCALES[scale])


@dataclass
class SimWindows:
    """Per-scale simulation horizons (ns) and message sizes (bytes)."""

    warmup_ns: float
    measure_ns: float
    a2a_message_bytes: int
    nn_message_bytes: int


def windows_for_scale(scale: str = "tiny") -> SimWindows:
    """Warm-up/measurement windows scaled with the configuration size.

    The paper simulates 20 us warm-up + 180 us measurement and uses
    7.5 KB (A2A) / 512 KB (NN) messages; reduced scales shrink both to
    keep each data point at interactive cost.
    """
    if scale == "paper":
        return SimWindows(20_000.0, 180_000.0, 7_680, 524_288)
    if scale == "small":
        return SimWindows(3_000.0, 10_000.0, 1_024, 8_192)
    return SimWindows(2_000.0, 6_000.0, 512, 4_096)
