"""What a name means: the one registry of topology, routing, traffic,
exchange and workload specs.

Every experiment point is described as plain data -- a topology spec
string plus ``(name, kwargs)`` pairs for routing and traffic -- so it
can cross a process boundary, be content-hashed for caching
(:class:`repro.orchestrate.Job`) and still mean exactly one thing.
This module owns both directions of that mapping:

- the CLI's short names to specs (:func:`cli_routing_spec`,
  :func:`cli_pattern_spec`), where a name's defaults are chosen;
- specs to live objects (:func:`parse_topology`, :func:`build_routing`,
  :func:`build_pattern`, :func:`build_exchange`,
  :func:`build_workload`), which every executor calls.

Topology specs are ``family:key=value,...``:

- ``sf:q=5[,p=floor|ceil|<int>]``
- ``mlfm:h=5[,l=...,p=...]``      - ``oft:k=4[,p=...]``
- ``sspt:r1=4,r2=2``              - ``hyperx:r=9`` or ``hyperx:s1=4,s2=4,p=3``
- ``ft2:r=8``  ``ft3:r=8``        - ``dfly:p=2[,a=...,h=...]``
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro import workload
from repro.routing import IndirectRandomRouting, MinimalRouting, UGALRouting
from repro.topology import (
    MLFM,
    OFT,
    SSPT,
    Dragonfly,
    FatTree2L,
    FatTree3L,
    HyperX2D,
    SlimFly,
    Topology,
)
from repro.traffic import (
    AllToAll,
    BitComplement,
    BitReverse,
    HotspotTraffic,
    NearestNeighbor3D,
    ShiftTraffic,
    Tornado,
    Transpose,
    UniformRandom,
    paper_torus_dims,
    worst_case_traffic,
)

__all__ = [
    "Spec",
    "parse_topology",
    "cli_routing_spec",
    "cli_pattern_spec",
    "build_routing",
    "build_pattern",
    "build_exchange",
    "build_workload",
]

#: A declarative routing/pattern spec: (registry name, picklable kwargs).
Spec = Tuple[str, Dict[str, Any]]


def _parse_kv(spec: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    if not spec:
        return out
    for item in spec.split(","):
        if "=" not in item:
            raise ValueError(f"bad parameter {item!r} (expected key=value)")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_topology(spec: str) -> Topology:
    """Build a topology from a ``family:key=value,...`` spec string."""
    family, _, params = spec.partition(":")
    kv = _parse_kv(params)
    family = family.lower()
    try:
        if family == "sf":
            p: object = kv.get("p", "floor")
            if p not in ("floor", "ceil"):
                p = int(p)  # type: ignore[arg-type]
            return SlimFly(int(kv["q"]), p)  # type: ignore[arg-type]
        if family == "mlfm":
            return MLFM(
                int(kv["h"]),
                l=int(kv["l"]) if "l" in kv else None,
                p=int(kv["p"]) if "p" in kv else None,
            )
        if family == "oft":
            return OFT(int(kv["k"]), p=int(kv["p"]) if "p" in kv else None)
        if family == "sspt":
            return SSPT(int(kv["r1"]), int(kv["r2"]))
        if family == "hyperx":
            if "r" in kv:
                return HyperX2D.balanced(int(kv["r"]))
            return HyperX2D(int(kv["s1"]), int(kv["s2"]), int(kv["p"]) if "p" in kv else None)
        if family == "ft2":
            return FatTree2L(int(kv["r"]))
        if family == "ft3":
            return FatTree3L(int(kv["r"]))
        if family == "dfly":
            return Dragonfly(
                int(kv["p"]),
                a=int(kv["a"]) if "a" in kv else None,
                h=int(kv["h"]) if "h" in kv else None,
            )
    except KeyError as exc:
        raise ValueError(f"topology spec {spec!r}: missing parameter {exc}") from exc
    raise ValueError(f"unknown topology family {family!r}")


# --------------------------------------------------------------------------
# CLI names -> specs.
# --------------------------------------------------------------------------


def cli_routing_spec(topology: Topology, name: str) -> Spec:
    """The spec a CLI routing name stands for on *topology*.

    ``ugal`` (alias ``ugal-a``) is UGAL with four indirect candidates:
    Slim Fly's hop-weighted cost on a Slim Fly, a constant ``c = 2``
    elsewhere; ``ugal-ath`` (alias ``ugalth``) adds a 10% threshold.
    """
    name = name.lower()
    if name == "min":
        return ("min", {})
    if name == "inr":
        return ("inr", {})
    if name in ("ugal", "ugal-a", "ugal-ath", "ugalth"):
        if isinstance(topology, SlimFly):
            kwargs: Dict[str, Any] = {"cost_mode": "sf", "c_sf": 1.0, "num_indirect": 4}
        else:
            kwargs = {"c": 2.0, "num_indirect": 4}
        if name in ("ugal-ath", "ugalth"):
            kwargs["threshold"] = 0.10
        return ("ugal", kwargs)
    raise ValueError(f"unknown routing {name!r} (min | inr | ugal | ugal-ath)")


def cli_pattern_spec(topology: Topology, name: str, seed: int = 0) -> Spec:
    """The spec a CLI traffic-pattern name (``shift:k``, ``hotspot:f``) stands for."""
    name = name.lower()
    if name == "uniform":
        return ("uniform", {})
    if name == "worstcase":
        return ("worstcase", {"seed": seed})
    if name.startswith("shift"):
        _, _, arg = name.partition(":")
        if arg:
            return ("shift", {"shift": int(arg)})
        return ("shift", {})
    if name in ("bitcomp", "bitrev", "transpose", "tornado"):
        return (name, {})
    if name.startswith("hotspot"):
        _, _, arg = name.partition(":")
        return ("hotspot", {"fraction": float(arg) if arg else 0.2})
    raise ValueError(
        f"unknown pattern {name!r} (uniform | worstcase | shift[:k] | bitcomp | "
        f"bitrev | transpose | tornado | hotspot[:frac])"
    )


# --------------------------------------------------------------------------
# Specs -> live objects.
# --------------------------------------------------------------------------


def build_routing(name: str, kwargs: Dict[str, Any], topology: Topology, seed: int = 0):
    """A fresh routing algorithm (``min`` | ``inr`` | ``ugal``) on *topology*."""
    name = name.lower()
    if name == "min":
        return MinimalRouting(topology, seed=seed, **kwargs)
    if name == "inr":
        return IndirectRandomRouting(topology, seed=seed, **kwargs)
    if name == "ugal":
        return UGALRouting(topology, seed=seed, **kwargs)
    raise ValueError(f"unknown routing {name!r} (min | inr | ugal)")


def build_pattern(name: str, kwargs: Dict[str, Any], topology: Topology):
    """A fresh synthetic traffic pattern sized for *topology*."""
    name = name.lower()
    n = topology.num_nodes
    if name == "uniform":
        return UniformRandom(n)
    if name == "worstcase":
        return worst_case_traffic(topology, seed=int(kwargs.get("seed", 0)))
    if name == "shift":
        shift = kwargs.get("shift")
        if shift is None:
            shift = topology.nodes_attached(topology.endpoint_routers()[0])
        return ShiftTraffic(n, int(shift))
    if name == "bitcomp":
        return BitComplement(n)
    if name == "bitrev":
        return BitReverse(n)
    if name == "transpose":
        return Transpose(n)
    if name == "tornado":
        return Tornado(n)
    if name == "hotspot":
        return HotspotTraffic(
            n,
            hotspots=list(kwargs.get("hotspots", [0])),
            hot_fraction=float(kwargs.get("fraction", 0.2)),
        )
    raise ValueError(f"unknown pattern {name!r}")


def build_exchange(name: str, kwargs: Dict[str, Any], topology: Topology):
    """A finite exchange: ``a2a`` (all-to-all) or ``nn`` (3D-torus halo)."""
    name = name.lower()
    if name == "a2a":
        return AllToAll(
            topology.num_nodes,
            message_bytes=int(kwargs.get("message_bytes", 512)),
            seed=int(kwargs.get("seed", 0)),
        )
    if name == "nn":
        return NearestNeighbor3D(
            topology.num_nodes,
            message_bytes=int(kwargs.get("message_bytes", 4096)),
            dims=paper_torus_dims(topology),
        )
    raise ValueError(f"unknown exchange {name!r} (a2a | nn)")


def build_workload(name: str, kwargs: Dict[str, Any], topology: Topology):
    """A collective's dependency DAG (:func:`repro.workload.build_workload`).

    *kwargs* carries ``message_bytes``, ``ranks`` and generator extras
    such as ``iterations``; ``dims`` may arrive as a JSON list.
    """
    kw = dict(kwargs)
    message_bytes = int(kw.pop("message_bytes", 4096))
    ranks = kw.pop("ranks", None)
    if "dims" in kw and kw["dims"] is not None:  # JSON round-trips as list
        kw["dims"] = tuple(int(d) for d in kw["dims"])
    return workload.build_workload(
        name, topology.num_nodes, message_bytes, ranks=ranks, **kw
    )
