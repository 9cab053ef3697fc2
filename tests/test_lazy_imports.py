"""What a run imports, and when.

``repro.sim``, ``repro.routing``, ``repro.topology``, ``repro.traffic``
and ``repro.maths`` resolve their public names on first use
(:mod:`repro._lazy`), so a kernel run executes only the modules it
uses.  Each check that depends on what is already loaded runs in a
fresh interpreter: this test process has imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.sim.vec.kernel import load_kernel

needs_kernel = pytest.mark.skipif(
    load_kernel() is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)

LAZY_PACKAGES = ("repro.sim", "repro.routing", "repro.topology",
                 "repro.traffic", "repro.maths")

#: Modules a kernel run of Slim Fly with UGAL never uses, open loop or
#: closed loop with link faults: the object engine, the checker, the
#: tracer, the CDG check, forwarding tables, the other topology
#: families and serialisation, the exchange and adversarial patterns,
#: MOLS and the Moore bound.
NOT_LOADED = (
    "repro.sim.engine",
    "repro.sim.nic",
    "repro.sim.switch",
    "repro.sim.invariants",
    "repro.sim.trace",
    "repro.routing.deadlock",
    "repro.routing.tables",
    "repro.topology.mlfm",
    "repro.topology.oft",
    "repro.topology.ml3b",
    "repro.topology.spt",
    "repro.topology.hyperx",
    "repro.topology.fattree",
    "repro.topology.dragonfly",
    "repro.topology.serialize",
    "repro.topology.validate",
    "repro.traffic.worstcase",
    "repro.traffic.nearest",
    "repro.traffic.shift",
    "repro.traffic.alltoall",
    "repro.maths.mols",
    "repro.maths.moore",
)

#: Run in a fresh interpreter as ``SCRIPT kind backend``: the imports
#: the end-to-end benchmark's child makes (``benchmarks/e2e/child.py``),
#: one network on SF q=5 and one run of that kind.  Prints the repro
#: modules (and numpy) loaded before the run and those the run added.
SCRIPT = """
import json, sys
from repro.routing import UGALRouting
from repro.sim import Network, SimConfig
from repro.topology import SlimFly
from repro.traffic import UniformRandom
from repro.workload import build_workload

kind, backend = sys.argv[1], sys.argv[2]
open_loop = kind in ("open", "checked", "traced")
topo = SlimFly(5)
faults = ("drip@1000:n=8,every=500,seed=0",) if kind == "halo-faults" else ()
config = SimConfig(backend=backend, faults=faults, fault_policy="reroute",
                   check=kind == "checked")
work = (UniformRandom(topo.num_nodes) if open_loop
        else build_workload("halo3d", topo.num_nodes, 1024))
net = Network(topo, UGALRouting(topo, seed=0), config)
if kind == "traced":
    tracer = net.enable_trace()
def loaded():
    return {m for m in sys.modules if m.startswith("repro") or m == "numpy"}
before = loaded()
if open_loop:
    stats = net.run_synthetic(work, load=0.5, warmup_ns=200.0,
                              measure_ns=600.0, seed=1)
    delivered = stats.ejected_packets
    assert kind != "traced" or tracer.records
else:
    result = net.run_workload(work)
    delivered = result["packets"]
    assert result.get("fault_events", 0) == (8 if faults else 0)
after = loaded()
print(json.dumps({"backend": net.backend_in_use, "delivered": delivered,
                  "before": sorted(before), "added": sorted(after - before)}))
"""


def run_fresh(kind: str, backend: str = "kernel") -> dict:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, kind, backend],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["delivered"] > 0
    return out


@needs_kernel
@pytest.mark.parametrize("kind", ["open", "halo", "halo-faults"])
def test_kernel_run_loads_none_of_the_unused_modules(kind):
    out = run_fresh(kind)
    assert out["backend"] == "kernel"
    loaded = set(out["before"]) | set(out["added"])
    assert sorted(loaded & set(NOT_LOADED)) == []
    # numpy is never imported, before the run or during it: the
    # topology, traffic and wiring build without it, and the latency
    # window reduces in C.
    assert "numpy" not in loaded
    # The run itself imports nothing: every import is set-up.
    assert out["added"] == []


@pytest.mark.parametrize("kind,backend,needs", [
    ("checked", "kernel", "repro.sim.vec.check"),
    ("checked", "object", "repro.sim.invariants"),
    ("traced", "kernel", "repro.sim.trace"),
    ("open", "object", "repro.sim.switch"),
    ("halo-faults", "object", "repro.sim.engine"),
])
def test_other_modes_load_what_they_use(kind, backend, needs):
    if backend == "kernel" and load_kernel() is None:
        pytest.skip("compiled kernel unavailable")
    out = run_fresh(kind, backend)
    assert out["backend"] == backend
    assert needs in out["before"]
    # The object engine imports numpy, for its reference reduction of
    # the latency window, as it is built, not inside window_stats.
    assert backend == "kernel" or "numpy" in out["before"]
    assert out["added"] == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        module.no_such_name  # noqa: B018
