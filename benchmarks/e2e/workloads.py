"""The benchmark's workloads: their inputs, sizes and fingerprints.

Imported by ``bench.py`` and by every child process, so it imports
nothing from ``repro``: a child's set-up clock starts before the first
``import repro``.

Two size profiles exist.  ``full`` is what ``BENCHMARK.json`` measures;
``smoke`` shrinks every workload (Slim Fly q=5, short windows) so the
harness tests run in seconds.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

#: Workload names in the order ``bench.py`` interleaves them.
WORKLOADS = ("sat490_kernel", "sat3k_kernel", "halo_faults_kernel")

#: Seeds whose fingerprints are committed in ``reference.json``.  Seed 1
#: is held out: later changes tune on seed 0 and confirm on seed 1.
REFERENCE_SEEDS = (0, 1)

#: Open-loop saturation point shared by the ``sat*`` workloads: uniform
#: random traffic past the UGAL knee, so every queue is deep.
SAT_LOAD = 0.9

PROFILES: Dict[str, dict] = {
    "full": {
        # 98 routers x 5 endpoints: the ROADMAP's headline instance.
        "sat490": {"q": 7, "warmup_ns": 500.0, "measure_ns": 1_500.0},
        # 338 routers x 9 endpoints = 3,042: the paper's Sec. 4.1 size.
        # Deliveries only start after ~500 ns at this size; a 1,000 ns
        # horizon delivers ~27k packets, enough that the count varies
        # by ~1% between seeds (a 600 ns one: ~2k and ~4%).
        "sat3k": {"q": 13, "warmup_ns": 250.0, "measure_ns": 750.0},
        # 490-rank 7x7x10 halo; all eight drip faults land mid-exchange.
        "halo": {"q": 7, "message_bytes": 8_192, "fault_at_ns": 1_000.0,
                 "faults": 8, "fault_every_ns": 500.0},
    },
    "smoke": {
        "sat490": {"q": 5, "warmup_ns": 200.0, "measure_ns": 1_000.0},
        "sat3k": {"q": 5, "warmup_ns": 200.0, "measure_ns": 600.0},
        "halo": {"q": 5, "message_bytes": 2_048, "fault_at_ns": 200.0,
                 "faults": 2, "fault_every_ns": 100.0},
    },
}

#: Nominal wall seconds of one full-size rep and the host probe after
#: it, on the measuring host at its usual speed (README.md, Stability).
#: A run of ``--seconds T`` makes ``T / REP_S`` reps, so the rep count
#: is fixed by the benchmark and does not depend on how fast the program
#: under test is, unless ``DEADLINE_FACTOR`` in ``bench.py`` cuts a run
#: on a slow host short.
REP_S = {
    "sat490_kernel": 1.6,
    "sat3k_kernel": 4.5,
    "halo_faults_kernel": 2.7,
}


def sim_spec(profile: str, workload: str, seed: int) -> dict:
    """Inputs of one simulation rep, as plain JSON for the child."""
    sizes = PROFILES[profile]
    backend = workload.rsplit("_", 1)[1]
    if workload.startswith("sat"):
        size = sizes["sat3k" if workload.startswith("sat3k") else "sat490"]
        return {"workload": workload, "kind": "open", "q": size["q"],
                "backend": backend, "load": SAT_LOAD,
                "warmup_ns": size["warmup_ns"],
                "measure_ns": size["measure_ns"], "seed": seed}
    if workload == "halo_faults_kernel":
        size = sizes["halo"]
        drip = (f"drip@{size['fault_at_ns']:g}:n={size['faults']},"
                f"every={size['fault_every_ns']:g},seed={seed}")
        return {"workload": workload, "kind": "halo", "q": size["q"],
                "backend": backend, "message_bytes": size["message_bytes"],
                "faults": [drip], "expected_faults": size["faults"],
                "seed": seed}
    raise ValueError(f"not a simulation workload: {workload!r}")


def digest(obj) -> str:
    """SHA-256 over canonical JSON; floats keep every digit (``repr``)."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
