"""Golden conformance suite (see repro.experiments.conformance).

The committed fingerprints pin the simulator's end-to-end behaviour --
full WindowStats plus a digest over the ordered delivery stream -- for
every tiny-scale topology x routing combination.  Serial, process-pool,
checker-enabled and kernel-backend runs (unchecked with the C route
path, checked with every packet routed in Python, and with and without
the delivery recorder) must all reproduce them
bit-identically; an intended behaviour change regenerates the goldens
(``python -m repro.experiments.conformance --write``) so the diff is
reviewed with the change that caused it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.experiments import conformance
from repro.sim.vec.kernel import load_kernel as _load_kernel

GOLDEN = Path(__file__).parent / "golden" / "conformance.json"

#: One case per topology for the expensive process-pool re-run; the
#: full matrix runs serially, under the checker and on the kernel.
SPOT_CASES = ["sf-floor/ugal", "sf-ceil/min", "mlfm/inr", "oft/ugal"]


@pytest.fixture(scope="module")
def golden():
    return conformance.load_golden(str(GOLDEN))


def test_case_keys_cover_all_combinations():
    # 4 evaluation configs x 3 routings, and the golden file has them all.
    assert len(conformance.CASE_KEYS) == 12
    assert set(conformance.load_golden(str(GOLDEN))) == set(conformance.CASE_KEYS)
    assert set(SPOT_CASES) <= set(conformance.CASE_KEYS)


@pytest.mark.parametrize("case_key", conformance.CASE_KEYS)
def test_serial_matches_golden(golden, case_key):
    got = conformance.run_case(case_key)
    problems = conformance.diff_fingerprints({case_key: golden[case_key]},
                                             {case_key: got})
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("case_key", conformance.CASE_KEYS)
def test_checker_preserves_physics(golden, case_key):
    # Acceptance: --check runs every configs combination without a
    # violation, and the checked run's observable behaviour (stats and
    # delivery stream) is identical to the unchecked golden.
    got = conformance.run_case(case_key, check=True)
    problems = conformance.diff_fingerprints({case_key: golden[case_key]},
                                             {case_key: got})
    assert not problems, "\n".join(problems)


needs_kernel = pytest.mark.skipif(
    _load_kernel() is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)


@needs_kernel
# The IDs are those of the former (check, switch) pairs.
@pytest.mark.parametrize("check", [
    False,  # C route path live (the production default)
    True,   # the checker's wrapped make_packet routes every packet in Python
], ids=["False-True", "True-True"])
@pytest.mark.parametrize("case_key", conformance.CASE_KEYS)
def test_kernel_backend_matches_golden(golden, case_key, check):
    # The compiled-kernel acceptance bar: every committed fingerprint is
    # reproduced bit-identically by the C dispatch core -- unchecked
    # with the C route selection live, and checked (the audit-based
    # KernelChecker over kernel runs), whose wrapped make_packet sends
    # every packet through Network.make_packet.  The pair is the
    # differential gate on the C routing + RNG replica itself.  The
    # delivery recorder is a listener: the kernel calls it on every
    # delivery, after accounting the delivery in C as it does with no
    # listener.
    got = conformance.run_case(case_key, check=check, backend="kernel")
    problems = conformance.diff_fingerprints({case_key: golden[case_key]},
                                             {case_key: got})
    assert not problems, "\n".join(problems)


@needs_kernel
@pytest.mark.parametrize("case_key", conformance.CASE_KEYS)
def test_kernel_no_listener_stats_match_golden(golden, case_key):
    # Without a delivery listener no delivery calls Python at all; the
    # WindowStats the kernel accumulates C-side -- including the order-
    # sensitive latency reductions -- must still equal the goldens.
    got = conformance.run_case(case_key, backend="kernel", listener=False)
    assert got["digest"] is None  # stats-only fingerprint
    problems = conformance.diff_fingerprints({case_key: golden[case_key]},
                                             {case_key: got})
    assert not problems, "\n".join(problems)


def test_process_pool_matches_golden(golden):
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(conformance.run_case, SPOT_CASES))
    computed = dict(zip(SPOT_CASES, results))
    problems = conformance.diff_fingerprints(
        {key: golden[key] for key in SPOT_CASES}, computed
    )
    assert not problems, "\n".join(problems)


# -- fault-schedule golden (repro.resilience) -------------------------------

FAULT_GOLDEN = Path(__file__).parent / "golden" / "fault_conformance.json"


@pytest.fixture(scope="module")
def fault_golden():
    return conformance.load_fault_golden(str(FAULT_GOLDEN))


@pytest.mark.parametrize("check,backend", [
    (False, "object"),
    (True, "object"),
    pytest.param(False, "kernel", marks=needs_kernel),
    pytest.param(True, "kernel", marks=needs_kernel),
])
def test_fault_case_matches_golden(fault_golden, check, backend):
    # The deterministic fault-schedule run (fail + recover + seeded
    # drip, mid-measurement) must reproduce the committed fingerprint
    # -- delivery stream, stats AND reroute counts -- on every backend,
    # checked and unchecked.  The kernel rows exercise the fault
    # divert escape (ENTER on a dead port) and the fail-time drain
    # through the engine's cold-path mirrors; the checked one routes
    # every packet in Python, the unchecked one in C.
    got = conformance.run_fault_case(check=check, backend=backend)
    problems = conformance.diff_fault_fingerprint(fault_golden, got)
    assert not problems, "\n".join(problems)


def test_fault_case_matches_golden_in_pool(fault_golden):
    with ProcessPoolExecutor(max_workers=1) as pool:
        got = pool.submit(conformance.run_fault_case).result()
    problems = conformance.diff_fault_fingerprint(fault_golden, got)
    assert not problems, "\n".join(problems)


def test_fault_diff_reports_fault_counters(fault_golden):
    mutated = {
        "stats": dict(fault_golden["stats"]),
        "digest": fault_golden["digest"],
        "delivered": fault_golden["delivered"],
        "faults": dict(fault_golden["faults"], reroutes=-1),
    }
    problems = conformance.diff_fault_fingerprint(fault_golden, mutated)
    assert any("faults.reroutes changed" in p for p in problems)


def test_diff_reports_are_actionable(golden):
    # The diff helper names the case, the field and both values --
    # that's what makes a golden failure debuggable.
    ref = golden["oft/min"]
    mutated = {
        "stats": dict(ref["stats"], ejected_packets=-1),
        "digest": "0" * 64,
        "delivered": 0,
    }
    problems = conformance.diff_fingerprints({"oft/min": ref}, {"oft/min": mutated})
    assert any("digest changed" in p for p in problems)
    assert any("stats.ejected_packets changed" in p for p in problems)
    assert conformance.diff_fingerprints({"oft/min": ref}, {}) == [
        "oft/min: missing from computed set"
    ]


# -- closed-loop goldens (workloads and exchanges) --------------------------

CLOSED_LOOP_GOLDEN = (Path(__file__).parent / "golden"
                      / "closed_loop_conformance.json")


@pytest.fixture(scope="module")
def closed_loop_golden():
    return conformance.load_closed_loop_golden(str(CLOSED_LOOP_GOLDEN))


def _closed_loop_problems(golden, case_key, **kwargs):
    got = conformance.run_closed_loop_case(case_key, **kwargs)
    if not kwargs.get("listener", True):
        assert got["digest"] is None  # result-only fingerprint
    return conformance.diff_closed_loop({case_key: golden[case_key]},
                                        {case_key: got})


def test_closed_loop_golden_covers_every_case(closed_loop_golden):
    assert set(closed_loop_golden) == set(conformance.CLOSED_LOOP_CASE_KEYS)


@pytest.mark.parametrize("check", [False, True], ids=["unchecked", "checked"])
@pytest.mark.parametrize("case_key", conformance.CLOSED_LOOP_CASE_KEYS)
def test_closed_loop_object_matches_golden(closed_loop_golden, case_key,
                                           check):
    # The object engine is the reference the goldens were written from;
    # its per-transition checker must not perturb a closed-loop run.
    problems = _closed_loop_problems(closed_loop_golden, case_key, check=check)
    assert not problems, "\n".join(problems)


@needs_kernel
@pytest.mark.parametrize("check", [
    False,  # the kernel calls the delivery recorder per delivery
    True,   # the audit checker: its make_packet routes in Python
], ids=["fast", "checked"])
@pytest.mark.parametrize("case_key", conformance.CLOSED_LOOP_CASE_KEYS)
def test_closed_loop_kernel_matches_golden(closed_loop_golden, case_key,
                                           check):
    problems = _closed_loop_problems(closed_loop_golden, case_key,
                                     check=check, backend="kernel")
    assert not problems, "\n".join(problems)


@needs_kernel
@pytest.mark.parametrize("case_key", conformance.CLOSED_LOOP_CASE_KEYS)
def test_closed_loop_kernel_no_listener_matches_golden(closed_loop_golden,
                                                       case_key):
    # Without the recorder nothing observes single deliveries, so no
    # delivery calls Python; the result (phase completion times,
    # route-kind counts, message latencies) must still equal the
    # golden.
    problems = _closed_loop_problems(closed_loop_golden, case_key,
                                     backend="kernel", listener=False)
    assert not problems, "\n".join(problems)


def test_closed_loop_diff_names_the_field(closed_loop_golden):
    ref = closed_loop_golden["ring-allreduce"]
    mutated = {"result": dict(ref["result"], completion_ns=-1.0),
               "digest": "0" * 64}
    problems = conformance.diff_closed_loop({"ring-allreduce": ref},
                                            {"ring-allreduce": mutated})
    assert any("digest changed" in p for p in problems)
    assert any("result.completion_ns changed" in p for p in problems)
