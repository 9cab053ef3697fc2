"""Draw-order parity of the kernel's C random-number replica.

The C fast path (``_kernel.c``) carries a Mersenne-Twister replica of
``random.Random`` so routing decisions made in C consume *exactly* the
draw sequence the Python implementations would: same values, same
number of raw ``getrandbits`` words per call (the rejection loop in
``_randbelow``), same generator state afterwards.  The golden
conformance suite pins this end to end; these tests pin it per draw
site, so a parity break fails with the offending bound rather than a
digest mismatch.

``_kernel._rng_parity(rng, ops)`` is the test hook: it imports *rng*'s
state into the C replica, executes the op list C-side, exports the
state back into *rng*, and returns the drawn values.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.vec.kernel import load_kernel

_mod = load_kernel()

pytestmark = pytest.mark.skipif(
    _mod is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)

#: The bounds the routing layer actually draws with (candidate-set
#: sizes, router counts) plus adversarial ones: the degenerate n=1
#: (still consumes draws!), exact powers of two (no rejection), one
#: above/below a power of two (maximal rejection probability), odd
#: moduli, and a large bound near the 32-bit draw width.
RANDBELOW_BOUNDS = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33,
    97, 98, 255, 256, 257, 489, 490, 1024, 1025,
    2**20, 2**20 + 7, 2**31 - 1,
]


def c_draws(rng: random.Random, ops):
    return _mod._rng_parity(rng, ops)


class TestDrawParity:
    @pytest.mark.parametrize("n", RANDBELOW_BOUNDS)
    def test_randbelow_values_and_state(self, n):
        # Same seed, two generators: C must produce the Python values
        # AND leave the generator in the Python state (a rejection-loop
        # mismatch shows up in the state even when values agree).
        ref = random.Random(1234 + n)
        c = random.Random(1234 + n)
        want = [ref._randbelow(n) for _ in range(200)]
        got = c_draws(c, [("randbelow", n)] * 200)
        assert got == want
        assert c.getstate() == ref.getstate()

    @pytest.mark.parametrize("k", list(range(1, 33)))
    def test_getrandbits_values_and_state(self, k):
        ref = random.Random(99 + k)
        c = random.Random(99 + k)
        want = [ref.getrandbits(k) for _ in range(100)]
        got = c_draws(c, [("getrandbits", k)] * 100)
        assert got == want
        assert c.getstate() == ref.getstate()

    def test_randbelow_matches_randrange_sites(self):
        # The routing code draws via ``rng.randrange(len(candidates))``
        # and the bound ``_randbelow``; both must map onto the C op.
        ref = random.Random(7)
        c = random.Random(7)
        bounds = [3, 1, 8, 5, 2, 13, 1, 64, 7]
        want = [ref.randrange(n) for n in bounds]
        got = c_draws(c, [("randbelow", n) for n in bounds])
        assert got == want
        assert c.getstate() == ref.getstate()

    def test_mixed_op_stream(self):
        # Interleaved op kinds on one stream, across a reseed boundary
        # of the underlying MT block (624 words) so the C refill path
        # is exercised too.
        ref = random.Random(42)
        c = random.Random(42)
        ops, want = [], []
        mix = random.Random(5)
        for _ in range(2000):  # >> 624 words: several MT refills
            if mix.random() < 0.5:
                n = mix.choice(RANDBELOW_BOUNDS)
                ops.append(("randbelow", n))
                want.append(ref._randbelow(n))
            else:
                k = mix.randrange(1, 33)
                ops.append(("getrandbits", k))
                want.append(ref.getrandbits(k))
        assert c_draws(c, ops) == want
        assert c.getstate() == ref.getstate()


class TestStateHandoff:
    def test_alternating_c_and_python_share_one_stream(self):
        # The residency contract: a run alternates C fast-path packets
        # with Python escape packets (scheduled CALLs submitting
        # traffic), all drawing from ONE logical stream.  Alternating
        # C-side and Python-side draws on the same object must replay a
        # pure-Python reference exactly.
        ref = random.Random(2024)
        shared = random.Random(2024)
        want, got = [], []
        for i in range(50):
            n = RANDBELOW_BOUNDS[i % len(RANDBELOW_BOUNDS)]
            want.append(ref._randbelow(n))      # "C packet"
            want.append(ref._randbelow(n + 1))  # "Python escape packet"
            got.extend(c_draws(shared, [("randbelow", n)]))
            got.append(shared._randbelow(n + 1))
        assert got == want
        assert shared.getstate() == ref.getstate()

    def test_import_export_is_lossless_mid_rejection_history(self):
        # Exporting after draws that hit the rejection loop must hand
        # back a state from which Python continues bit-identically.
        ref = random.Random(3)
        c = random.Random(3)
        for _ in range(10):
            ref._randbelow(2**20 + 7)  # ~50% rejection per draw
        c_draws(c, [("randbelow", 2**20 + 7)] * 10)
        assert [ref.getrandbits(32) for _ in range(700)] == [
            c.getrandbits(32) for _ in range(700)
        ]

    def test_gauss_sidecar_survives_roundtrip(self):
        # random.Random's state tuple carries the gauss_next sidecar;
        # the C replica never touches it but must preserve it.
        rng = random.Random(11)
        rng.gauss(0, 1)  # prime gauss_next
        before = rng.getstate()
        c_draws(rng, [("randbelow", 5)])
        after = rng.getstate()
        assert after[2] == before[2]  # the gauss sidecar slot

    def test_mid_run_python_send_preserves_conformance(self):
        # Simulation-level proof: packets submitted from a *scheduled
        # CALL escape* mid-run (sends made while the RNG state is
        # resident in C) leave the kernel bit-identical to the object
        # engine -- same delivery stream, same final RNG states.
        import hashlib

        from repro.routing import UGALRouting
        from repro.sim import Network, SimConfig
        from repro.topology import SlimFly
        from repro.traffic import UniformRandom

        def run(backend: str):
            topo = SlimFly(5)
            net = Network(topo, UGALRouting(topo, seed=0),
                          SimConfig(backend=backend))
            digest = hashlib.sha256()
            net.add_delivery_listener(
                lambda p: digest.update(
                    f"{p.pid}:{p.src_node}:{p.dst_node}:{p.kind}:"
                    f"{p.eject_time!r};".encode()
                )
            )
            # Mid-run Python sends: scheduled CALLs that submit fresh
            # packets through the NIC while the fast path is resident.
            nics = net.nics
            for i, t in enumerate((350.0, 620.0, 910.0)):
                net.engine.schedule(
                    t, nics[i % len(nics)].submit,
                    (i * 7 + 3) % topo.num_nodes, 64,
                )
            stats = net.run_synthetic(
                UniformRandom(topo.num_nodes), load=0.4,
                warmup_ns=300.0, measure_ns=1000.0, seed=9, drain=True,
            )
            routing = net.routing
            return (
                digest.hexdigest(),
                net.stats.ejected_total,
                stats.throughput,
                stats.mean_latency_ns,
                routing._minimal._rng.getstate(),
                routing._indirect._rng.getstate(),
            )

        assert run("kernel") == run("object")
