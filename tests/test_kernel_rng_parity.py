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

Open-loop traffic draws from per-node generators that the kernel seeds
itself.  ``_kernel._rng_seeded(seed, ops)`` seeds a C generator as
``random.Random(seed)`` would and returns the draws and the state, and
``_kernel._gen_stream(...)`` draws one node's whole stream chunk by
chunk, as the GEN handler does, for comparison with the object
engine's generate events replayed in Python.  Given a list of seeds,
``_rng_seeded`` seeds them in one call, in batches, as ``gen_streams``
seeds a network's nodes.
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


# -- open-loop traffic: seeding, float draws and whole streams --------------

#: Seeds as ``master.getrandbits(64)`` hands them to the per-node
#: generators: the ends of the 32- and 64-bit ranges, and seeds whose
#: high word is 0 (CPython then seeds from one 32-bit word, not two).
SEEDS = [0, 1, 2, 12345, 2**31, 2**32 - 1, 2**32, 2**32 + 1,
         0x9E3779B97F4A7C15, 2**63, 2**64 - 1]


class TestSeeding:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_state_matches_random_random(self, seed):
        draws, state = _mod._rng_seeded(seed, [])
        assert draws == []
        assert state == random.Random(seed).getstate()

    def test_seeds_seeded_together_match_random_random(self):
        # The whole list in one call, as gen_streams seeds a network's
        # nodes: 11 seeds, so the second batch of 8 is partial, and the
        # first holds one- and two-word keys side by side.
        got = _mod._rng_seeded(SEEDS, [("random",)] * 2)
        assert len(got) == len(SEEDS)
        for seed, (draws, state) in zip(SEEDS, got):
            ref = random.Random(seed)
            assert draws == [ref.random(), ref.random()]
            assert state == ref.getstate()

    def test_master_stream_seeds(self):
        # The seeds the simulator actually uses, including draws past
        # the master generator's first MT refill.
        master = random.Random(7)
        for _ in range(700):
            seed = master.getrandbits(64)
            ref = random.Random(seed)
            draws, state = _mod._rng_seeded(seed, [("random",)] * 3)
            assert draws == [ref.random() for _ in range(3)]
            assert state == ref.getstate()

    def test_seed_out_of_range_is_rejected(self):
        with pytest.raises(OverflowError):
            _mod._rng_seeded(2**64, [])
        with pytest.raises(OverflowError):
            _mod._rng_seeded(-1, [])


class TestFloatDraws:
    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_random_values_and_state_across_mt_refills(self, seed):
        ref = random.Random(seed)
        n = 1500  # 3,000 words: several MT refills
        draws, state = _mod._rng_seeded(seed, [("random",)] * n)
        assert draws == [ref.random() for _ in range(n)]
        assert state == ref.getstate()

    @pytest.mark.parametrize("a,b", [(0.0, 28.444444444444443), (0.0, 1.0),
                                     (-3.5, 7.25), (100.0, 100.0)])
    def test_uniform(self, a, b):
        ref = random.Random(31)
        c = random.Random(31)
        got = c_draws(c, [("uniform", a, b)] * 400)
        assert got == [ref.uniform(a, b) for _ in range(400)]
        assert c.getstate() == ref.getstate()

    @pytest.mark.parametrize("mean", [25.6, 28.444444444444443, 1.0, 1e6])
    def test_expovariate(self, mean):
        # The inter-arrival draw: -log(1 - random()) / lambd with libm's
        # log, lambd computed as the simulator computes it.
        ref = random.Random(17)
        c = random.Random(17)
        lambd = 1.0 / mean
        got = c_draws(c, [("expovariate", lambd)] * 1000)
        assert got == [ref.expovariate(lambd) for _ in range(1000)]
        assert c.getstate() == ref.getstate()

    def test_generator_draw_mix(self):
        # One node's draw pattern: uniform phase, then pick + expovariate
        # per entry, from a C-seeded generator.
        seed = 0xDEADBEEFCAFE
        ref = random.Random(seed)
        ops, want = [("uniform", 0.0, 30.0)], [ref.uniform(0.0, 30.0)]
        for i in range(900):
            n = RANDBELOW_BOUNDS[i % len(RANDBELOW_BOUNDS)]
            ops += [("random",), ("randbelow", n), ("expovariate", 1 / 30.0)]
            want += [ref.random(), ref._randbelow(n), ref.expovariate(1 / 30.0)]
        draws, state = _mod._rng_seeded(seed, ops)
        assert draws == want
        assert state == ref.getstate()


def py_stream(seed, node, pattern, mean_ia, horizon, poisson):
    """One node's stream as the object engine's generate events draw it."""
    rng = random.Random(seed)
    t = rng.uniform(0.0, mean_ia)
    times, dsts = [], []
    while t < horizon:
        dst = pattern.pick_destination(node, rng)
        times.append(t)
        dsts.append(-1 if dst is None else dst)
        t = t + (rng.expovariate(1.0 / mean_ia) if poisson else mean_ia)
    times.append(t)
    dsts.append(-2)
    return times, dsts


def _patterns(n):
    from repro.traffic import HotspotTraffic, PermutationTraffic, UniformRandom

    perm = [(i + 7) % n for i in range(n)]
    for i in range(0, n, 3):
        perm[i] = -1  # idle entries
    return {
        "uniform": UniformRandom(n),
        "uniform-smaller": UniformRandom(n - 5),
        "partial-perm": PermutationTraffic(perm),
        "hotspot-0": HotspotTraffic(n, [0, 3], hot_fraction=0.0),
        "hotspot-0.3": HotspotTraffic(n, [0, 3, 11], hot_fraction=0.3),
        "hotspot-1": HotspotTraffic(n, [3], hot_fraction=1.0),
    }


class TestStreams:
    N = 50
    MEAN_IA = 28.444444444444443  # 25.6 ns packets at load 0.9

    @pytest.mark.parametrize("arrival", ["poisson", "deterministic"])
    @pytest.mark.parametrize("name", sorted(_patterns(50)))
    @pytest.mark.parametrize("node", [0, 3, 49])
    def test_whole_stream_across_chunk_and_mt_refills(self, name, node,
                                                      arrival):
        from repro.sim.vec.kernel import _pattern_entry

        pattern = _patterns(self.N)[name]
        entry = _pattern_entry(pattern, self.N)
        assert entry is not None
        horizon = 1_100 * self.MEAN_IA  # ~1,100 entries: 4-5 chunks
        seed = random.Random(node).getrandbits(64)
        poisson = arrival == "poisson"
        times, dsts, chunks = _mod._gen_stream(
            seed, node, self.N, *entry, self.MEAN_IA, horizon, poisson)
        want = py_stream(seed, node, pattern, self.MEAN_IA, horizon, poisson)
        assert (times, dsts) == want
        assert chunks >= 4
        assert dsts[-1] == -2 and -2 not in dsts[:-1]

    @pytest.mark.parametrize("name", sorted(_patterns(150)))
    def test_network_streams_match_one_node_streams(self, name):
        # gen_streams seeds the nodes of SF q=5 in batches of 8; its 150
        # nodes leave a partial last batch.  Every packet a node's
        # stream generates is delivered, with its generation time.
        from repro.routing import MinimalRouting
        from repro.sim import Network, SimConfig
        from repro.sim.vec.kernel import _pattern_entry
        from repro.topology import SlimFly

        topo = SlimFly(5)
        n = topo.num_nodes
        assert n % 8
        pattern = _patterns(n)[name]
        net = Network(topo, MinimalRouting(topo, seed=0),
                      SimConfig(backend="kernel"))
        sent = [[] for _ in range(n)]
        net.add_delivery_listener(
            lambda p: sent[p.src_node].append((p.gen_time, p.dst_node)))
        load, horizon, seed = 0.5, 800.0, 4
        net.run_synthetic(pattern, load=load, warmup_ns=200.0,
                          measure_ns=horizon - 200.0, seed=seed, drain=True)
        mean_ia = net.config.packet_time_ns / load
        master = random.Random(seed)
        entry = _pattern_entry(pattern, n)
        for node in range(n):
            times, dsts, _ = _mod._gen_stream(
                master.getrandbits(64), node, n, *entry, mean_ia, horizon,
                True)
            want = [(t, d) for t, d in zip(times, dsts) if d >= 0]
            assert sorted(sent[node]) == want, node
        assert sum(map(len, sent)) > 2 * n

    def test_stream_that_ends_on_a_chunk_boundary(self):
        # Exactly 256 entries before the horizon: the first chunk is
        # full, and the refill writes the sentinel alone.
        from repro.sim.vec.kernel import _pattern_entry
        from repro.traffic import UniformRandom

        pattern = UniformRandom(self.N)
        horizon = 255 * 10.0 + 5.0
        seed = 99
        assert random.Random(seed).uniform(0.0, 10.0) < 5.0  # the phase
        times, dsts, chunks = _mod._gen_stream(
            seed, 1, self.N, *_pattern_entry(pattern, self.N), 10.0, horizon,
            False)
        assert (times, dsts) == py_stream(seed, 1, pattern, 10.0, horizon,
                                          False)
        assert len(times) == 257 and chunks == 2
