"""Tests for indirect random (Valiant) routing (Sec. 3.2)."""

import pytest

from repro.routing import IndirectRandomRouting, UGALRouting, compose_indirect
from repro.routing.base import ROUTE_INDIRECT, ROUTE_MINIMAL


class TestCompose:
    def test_joins_legs(self):
        routers, idx = compose_indirect((0, 3, 7), (7, 2, 9))
        assert routers == (0, 3, 7, 2, 9)
        assert idx == 2

    def test_rejects_mismatched_legs(self):
        with pytest.raises(ValueError):
            compose_indirect((0, 3), (4, 5))

    def test_one_hop_legs(self):
        routers, idx = compose_indirect((0, 7), (7, 9))
        assert routers == (0, 7, 9) and idx == 1


class TestIndirectRouting:
    def test_kind_and_intermediate(self, sf5):
        ir = IndirectRandomRouting(sf5, seed=1)
        r = ir.route(0, 30)
        assert r.kind == ROUTE_INDIRECT
        assert r.intermediate is not None
        assert r.routers[r.intermediate] not in (0, 30)

    def test_intra_router_short_circuit(self, mlfm4):
        ir = IndirectRandomRouting(mlfm4, seed=1)
        r = ir.route(5, 5)
        assert r.routers == (5,) and r.kind == ROUTE_MINIMAL

    def test_sf_hop_range(self, sf5):
        ir = IndirectRandomRouting(sf5, seed=2)
        hops = {ir.route(0, 30).num_hops for _ in range(200)}
        # Sec. 3.2: SF indirect routes have 2, 3 or 4 hops.
        assert hops <= {2, 3, 4}
        assert 4 in hops

    def test_mlfm_always_four_hops(self, mlfm4):
        ir = IndirectRandomRouting(mlfm4, seed=2)
        eps = mlfm4.endpoint_routers()
        for _ in range(100):
            r = ir.route(eps[0], eps[-1])
            assert r.num_hops == 4

    def test_oft_always_four_hops(self, oft4):
        ir = IndirectRandomRouting(oft4, seed=2)
        eps = oft4.endpoint_routers()
        for _ in range(100):
            assert ir.route(eps[0], eps[-1]).num_hops == 4

    def test_mlfm_intermediates_are_local_routers(self, mlfm4):
        ir = IndirectRandomRouting(mlfm4, seed=2)
        for _ in range(100):
            r = ir.route(0, 7)
            assert mlfm4.is_local(r.routers[r.intermediate])

    def test_vc_phases(self, mlfm4):
        ir = IndirectRandomRouting(mlfm4, seed=2)
        r = ir.route(0, 7)
        # VC 0 up to the intermediate, VC 1 afterwards (Sec. 3.4).
        for h in range(r.num_hops):
            expected = 0 if h < r.intermediate else 1
            assert r.vcs[h] == expected

    def test_sf_vcs_hop_indexed(self, sf5):
        ir = IndirectRandomRouting(sf5, seed=2)
        r = ir.route(0, 30)
        assert r.vcs == tuple(range(r.num_hops))

    def test_num_vcs(self, sf5, mlfm4):
        assert IndirectRandomRouting(sf5, seed=1).num_vcs == 4
        assert IndirectRandomRouting(mlfm4, seed=1).num_vcs == 2

    def test_intermediate_never_src_or_dst(self, sf5):
        ir = IndirectRandomRouting(sf5, seed=3)
        for _ in range(300):
            assert ir.pick_intermediate(4, 9) not in (4, 9)

    def test_intermediates_cover_pool(self, mlfm4):
        ir = IndirectRandomRouting(mlfm4, seed=3)
        seen = {ir.pick_intermediate(0, 7) for _ in range(500)}
        pool = set(mlfm4.valiant_intermediates()) - {0, 7}
        assert seen == pool

    def test_explicit_intermediates(self, sf5):
        ir = IndirectRandomRouting(sf5, seed=1, intermediates=[10, 11, 12])
        for _ in range(50):
            assert ir.pick_intermediate(0, 30) in {10, 11, 12}

    def test_rejects_tiny_pool(self, sf5):
        with pytest.raises(ValueError):
            IndirectRandomRouting(sf5, intermediates=[1, 2])

    @pytest.mark.parametrize("cls", [IndirectRandomRouting, UGALRouting])
    @pytest.mark.parametrize("pool,match", [
        # Fewer than 3 distinct routers: pick_intermediate would spin
        # forever on a packet whose src and dst cover them all.
        ([0, 0, 0], "3 distinct"),
        ([0, 1, 1, 0], "3 distinct"),
        # Ids past either end index outside the route tables.
        ([0, 1, 2, 10**6], "not router ids"),
        ([0, 1, 2, -5], "not router ids"),
    ], ids=["one-router", "two-routers", "past-the-end", "negative"])
    def test_rejects_bad_pool(self, sf5, cls, pool, match):
        with pytest.raises(ValueError, match=match):
            cls(sf5, intermediates=pool)

    def test_pool_may_repeat_ids(self, sf5):
        # Duplicates are legal as long as 3 distinct ids remain, and the
        # pool is kept as given: its length fixes the draw stream.
        ir = IndirectRandomRouting(sf5, seed=4, intermediates=[7, 7, 8, 9])
        assert ir._pool == [7, 7, 8, 9]
        assert {ir.pick_intermediate(0, 30) for _ in range(100)} == {7, 8, 9}

    def test_route_via_explicit(self, mlfm4):
        ir = IndirectRandomRouting(mlfm4, seed=1)
        r = ir.route_via(0, 7, 12)
        assert r.routers[r.intermediate] == 7
        assert r.routers[0] == 0 and r.routers[-1] == 12
