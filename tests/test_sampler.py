import hashlib
import json
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from icregions import dist, polytope, regions, sampler
from icregions.dist import FACTORS, FactorSpec, Form, spec_to_json
from icregions.polytope import area2
from icregions.regions import region_for
from icregions.sampler import (SearchConfig, binary_alphabets, cmg_as_hod,
                               hod_vs_projected_hk, improvement_search,
                               sample_spec, _objective, _perturb)

F = Fraction


class TestSampleSpec:
    def test_determinism(self):
        a = sample_spec(binary_alphabets(), Form.HOD16, [61, 0])
        b = sample_spec(binary_alphabets(), Form.HOD16, [61, 0])
        assert np.array_equal(a.u1_given_q_w1, b.u1_given_q_w1)
        assert np.array_equal(a.channel, b.channel)

    def test_different_seeds_differ(self):
        a = sample_spec(binary_alphabets(), Form.HOD16, [61, 0])
        b = sample_spec(binary_alphabets(), Form.HOD16, [61, 1])
        assert not np.array_equal(a.channel, b.channel)

    def test_size_one_rows(self):
        alph = binary_alphabets(U1=1, Y2=1)
        spec = sample_spec(alph, Form.HOD16, [61, 2])
        assert np.allclose(spec.u1_given_q_w1, 1.0)

    def test_rows_normalized(self):
        # 10^4 rows across many seeded specs, each summing to 1
        checked = 0
        for i in range(320):
            spec = sample_spec(binary_alphabets(), Form.HOD16, [62, i])
            ch = spec.channel
            tables = (spec.w1_given_q, spec.u1_given_q_w1, spec.w2_given_q,
                      spec.u2_given_q_w2, spec.x1_given_q_u1_w1,
                      spec.x2_given_q_u2_w2,
                      ch.reshape(ch.shape[:2] + (-1,)))
            for t in tables:
                sums = t.reshape(-1, t.shape[-1]).sum(axis=1)
                assert np.all(np.abs(sums - 1.0) <= 1e-12)
                checked += len(sums)
        assert checked >= 10**4

    def test_forms(self):
        for form in (Form.HK2, Form.CMG9, Form.HOD16):
            assert sample_spec(binary_alphabets(), form, [61, 3]).form is form

    def test_cmg_as_hod_preserves_tables(self):
        cmg = sample_spec(binary_alphabets(), Form.CMG9, [61, 4])
        hod = cmg_as_hod(cmg)
        assert hod.form is Form.HOD16
        assert np.array_equal(hod.u1_given_q_w1, cmg.u1_given_q_w1)
        with pytest.raises(ValueError):
            cmg_as_hod(hod)



# U_i and X_i share sizes so that CMG9 specs exist on these alphabets too.
MIXED = dict(Q=3, U1=3, W1=2, U2=2, W2=3, X1=3, X2=2, Y1=2, Y2=3)
WIDE = dict(Q=2, **{f"{v}{i}": 4 for v in "UWXY" for i in (1, 2)})
ALPHABETS = {"binary": {}, "mixed": MIXED, "wide": WIDE}


def _digest(spec) -> str:
    return hashlib.sha256(json.dumps(spec_to_json(spec)).encode()).hexdigest()


class TestDrawOrder:
    """The RNG draw order is part of the determinism contract: these
    SHA-256 digests of the saved JSON were made by the sampler that spelled
    each form's tables out by hand, and must not move."""

    SAMPLE_DIGESTS = [
        ("binary", Form.GENERAL1,
         "1f8ba2da2b0083a77af87a0eeeb192bd7c50f9c733f51ff77b8f89325b24e5bc"),
        ("binary", Form.HK2,
         "d854c93d65811f2b66e4613d570d5a97dd0d75633f202b2dbe08a0c8519f7b30"),
        ("binary", Form.CMG9,
         "6cbe514fa2433d565dd2770c9fc033edd0c28f66fa84ca8fea9beecbcb70fa26"),
        ("binary", Form.HOD16,
         "15af0353d696a4158a6a286d65db6c23aa853bbbf2df1775fbc3ff9a59baa6c2"),
        ("mixed", Form.GENERAL1,
         "98f2cf04e714e622c65648cc4525d70c3c33d18b7a758e82db6831dc2d87b853"),
        ("mixed", Form.HK2,
         "c337ada8fc86160238e504d741968e2cb113c0904155cd6f3754ff48a46cdd30"),
        ("mixed", Form.CMG9,
         "8c3ee1f86132e3297696e5cc959df0f09a5d0c8deee1ea2183bd6c4813d29bc2"),
        ("mixed", Form.HOD16,
         "3ab0a3a6f983284467d0ae96bdb439edfeb05403da8446a84937128ab64f2c07"),
    ]

    @pytest.mark.parametrize("alphabets,form,digest", SAMPLE_DIGESTS,
                             ids=[f"{a}-{f.value}" for a, f, _ in SAMPLE_DIGESTS])
    def test_sample_spec_digest(self, alphabets, form, digest):
        alph = binary_alphabets(**ALPHABETS[alphabets])
        assert _digest(sample_spec(alph, form, [91, 0])) == digest

    # SHA-256 of the bytes of all eight tables of the specs drawn for
    # [93, 0] to [93, 9], made by the sampler that drew each stored table
    # with a call of its own; one draw for all tables must give the same
    # stream and the same normalised bits.
    TABLE_DIGESTS = {
        ("binary", Form.GENERAL1): "8df4d6849a244f6ea474adc72107bb7e9cc17eb413ca3d9044d04199ff5a64e3",
        ("binary", Form.HK2): "b2772a2042ea9ba0fd4ae8d9f138c369ad3b1bc7a1acf3c30a3eed0e98305c45",
        ("binary", Form.CMG9): "e72769bccfb54a992d52502553b82e744edde328d454d3b99b4622384844a1fe",
        ("binary", Form.HOD16): "8df4d6849a244f6ea474adc72107bb7e9cc17eb413ca3d9044d04199ff5a64e3",
        ("mixed", Form.GENERAL1): "1f767ec45c4411a122601e616ca1416ee290cd0deadde0c80ed3a478971aca97",
        ("mixed", Form.HK2): "0cac9d028ba4690d5e106f25ed61356275adaede49e6fe0fbe62a51dff7fef31",
        ("mixed", Form.CMG9): "ced0c64aa88dcc8ee57214ceba216b451e6a2043aba351685b9c6e6b8a4aca24",
        ("mixed", Form.HOD16): "1f767ec45c4411a122601e616ca1416ee290cd0deadde0c80ed3a478971aca97",
        ("wide", Form.GENERAL1): "df3176673ef2370bb9e947d4b914a3dc7a5fea0c3fa03480c6bb4f508b645605",
        ("wide", Form.HK2): "9e9564a65bd0cd1d235feae8327ed9ed257ebbf231a246227c186c96e4983fad",
        ("wide", Form.CMG9): "8d1c3ff0bc15cf4765cc3076ef1fdad46ebc229219019f6c39aa502e8a776e19",
        ("wide", Form.HOD16): "df3176673ef2370bb9e947d4b914a3dc7a5fea0c3fa03480c6bb4f508b645605",
    }

    @pytest.mark.parametrize("alphabets,form", TABLE_DIGESTS,
                             ids=[f"{a}-{f.value}" for a, f in TABLE_DIGESTS])
    def test_table_bytes_digest(self, alphabets, form):
        alph = binary_alphabets(**ALPHABETS[alphabets])
        digest = hashlib.sha256()
        for i in range(10):
            spec = sample_spec(alph, form, [93, i])
            for name, _, _ in FACTORS:
                digest.update(getattr(spec, name).tobytes())
        assert digest.hexdigest() == self.TABLE_DIGESTS[alphabets, form]

    def test_perturb_digest(self):
        spec = sample_spec(binary_alphabets(**MIXED), Form.HOD16, [91, 0])
        step = _perturb(spec, np.random.default_rng([91, 1]), 0.25)
        assert _digest(step) == (
            "ca61e1b61739f0f734c9f7df14b5e5da589632944cbb3a6a8f0ef0f21d4385de")


class TestImprovementSearch:
    def test_budget_one_equals_direct_evaluation(self):
        cfg = SearchConfig(alphabets=binary_alphabets(), budget=1, restarts=1,
                           seed=63)
        res = improvement_search(cfg)
        direct = sample_spec(binary_alphabets(), Form.HOD16, [63, 0, 0])
        assert np.array_equal(res.best_spec.channel, direct.channel)
        assert res.objective == _objective(direct, "area")[0]

    def test_trace_monotone_and_deterministic(self):
        cfg = SearchConfig(alphabets=binary_alphabets(), budget=6, restarts=2,
                           seed=64, objective="sumrate")
        r1 = improvement_search(cfg)
        r2 = improvement_search(cfg)
        assert r1.trace == r2.trace
        assert r1.objective == r2.objective
        assert all(a <= b for a, b in zip(r1.trace, r1.trace[1:]))

    def test_independent_start_has_zero_gap(self):
        # dyadic tables make the independence projection exact, so the
        # correlated region and the projected HK region coincide
        alph = binary_alphabets()
        half = np.full(2, 0.5)
        quarter = np.full((2, 2, 2, 2), 0.25)
        spec = FactorSpec(Form.HOD16, alph, half, np.full((2, 2), 0.5),
                          np.full((2, 2, 2), 0.5), np.full((2, 2), 0.5),
                          np.full((2, 2, 2), 0.5),
                          np.full((2, 2, 2, 2), 0.5), np.full((2, 2, 2, 2), 0.5),
                          quarter)
        assert _objective(spec, "area")[0] == 0
        assert _objective(spec, "sumrate")[0] == 0

    def test_projected_spec_gap_is_zero_exactly(self):
        rng = np.random.default_rng(65)
        # dyadic random rows: exact projection arithmetic
        def dyadic_rows(shape):
            t = rng.integers(1, 16, size=shape).astype(float)
            t[..., -1] = 64 - t[..., :-1].sum(axis=-1)
            return t / 64.0

        alph = binary_alphabets()
        spec = FactorSpec(Form.HOD16, alph, dyadic_rows((2,)),
                          dyadic_rows((2, 2)),
                          np.broadcast_to(dyadic_rows((2, 1, 2)), (2, 2, 2)).copy(),
                          dyadic_rows((2, 2)),
                          np.broadcast_to(dyadic_rows((2, 1, 2)), (2, 2, 2)).copy(),
                          dyadic_rows((2, 2, 2, 2)), dyadic_rows((2, 2, 2, 2)),
                          dyadic_rows((2, 2, 4)).reshape(2, 2, 2, 2))
        assert _objective(spec, "sumrate")[0] == 0
        assert _objective(spec, "area")[0] == 0

    def test_gap_reported_honestly(self):
        cfg = SearchConfig(alphabets=binary_alphabets(), budget=4, restarts=2,
                           seed=66)
        res = improvement_search(cfg)
        hod, hk = hod_vs_projected_hk(res.best_spec)
        assert res.objective == area2(hod) - area2(hk)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(alphabets=binary_alphabets(), budget=0)
        with pytest.raises(ValueError):
            SearchConfig(alphabets=binary_alphabets(), step=1.0)
        with pytest.raises(ValueError):
            SearchConfig(alphabets=binary_alphabets(), objective="volume")


class TestSumRate:
    def test_search_solves_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("solve_lp called")

        monkeypatch.setattr(polytope, "solve_lp", no_lp)
        res = improvement_search(SearchConfig(alphabets=binary_alphabets(), budget=3,
                                              restarts=2, seed=9, objective="sumrate"))
        assert len(res.trace) == 3

    def test_equals_the_lp_maximum(self):
        for i in range(5):
            spec = sample_spec(binary_alphabets(), Form.HOD16, [67, i])
            gap, hod, hk = _objective(spec, "sumrate")
            assert gap == hod.maximize([1, 1]).value - hk.maximize([1, 1]).value


# 2 * 4**4 * 3**4 = 41 472 cells: above the gate, with a quarter of WIDE's
# joint, so the concurrent path runs at a small cost.
ABOVE_GATE = dict(Q=2, U1=4, W1=4, U2=4, W2=4, X1=3, X2=3, Y1=3, Y2=3)


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    threads = []

    class Spy(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return threads


def _search_bytes(res):
    return (res.trace, res.objective, res.hod_vertices, res.hk_vertices,
            res.restart, json.dumps(spec_to_json(res.best_spec)))


class TestConcurrentRegions:
    def test_above_gate_equals_direct_calls(self, started):
        alph = binary_alphabets(**ABOVE_GATE)
        for i in range(3):
            spec = sample_spec(alph, Form.HOD16, [68, i])
            hod, hk = hod_vs_projected_hk(spec)
            assert hod.grid == region_for(spec, "HOD_R").grid
            assert hk.grid == region_for(dist.independence_projection(spec), "HK_R").grid
        assert len(started) == 3
        assert not any(t.is_alive() for t in started)

    def test_cold_caches_and_fast_switching(self, monkeypatch):
        # the caches the two threads share start empty and the interpreter
        # switches threads every microsecond: a lost or mixed-up cache
        # entry would change a grid row
        alph = binary_alphabets(**ABOVE_GATE)
        specs = [sample_spec(alph, Form.HOD16, [69, i]) for i in range(3)]
        monkeypatch.setattr(sampler, "CONCURRENT_CELLS", 10**9)
        serial = [tuple(p.grid for p in hod_vs_projected_hk(s)) for s in specs]
        monkeypatch.undo()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for s, want in zip(specs, serial):
                for cache in (regions.build_system, dist._factor_views,
                              dist._marginal_plan, dist.entropy_keys):
                    cache.cache_clear()
                assert tuple(p.grid for p in hod_vs_projected_hk(s)) == want
        finally:
            sys.setswitchinterval(interval)

    def test_wide_search_byte_identical(self, monkeypatch):
        cfg = SearchConfig(alphabets=binary_alphabets(**WIDE), budget=3,
                           restarts=2, seed=70)
        first = _search_bytes(improvement_search(cfg))
        assert _search_bytes(improvement_search(cfg)) == first
        monkeypatch.setattr(sampler, "CONCURRENT_CELLS", 10**9)
        assert _search_bytes(improvement_search(cfg)) == first

    def test_binary_spec_starts_no_thread(self, started):
        cfg = SearchConfig(alphabets=binary_alphabets(), budget=3, restarts=1,
                           seed=71)
        improvement_search(cfg)
        assert started == []

    def test_worker_exception_reaches_caller(self, monkeypatch):
        raised = OverflowError("HK_R failed")

        def failing(spec, region_id):
            if region_id == "HK_R":
                raise raised
            return region_for(spec, region_id)

        monkeypatch.setattr(sampler, "region_for", failing)
        spec = sample_spec(binary_alphabets(**ABOVE_GATE), Form.HOD16, [72, 0])
        with pytest.raises(OverflowError) as info:
            hod_vs_projected_hk(spec)
        assert info.value is raised

    def test_worker_joined_when_caller_interrupted(self, monkeypatch, started):
        done = []

        def interrupted(spec, region_id):
            if region_id == "HK_R":
                time.sleep(0.2)
                done.append(region_id)
                raise OverflowError("dropped: the correlated region raised first")
            raise KeyboardInterrupt

        monkeypatch.setattr(sampler, "region_for", interrupted)
        spec = sample_spec(binary_alphabets(**ABOVE_GATE), Form.HOD16, [72, 1])
        with pytest.raises(KeyboardInterrupt):
            hod_vs_projected_hk(spec)
        assert done == ["HK_R"]
        assert len(started) == 1 and not started[0].is_alive()
