import gc
import json
import tracemalloc

import pytest

from icregions import claims, polytope
from icregions.claims import (ALL_CLAIMS, HARD_CLAIMS, claim_cmg_subset_hod,
                              claim_fm_reproduction, claim_hod_extra_terms,
                              claim_reduction_independence,
                              claim_redundancy_relations,
                              compact_equivalence_report, remark2_report,
                              run_all, run_claim)
from icregions import terms
from icregions.dist import Form, build_joint, cond_mutual_info, Var
from icregions.sampler import binary_alphabets, sample_spec


class TestReductionIndependence:
    def test_small_batch_passes(self):
        rep = claim_reduction_independence(5, 71)
        assert rep.ok and rep.passed == 5

    def test_degenerate_spec_trivially_passes(self):
        from test_dist import degenerate_spec

        rep = claim_reduction_independence(1, 0, specs=[degenerate_spec(Form.HK2)])
        assert rep.ok

    def test_correlated_spec_flagged(self):
        hod = sample_spec(binary_alphabets(), Form.HOD16, [71, 0])
        rep = claim_reduction_independence(1, 0, specs=[hod])
        assert not rep.ok
        assert rep.samples[0]["form_violation"] == "hod16"


class TestRedundancyRelations:
    def test_small_batch_passes(self):
        rep = claim_redundancy_relations(5, 72)
        assert rep.ok and rep.passed == 5

    def test_out_of_contract_spec_noted_not_failed(self):
        hod = sample_spec(binary_alphabets(), Form.HOD16, [72, 0])
        rep = claim_redundancy_relations(1, 0, specs=[hod])
        assert rep.ok  # recorded as data, never a claim failure
        assert rep.samples[0]["ok"] is None
        assert rep.notes


class TestCmgSubsetHod:
    def test_report_structure(self):
        rep = claim_cmg_subset_hod(4, 73)
        assert rep.passed + rep.failed == 4
        for s in rep.samples:
            assert {"rho1", "rho2", "B1", "C2"} <= set(s)

    def test_failures_carry_spec_json_and_note(self):
        # the containment is a union-level statement; per-distribution
        # counterexamples exist, and the harness must report them honestly
        # with a reproducible witness (seed [7, 5] is one)
        rep = claim_cmg_subset_hod(6, 7)
        failing = [s for s in rep.samples if s["ok"] is False]
        assert failing, "expected the known counterexample at index 5"
        assert all("spec" in s for s in failing)
        assert rep.notes

    def test_known_counterexample_geometry(self):
        # at seed [7, 5] the re-expressed common-rate bound B1 = rho1 is far
        # below the T1 range the superposition region permits (up to e2)
        spec = sample_spec(binary_alphabets(), Form.CMG9, [7, 5])
        joint = build_joint(spec)
        rho1 = cond_mutual_info(joint, {Var.U1}, {Var.W1}, {Var.Q})
        e2 = cond_mutual_info(joint, {Var.Y2}, {Var.U2, Var.W1},
                              {Var.W2, Var.Q})
        d1 = cond_mutual_info(joint, {Var.Y1}, {Var.U1, Var.W1},
                              {Var.W2, Var.Q})
        assert min(d1, e2) > rho1 + 2.0**-30


class TestHodExtraTerms:
    def test_small_batch_passes(self):
        rep = claim_hod_extra_terms(5, 74)
        assert rep.ok and rep.passed == 5
        for s in rep.samples:
            assert abs(s["B1-b1"] - s["rho1"]) <= 1e-9

    def test_wrongly_conditioned_rho_fails(self, monkeypatch):
        # rho1 = I(U1; W1) instead of I(U1; W1 | Q): the claim's chain-rule
        # forms do not read TERMS, so the wrong composites must show
        u1, w1, _ = terms.TERMS["rho1"]
        monkeypatch.setitem(terms.TERMS, "rho1", (u1, w1, frozenset()))
        rep = claim_hod_extra_terms(20, 7)
        assert rep.failed == 20 and all("spec" in s for s in rep.samples)

    def test_given_specs_match_drawn_ones(self):
        specs = [sample_spec(binary_alphabets(), Form.HOD16, [74, i]) for i in range(2)]
        assert claim_hod_extra_terms(2, 74, specs=specs).to_json() == \
            claim_hod_extra_terms(2, 74).to_json()


class TestFmReproduction:
    def test_all_cases_pass(self):
        rep = claim_fm_reproduction()
        assert rep.ok
        cases = {s["case"] for s in rep.samples}
        assert cases == {"hk->11", "hk->9", "hk-mod->13", "cmg->9", "hod->13",
                         "cmg-vs-hk-diff", "hod-rho0->hk"}


class TestExploratoryReports:
    def test_compact_forced_directions(self):
        rep = compact_equivalence_report(3, 75)
        assert not rep.hard
        assert rep.ok
        for s in rep.samples:
            assert s["hk_in_compact"] and s["cmg_in_compact"]

    def test_remark2_data_only(self):
        rep = remark2_report(3, 76)
        assert not rep.hard
        assert all(s["ok"] is None for s in rep.samples)
        assert all("e1-a1-c1" in s for s in rep.samples)


class TestHarness:
    def test_reports_reproducible_bit_for_bit(self):
        for cid in ALL_CLAIMS:
            a = json.dumps(run_claim(cid, 2, 77).to_json(), sort_keys=True)
            b = json.dumps(run_claim(cid, 2, 77).to_json(), sort_keys=True)
            assert a == b, cid

    def test_run_all_aggregates_hard_claims_only(self):
        out = run_all(2, 78)
        assert len(out["reports"]) == len(ALL_CLAIMS)
        hard_ok = all(r["ok"] for r in out["reports"]
                      if r["claim"] in HARD_CLAIMS)
        assert out["ok"] == hard_ok

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            run_claim("nope", 1, 0)

    @pytest.mark.parametrize("claim,n,seed,message", [
        ("remark2-data", -1, 7, "n must be a nonnegative int, got -1"),
        ("remark2-data", True, True, "n must be a nonnegative int, got True"),
        ("fm-reproduction", 1.0, 0, "n must be a nonnegative int, got 1.0"),
        ("hod-extra-terms", 1, -1, "seed must be a nonnegative int, got -1"),
        ("cmg-subset-hod", 1, False, "seed must be a nonnegative int, got False"),
        ("cmg-subset-hod", 1, "7", "seed must be a nonnegative int, got '7'"),
        (claim_hod_extra_terms, -1, 7, "n must be a nonnegative int, got -1"),
        (claim_hod_extra_terms, True, 7, "n must be a nonnegative int, got True"),
        (compact_equivalence_report, 1, -3,
         "seed must be a nonnegative int, got -3"),
    ], ids=["n-negative", "n-bool", "n-float", "seed-negative", "seed-bool",
            "seed-str", "report-n-negative", "report-n-bool",
            "report-seed-negative"])
    def test_bad_count_or_seed_rejected(self, claim, n, seed, message):
        """Through ``run_claim`` by claim id, or an exported report
        function called directly."""
        with pytest.raises(ValueError) as exc:
            if callable(claim):
                claim(n, seed)
            else:
                run_claim(claim, n, seed)
        assert str(exc.value) == message


class TestSharedSamples:
    """The claims check each sample in turn, and every claim that checks
    sample ``i`` reads the same drawn (spec, joint) of a form; the memo
    keeps the last three draws."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        claims._sample.cache_clear()
        yield
        claims._sample.cache_clear()

    def test_run_all_draws_each_spec_once(self, monkeypatch):
        drawn = []

        def counting(alphabets, form, seed):
            drawn.append((form, *seed))
            return sample_spec(alphabets, form, seed)

        monkeypatch.setattr(claims, "sample_spec", counting)
        run_all(3, 7)
        assert len(drawn) == 9 and set(drawn) == {
            (form, 7, i) for form in (Form.HK2, Form.CMG9, Form.HOD16)
            for i in range(3)}

    def test_run_all_reports_equal_claims_run_alone(self):
        # each claim alone starts from an empty memo, so it makes every
        # record it reads itself
        together = run_all(20, 7)["reports"]
        for cid, rep in zip(ALL_CLAIMS, together):
            claims._sample.cache_clear()
            alone = run_claim(cid, 20, 7).to_json()
            assert json.dumps(rep, sort_keys=True) == \
                json.dumps(alone, sort_keys=True), cid

    def test_each_sample_is_evaluated_snapped_and_clipped_once(self, monkeypatch):
        """Every claim on a sample reads its record: the terms of each of
        the 9 joints are evaluated once, each HK2 and CMG9 sample's values
        snapped once (no claim binds a HOD16 sample), each of their 8
        systems bound once per sample, and a bound region's ring clipped
        at most once."""
        calls = {}

        def spy(module, name):
            real, log = getattr(module, name), calls.setdefault(name, [])
            monkeypatch.setattr(module, name, lambda *args: log.append(args) or real(*args))

        for module, name in ((claims, "eval_terms"), (claims, "snap_terms"),
                             (claims, "bind"), (polytope, "_ring")):
            spy(module, name)
        run_all(3, 7)
        joints = [joint for joint, in calls["eval_terms"]]
        assert len(joints) == 9 and len(set(map(id, joints))) == 9
        values = [tv for tv, in calls["snap_terms"]]
        assert len(values) == 6 and len(set(map(id, values))) == 6
        bound = {(id(system), id(binding)) for system, binding in calls["bind"]}
        assert len(calls["bind"]) == len(bound) == 24
        rings = [p for p, in calls["_ring"]]
        assert rings and len(set(map(id, rings))) == len(rings)

    def test_given_specs_build_one_joint_per_index(self, monkeypatch):
        """With given specs every claim reads one record per index; only
        compact-equivalence's drawn CMG9 partners add joints of their own."""
        built, real = [], claims.build_joint
        monkeypatch.setattr(claims, "build_joint", lambda spec: built.append(spec) or real(spec))
        specs = [sample_spec(binary_alphabets(), Form.HK2, [79, i]) for i in range(2)]
        together = claims._run(ALL_CLAIMS, 2, 79, specs)
        assert [id(s) for s in built if s.form is Form.HK2] == list(map(id, specs))
        for rep in together:
            alone = run_claim(rep.claim_id, 2, 79, specs=specs)
            assert alone.to_json() == rep.to_json(), rep.claim_id

    def test_the_memo_holds_at_most_three_draws(self):
        run_all(4, 7)
        info = claims._sample.cache_info()
        assert info.maxsize == 3 and info.currsize == 3 and info.misses == 12
        run_claim("hod-extra-terms", 2, 8)
        assert claims._sample.cache_info().currsize == 3

    def test_held_memory_does_not_grow_with_the_sample_count(self):
        # sample-major, the draws of earlier samples are let go: what a run
        # leaves in the memo is the last sample's three draws (about 54 KB),
        # whatever n is.  Measured as what clearing the memo frees, since
        # NumPy's own small blocks, left by its reductions and flag
        # setting, grow slowly with n too; one of those blocks (about 50
        # bytes) may be freed with the draws or not, hence the 1 KB slack,
        # far below one draw.
        def held_after(n):
            claims._sample.cache_clear()
            gc.collect()
            tracemalloc.start()
            try:
                run_all(n, 7)
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
                claims._sample.cache_clear()
                gc.collect()
                return held - tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        held_after(1)  # the first run in a process makes one-time allocations
        assert 0 < held_after(60) <= held_after(20) + 1024

    def test_given_specs_neither_read_nor_fill_the_memo(self, monkeypatch):
        sample = claims._sample

        def refuse(*args):
            raise AssertionError("a report with given specs drew a sample")

        monkeypatch.setattr(claims, "_sample", refuse)
        hod = sample_spec(binary_alphabets(), Form.HOD16, [74, 0])
        assert claim_hod_extra_terms(1, 74, specs=[hod]).ok
        assert not claim_reduction_independence(1, 74, specs=[hod]).ok
        assert sample.cache_info().currsize == 0

    def test_terms_are_evaluated_again_on_a_shared_joint(self, monkeypatch):
        # the memo keeps joints, not term values, so a changed TERMS shows
        # even when the joints and their entropies were made before it
        assert claim_hod_extra_terms(2, 7).ok
        u1, w1, _ = terms.TERMS["rho1"]
        monkeypatch.setitem(terms.TERMS, "rho1", (u1, w1, frozenset()))
        assert claim_hod_extra_terms(2, 7).failed == 2
