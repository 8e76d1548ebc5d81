import numpy as np
import pytest

from icregions.dist import FactorSpec, Form, Var, build_joint
from icregions.sampler import binary_alphabets, sample_spec
from icregions.terms import (ALL_SYMBOLS, BASE_SYMBOLS, COMPOSITE_EXPANSION,
                             cmg_identity_report, eval_terms)
from oracles import naive_term_vector
from test_dist import degenerate_spec


class TestEvalTerms:
    def test_symbol_inventory(self):
        tv = eval_terms(build_joint(sample_spec(binary_alphabets(), Form.HOD16,
                                                [21, 0])))
        assert set(tv) == set(ALL_SYMBOLS)
        assert len(BASE_SYMBOLS) == 16
        assert len(tv) == 22

    def test_named_symbols_only(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [21, 3])
        full, joint = eval_terms(build_joint(spec)), build_joint(spec)
        assert list(full) == list(ALL_SYMBOLS)
        # a composite is its base plus rho; the dict keeps ALL_SYMBOLS order
        part = eval_terms(joint, ["rho1", "B2", "a1"])
        assert list(part.items()) == [(s, full[s]) for s in ("a1", "rho1", "B2")]
        assert eval_terms(joint, []) == {}
        assert joint._partials  # kept on the joint for later marginals
        with pytest.raises(ValueError, match="unknown term symbols"):
            eval_terms(joint, ["a1", "h1"])

    def test_base_symbol_order(self):
        # the column order of the symbolic pruning LP, so derive's pivots
        assert BASE_SYMBOLS == ("a1", "b1", "c1", "d1", "e1", "f1", "g1",
                                "a2", "b2", "c2", "d2", "e2", "f2", "g2",
                                "rho1", "rho2")

    def test_hk2_joint_has_zero_rho(self):
        tv = eval_terms(build_joint(sample_spec(binary_alphabets(), Form.HK2,
                                                [21, 1])))
        assert tv["rho1"] <= 1e-12 and tv["rho2"] <= 1e-12
        for comp, (base, _) in COMPOSITE_EXPANSION.items():
            assert abs(tv[comp] - tv[base]) <= 1e-12

    def test_degenerate_all_zero(self):
        tv = eval_terms(build_joint(degenerate_spec()))
        assert all(v == 0.0 for v in tv.values())

    def test_matches_independent_oracle(self):
        joint = build_joint(sample_spec(binary_alphabets(), Form.HOD16, [21, 2]))
        ref = naive_term_vector(joint)
        tv = eval_terms(joint)
        for k in ALL_SYMBOLS:
            assert tv[k] == pytest.approx(ref[k], abs=1e-10), k

    def test_composite_decomposition(self):
        for i in range(5):
            tv = eval_terms(build_joint(sample_spec(binary_alphabets(),
                                                    Form.HOD16, [21, 3 + i])))
            for side in (1, 2):
                rho = tv[f"rho{side}"]
                assert tv[f"B{side}"] - tv[f"b{side}"] == pytest.approx(rho, abs=1e-9)
                assert tv[f"C{side}"] - tv[f"c{side}"] == pytest.approx(rho, abs=1e-9)
                assert tv[f"F{side}"] - tv[f"f{side}"] == pytest.approx(rho, abs=1e-9)

    def test_chain_monotonicity(self):
        tv = eval_terms(build_joint(sample_spec(binary_alphabets(), Form.HOD16,
                                                [21, 8])))
        for i in (1, 2):
            assert tv[f"a{i}"] <= tv[f"d{i}"] + 1e-9 <= tv[f"g{i}"] + 2e-9
            assert tv[f"b{i}"] <= tv[f"d{i}"] + 1e-9
            assert tv[f"c{i}"] <= tv[f"f{i}"] + 1e-9 <= tv[f"g{i}"] + 2e-9
            assert tv[f"a{i}"] <= tv[f"e{i}"] + 1e-9 <= tv[f"g{i}"] + 2e-9

    def test_conditioning_relations_on_hk2(self):
        # the two facts used to prove the redundant sum-rate bounds
        for i in range(5):
            tv = eval_terms(build_joint(sample_spec(binary_alphabets(), Form.HK2,
                                                    [21, 9 + i])))
            assert tv["c2"] + tv["g2"] <= tv["e2"] + tv["f2"] + 1e-9
            assert tv["c1"] + tv["g1"] <= tv["e1"] + tv["f1"] + 1e-9

    def test_relabeling_invariance(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [21, 14])
        tv = eval_terms(build_joint(spec))
        # swap the two symbols of X1 (permute encoder output and channel input)
        flipped = FactorSpec(
            Form.HOD16, spec.alphabets, spec.q, spec.w1_given_q,
            spec.u1_given_q_w1, spec.w2_given_q, spec.u2_given_q_w2,
            spec.x1_given_q_u1_w1[..., ::-1], spec.x2_given_q_u2_w2,
            spec.channel[::-1, ...])
        tv2 = eval_terms(build_joint(flipped))
        for k in ALL_SYMBOLS:
            assert tv[k] == pytest.approx(tv2[k], abs=1e-10), k


class TestCmgIdentities:
    def test_identities_hold(self):
        joint = build_joint(sample_spec(binary_alphabets(), Form.CMG9, [21, 15]))
        rep = cmg_identity_report(joint)
        assert rep["ok"]
        assert len(rep["identities"]) == 8
        assert rep["max_abs_diff"] <= 1e-10

    def test_degenerate_both_sides_zero(self):
        rep = cmg_identity_report(build_joint(degenerate_spec(Form.CMG9)))
        assert rep["ok"]
        assert all(row["u_form"] == 0.0 and row["x_form"] == 0.0
                   for row in rep["identities"].values())

    def test_values_match_oracle(self):
        joint = build_joint(sample_spec(binary_alphabets(), Form.CMG9, [21, 16]))
        rep = cmg_identity_report(joint)
        ref = naive_term_vector(joint)
        for sym in ("a1", "d1", "e1", "g1", "a2", "d2", "e2", "g2"):
            assert rep["identities"][sym]["u_form"] == pytest.approx(ref[sym], abs=1e-10)
