import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icregions.dist import Form, build_joint
from icregions.linsys import (AXIOM_SETS, AXIOMS_CHAIN, AXIOMS_HK_INDEP, Combo,
                              Inequality, LinearSystem, derive_region,
                              fm_eliminate, parse_bounds, prune_redundant,
                              substitute_rate_sums, substitute_zero,
                              system_equal, system_from_json, system_to_json)
from icregions.polytope import bind, poly_equal, snap_terms
from icregions.regions import (HK_R_REDUNDANT, build_system,
                               hk_r_with_redundant)
from icregions.sampler import binary_alphabets, sample_spec
from icregions.terms import eval_terms
from oracles import prune_redundant_eq

F = Fraction


def hk2_binding(index):
    spec = sample_spec(binary_alphabets(), Form.HK2, [31, index])
    return snap_terms(eval_terms(build_joint(spec)))


class TestCombo:
    def test_composites_expand(self):
        c = Combo.of({"B1": 1, "a2": 2})
        assert c.as_dict() == {"b1": F(1), "rho1": F(1), "a2": F(2)}

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError, match="unknown term symbols"):
            Combo.of({"z9": 1})

    def test_arithmetic(self):
        c = Combo.of({"a1": 1}) + Combo.of({"a1": -1, "b1": 2})
        assert c.as_dict() == {"b1": F(2)}
        assert c.scale(-1).as_dict() == {"b1": F(-2)}
        assert c.scale(F(1, 2)).as_dict() == {"b1": F(1)}

    def test_evaluate(self):
        c = Combo.of({"a1": 2, "g2": -1}, const=F(1, 4))
        assert c.evaluate({"a1": F(1, 2), "g2": F(1)}) == F(1, 4)


class TestInequality:
    def test_canonical_scaling(self):
        i = Inequality.of({"R1": F(2, 3)}, {"a1": F(4, 3)})
        j = Inequality.of({"R1": 1}, {"a1": 2})
        assert i.key() == j.key()

    def test_unknown_rate_var(self):
        with pytest.raises(ValueError, match="unknown rate variables"):
            Inequality.of({"R9": 1}, {"a1": 1})

    def test_term_fact_detection(self):
        assert Inequality.of({}, {"a1": 1}).is_term_fact()


class TestParseBounds:
    def test_receiver_2_rows_follow_every_receiver_1_row(self):
        rows = parse_bounds(["R1 <= d1", "2R1 + R2 <= a1 + g1 + e2"])
        assert [i.key() for i in rows] == [
            Inequality.of({"R1": 1}, {"d1": 1}).key(),
            Inequality.of({"R1": 2, "R2": 1}, {"a1": 1, "g1": 1, "e2": 1}).key(),
            Inequality.of({"R2": 1}, {"d2": 1}).key(),
            Inequality.of({"R2": 2, "R1": 1}, {"a2": 1, "g2": 1, "e1": 1}).key()]

    @pytest.mark.parametrize("text,fact", [
        ("g1 + b1 <= d1 + f1", {"d1": 1, "f1": 1, "g1": -1, "b1": -1}),
        ("C1 <= e1", {"e1": 1, "c1": -1, "rho1": -1}),
        ("rho1 <= 0", {"rho1": -1}),
        ("a1 + a1 <= d1", {"d1": 1, "a1": -2}),
    ])
    def test_term_symbols_move_right(self, text, fact):
        row = parse_bounds([text])[0]
        assert row.is_term_fact()
        assert row.rhs == Combo.of(fact)

    @pytest.mark.parametrize("text", [
        "R1 <= a1 - b1", "R1 <= 1", "R1 <= 1/2 a1", "2 R1 <= a1", "R1 <= 0a1",
    ])
    def test_other_text_refused(self, text):
        with pytest.raises(ValueError) as exc:
            parse_bounds([text])
        assert repr(text) in str(exc.value)


# SHA-256 of each axiom tuple's repr, order included.
AXIOM_DIGESTS = {
    "chain": "d51dd380893b51cf1b76ac91bce6d286f0602e21d8dd9c6e406f5e5e530c3167",
    "hk-indep": "98004f7b6f5d19f2cdb9c1799d9764c1e47fc3dceaa9b9de43ccca9e1382ba9b",
}


class TestAxioms:
    @pytest.mark.parametrize("name", sorted(AXIOM_DIGESTS))
    def test_pinned(self, name):
        digest = hashlib.sha256(repr(AXIOM_SETS[name]).encode()).hexdigest()
        assert digest == AXIOM_DIGESTS[name]


class TestFmEliminate:
    def test_textbook_pair(self):
        # {x <= a1, y - x <= b1} with implicit x >= 0 -> {y <= a1 + b1}
        sys0 = LinearSystem.of(("S1", "T1"), [
            Inequality.of({"S1": 1}, {"a1": 1}),
            Inequality.of({"T1": 1, "S1": -1}, {"b1": 1}),
        ])
        out = fm_eliminate(sys0, "S1")
        assert [i.key() for i in out.inequalities] == [
            Inequality.of({"T1": 1}, {"a1": 1, "b1": 1}).key()]
        # the pure fact 0 <= a1 lands in term_facts
        assert Combo.of({"a1": 1}) in out.term_facts

    def test_absent_variable_no_change(self):
        sys0 = LinearSystem.of(("S1", "T1"),
                               [Inequality.of({"S1": 1}, {"a1": 1})])
        out = fm_eliminate(sys0, "T1")
        assert out.inequalities == sys0.inequalities

    @pytest.mark.parametrize("v", ["T1", "R1", "a1"])
    def test_variable_not_in_system_rejected(self, v):
        sys0 = LinearSystem.of(("S1",), [Inequality.of({"S1": 1}, {"a1": 1})])
        with pytest.raises(ValueError, match=f"{v!r} is not a rate variable"):
            fm_eliminate(sys0, v)

    def test_order_independence_up_to_redundancy(self):
        quad = substitute_rate_sums(build_system("HK_Q"))
        ab = fm_eliminate(fm_eliminate(quad, "T1"), "T2")
        ba = fm_eliminate(fm_eliminate(quad, "T2"), "T1")
        for i in range(20):
            binding = hk2_binding(i)
            assert poly_equal(bind(ab, binding), bind(ba, binding), F(0))


class TestSubstituteRateSums:
    def test_direct_substitution(self):
        sys0 = LinearSystem.of(("S1", "T1", "S2", "T2"),
                               [Inequality.of({"S1": 1}, {"a1": 1})])
        out = substitute_rate_sums(sys0)
        keys = {i.key() for i in out.inequalities}
        assert Inequality.of({"R1": 1, "T1": -1}, {"a1": 1}).key() in keys
        assert Inequality.of({"T1": 1, "R1": -1}, {}).key() in keys

    def test_sum_collapses(self):
        sys0 = LinearSystem.of(("S1", "T1", "S2", "T2"),
                               [Inequality.of({"S1": 1, "T1": 1}, {"d1": 1})])
        out = substitute_rate_sums(sys0)
        assert Inequality.of({"R1": 1}, {"d1": 1}).key() in \
            {i.key() for i in out.inequalities}

    def test_rejects_r_variables(self):
        sys0 = LinearSystem.of(("R1", "R2"),
                               [Inequality.of({"R1": 1}, {"d1": 1})])
        with pytest.raises(ValueError):
            substitute_rate_sums(sys0)


class TestPruning:
    def test_duplicate_removed_at_construction(self):
        sys0 = LinearSystem.of(("R1", "R2"), [
            Inequality.of({"R1": 1}, {"d1": 1}),
            Inequality.of({"R1": 2}, {"d1": 2}),
        ])
        assert len(sys0.inequalities) == 1

    def test_dominated_inequality_pruned(self):
        sys0 = LinearSystem.of(("R1", "R2"), [
            Inequality.of({"R1": 1}, {"a1": 1}),
            Inequality.of({"R1": 1}, {"a1": 1, "b1": 1}),
        ])
        out = prune_redundant(sys0, ())
        assert len(out.inequalities) == 1
        assert out.inequalities[0].rhs.as_dict() == {"a1": F(1)}

    def test_prune_respects_axioms(self):
        # R1 <= d1 prunes R1 <= a1 + b1 + rho1 only with the d-bound axiom
        sys0 = LinearSystem.of(("R1", "R2"), [
            Inequality.of({"R1": 1}, {"d1": 1}),
            Inequality.of({"R1": 1}, {"a1": 1, "b1": 1, "rho1": 1}),
        ])
        assert len(prune_redundant(sys0, ()).inequalities) == 2
        assert len(prune_redundant(sys0, AXIOMS_CHAIN).inequalities) == 1

    def test_prune_removes_exactly_the_redundant_pair(self):
        full = hk_r_with_redundant()
        pruned = prune_redundant(full, AXIOMS_HK_INDEP)
        eq, _ = system_equal(pruned, build_system("HK_R"))
        assert eq
        removed = ({i.key() for i in full.inequalities}
                   - {i.key() for i in pruned.inequalities})
        assert removed == {i.key() for i in HK_R_REDUNDANT}

    def test_pruning_preserves_polytope_on_valid_bindings(self):
        full = hk_r_with_redundant()
        pruned = prune_redundant(full, AXIOMS_HK_INDEP)
        for i in range(20):
            binding = hk2_binding(i)
            assert poly_equal(bind(full, binding), bind(pruned, binding), F(0))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.dictionaries(st.sampled_from(
                                  ["a1", "b1", "d1", "g1", "rho1", "c2", "e2"]),
                                  st.sampled_from([-1, 1, 2]), min_size=1, max_size=3),
                              st.sampled_from([0, 0, 1, -1])),
                    min_size=1, max_size=6),
           st.sampled_from([(), AXIOMS_CHAIN, AXIOMS_HK_INDEP]))
    def test_keeps_what_the_equality_form_keeps(self, rows, axioms):
        """The pruning LP states the term-symbol and constant rows as
        inequalities; it must keep exactly the rows that the LP with one
        equality row per symbol and fixed 0 <= s columns keeps."""
        sys0 = LinearSystem.of(("R1", "R2"), [
            Inequality.of({"R1": r1, "R2": r2}, rhs, const)
            for r1, r2, rhs, const in rows if r1 or r2])
        assert (prune_redundant(sys0, axioms).inequalities
                == prune_redundant_eq(sys0, axioms).inequalities)


class TestDeriveRegion:
    def test_hk_with_chain_axioms_gives_eleven(self):
        eq, diff = system_equal(derive_region("hk", "chain"),
                                hk_r_with_redundant())
        assert eq, diff

    def test_hk_with_independence_axioms_gives_nine(self):
        eq, diff = system_equal(derive_region("hk", "hk-indep"),
                                build_system("HK_R"))
        assert eq, diff

    def test_modified_hk_gives_thirteen(self):
        eq, diff = system_equal(derive_region("hk-mod", "hk-indep"),
                                build_system("HK_R_MODIFIED"))
        assert eq, diff

    def test_cmg_gives_nine(self):
        eq, diff = system_equal(derive_region("cmg", "chain"),
                                build_system("CMG_R"))
        assert eq, diff

    def test_hod_gives_thirteen(self):
        eq, diff = system_equal(derive_region("hod", "chain"),
                                build_system("HOD_R"))
        assert eq, diff

    def test_unknown_ids(self):
        with pytest.raises(ValueError):
            derive_region("nope")
        with pytest.raises(ValueError):
            derive_region("hk", "nope")


class TestSystemEqual:
    def test_reflexive(self):
        s = build_system("HK_R")
        eq, diff = system_equal(s, s)
        assert eq and not diff["only_a"] and not diff["only_b"]

    def test_cmg_vs_hk_diff(self):
        eq, diff = system_equal(build_system("CMG_R"), build_system("HK_R"))
        assert not eq
        assert {i.key() for i in diff["only_a"]} == {
            Inequality.of({"R1": 1}, {"a1": 1, "e2": 1}).key(),
            Inequality.of({"R2": 1}, {"a2": 1, "e1": 1}).key()}
        assert {i.key() for i in diff["only_b"]} == {
            Inequality.of({"R1": 1}, {"a1": 1, "c2": 1}).key(),
            Inequality.of({"R2": 1}, {"a2": 1, "c1": 1}).key()}

    def test_correlated_system_at_rho_zero_reduces(self):
        hod0 = substitute_zero(build_system("HOD_R"), {"rho1", "rho2"})
        eq, diff = system_equal(prune_redundant(hod0, AXIOMS_HK_INDEP),
                                build_system("HK_R"))
        assert eq, diff

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError):
            system_equal(build_system("HK_R"), build_system("HK_Q"))


class TestJsonRoundTrip:
    def test_round_trip_all_regions(self):
        import json

        for rid in ("HK_Q", "HOD_Q", "HK_R", "HOD_R", "CMG_R"):
            s = build_system(rid)
            back = system_from_json(json.loads(json.dumps(system_to_json(s))))
            eq, diff = system_equal(s, back)
            assert eq, (rid, diff)
            assert back.term_facts == s.term_facts
