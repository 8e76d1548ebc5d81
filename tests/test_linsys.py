import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from icregions import lp
from icregions.dist import Form, build_joint
from icregions.linsys import (AXIOM_SETS, AXIOMS_CHAIN, AXIOMS_HK_INDEP,
                              QUADRUPLE_SYSTEMS, Combo, Inequality,
                              LinearSystem, _one_row_certified, _pruning, cone_rays,
                              derive_region, fm_eliminate, parse_bounds,
                              prune_redundant, substitute_rate_sums,
                              substitute_zero, system_equal,
                              system_from_json, system_to_json)
from icregions.lp import feasible
from icregions.polytope import (SNAP_DEN, bind, fm_eliminate_numeric, poly_equal,
                                snap_terms)
from icregions.regions import (HK_R_REDUNDANT, REGION_IDS, build_system,
                               hk_r_with_redundant)
from icregions.sampler import binary_alphabets, sample_spec
from icregions.terms import BASE_SYMBOLS, eval_terms
from oracles import (ReferenceFeasibility, combination, fm_step_keys,
                     prune_redundant_eq, reference_one_row)

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src"

_SWAP = str.maketrans("12", "21")


def hk2_binding(index):
    spec = sample_spec(binary_alphabets(), Form.HK2, [31, index])
    return snap_terms(eval_terms(build_joint(spec)))


class TestCombo:
    def test_composites_expand(self):
        c = Combo.of({"B1": 1, "a2": 2})
        assert dict(c.coeffs) == {"b1": F(1), "rho1": F(1), "a2": F(2)}

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError, match="unknown term symbols"):
            Combo.of({"z9": 1})

    def test_coefficients_in_name_order(self):
        # a Combo keeps its symbols sorted by name, not in BASE_SYMBOLS
        # order (a1..g1, a2..g2, rho1, rho2), and so must a derived row
        c = Combo.of({"rho1": 1, "a2": 2, "g1": 3})
        assert [k for k, _ in c.coeffs] == ["a2", "g1", "rho1"]
        out = substitute_rate_sums(LinearSystem.of(("S1", "T1", "S2", "T2"),
                                                   [Inequality.of({"T1": 1}, c)]))
        assert [i.rhs for i in out.inequalities if i.rhs.coeffs] == [c]


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

    def test_const_beside_a_combo_rhs_refused(self):
        # the constant would otherwise be lost
        with pytest.raises(ValueError, match="both a Combo rhs and a nonzero const"):
            Inequality.of({"R1": 1}, Combo.of({"a1": 1}), 5)
        assert Inequality.of({"R1": 1}, Combo.of({"a1": 1}, 5)).rhs.const == 5
        assert Inequality.of({"R1": 1}, {"a1": 1}, 5).rhs.const == 5
        assert Inequality.of({"R1": 1}, Combo.of({"a1": 1}), 0).rhs.const == 0


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
    "chain": "fcf152654755cdbf2849831bae9c4c7068dbc0a3f4763ec0b4100a4ebd661708",
    "hk-indep": "f80788867db714545cc41fe9de9e6d29bdcacb72d58b9fd306898940e13e3fd1",
}

# The receiver-1 facts of the axiom sets before they were reduced to bases:
# 17 chain facts, and the chain facts plus 3 for hk-indep.  Each new set
# must span the same cone.
OLD_CHAIN = (
    "a1 <= d1", "b1 <= d1", "a1 <= e1", "c1 <= e1", "b1 <= f1", "c1 <= f1",
    "d1 <= g1", "e1 <= g1", "f1 <= g1",
    "d1 <= a1 + B1", "e1 <= a1 + c1", "f1 <= b1 + c1", "g1 <= c1 + d1",
    "g1 <= e1 + B1", "g1 <= a1 + F1", "g1 + b1 <= d1 + f1", "g1 + a1 <= d1 + e1",
)
OLD_AXIOMS = {
    "chain": OLD_CHAIN,
    "hk-indep": OLD_CHAIN + ("c1 + g1 <= e1 + f1", "C1 <= e1", "rho1 <= 0"),
}


def implied_by(fact, basis):
    """Nonnegative multipliers, one per basis fact, whose combination is at
    most ``fact`` in every term symbol and the constant (the rest being
    0 <= s and a nonnegative constant), or None when there are none."""
    keys = list(BASE_SYMBOLS) + [None]

    def column(c):
        d = {**dict(c.coeffs), None: c.const}
        return [d.get(k, 0) for k in keys]

    return feasible(A_ub=[list(r) for r in zip(*map(column, basis))],
                    b_ub=column(fact))


class TestAxioms:
    @pytest.mark.parametrize("name", sorted(AXIOM_DIGESTS))
    def test_pinned(self, name):
        digest = hashlib.sha256(repr(AXIOM_SETS[name]).encode()).hexdigest()
        assert digest == AXIOM_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(OLD_AXIOMS))
    def test_basis_spans_the_old_cone(self, name):
        """Each old fact is certified by multipliers over the basis, checked
        by multiplying them out exactly; the basis keeps only old facts."""
        basis = AXIOM_SETS[name]
        old = [i.rhs for i in parse_bounds(OLD_AXIOMS[name])]
        assert set(basis) <= set(old)
        for fact in old:
            lam = implied_by(fact, basis)
            assert lam is not None, fact
            assert all(v >= 0 for v in lam)
            rest = combination([(1, fact), *((-v, ax) for ax, v in zip(basis, lam))])
            assert all(v >= 0 for v in rest.values()), fact

    @pytest.mark.parametrize("name", sorted(AXIOM_SETS))
    def test_irredundant_and_mirror_closed(self, name):
        basis = AXIOM_SETS[name]
        assert len(set(basis)) == len(basis) == 20
        for j, fact in enumerate(basis):
            assert implied_by(fact, basis[:j] + basis[j + 1:]) is None, fact
        mirror = {Combo.of({k.translate(_SWAP): v for k, v in c.coeffs}, c.const)
                  for c in basis}
        assert mirror == set(basis)


def int_canonical(ineq) -> bool:
    """Every coefficient an ``int``, with no common factor."""
    values = [v for _, v in ineq.lhs] + [v for _, v in ineq.rhs.coeffs] + [ineq.rhs.const]
    return all(type(v) is int for v in values) and gcd(*values) == 1


# Numbers as a system JSON gives them: ints, {"num", "den"} objects and floats.
json_numbers = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda n, d: {"num": n, "den": d}, st.integers(-6, 6), st.integers(1, 6)),
    st.sampled_from([0.5, -0.25, 1.5]))


@st.composite
def json_systems(draw):
    """A system JSON over (S1, T1, R1) with rational coefficients; without
    term symbols its right-hand sides are constants, as in the rows
    ``icregions project`` eliminates from."""
    rate_vars = ["S1", "T1", "R1"]
    symbols = draw(st.sampled_from([["a1", "b1", "e2"], []]))
    row = st.fixed_dictionaries({
        "lhs": st.dictionaries(st.sampled_from(rate_vars), json_numbers,
                               min_size=1, max_size=3),
        "rhs": st.dictionaries(st.sampled_from(symbols), json_numbers, max_size=2)
        if symbols else st.just({}),
        "const": json_numbers})
    return {"rate_vars": rate_vars,
            "inequalities": draw(st.lists(row, min_size=1, max_size=6))}


class TestFmEliminate:
    @settings(max_examples=80, deadline=None)
    @given(json_systems(), st.sampled_from(["S1", "T1", "R1"]))
    def test_rational_input_matches_the_fraction_oracle(self, obj, v):
        """Rational rows enter as canonical int rows; one elimination must
        give the canonical rows and the term facts of a ``Fraction`` FM
        (Imbert's rule drops nothing on one variable), and the numeric
        projection the same rows."""
        try:
            sys0 = system_from_json(obj)
        except ValueError:  # a negative constant fact
            assume(False)
        keys, facts = fm_step_keys(sys0, v)
        constants_only = not any(i.rhs.coeffs for i in sys0.inequalities)
        if any(not coeffs and const < 0 for coeffs, const in facts):
            with pytest.raises(ValueError, match="infeasible"):
                fm_eliminate(sys0, v)
            if constants_only:
                with pytest.raises(ValueError, match="infeasible"):
                    fm_eliminate_numeric(bind(sys0, {}), v)
            return
        out = fm_eliminate(sys0, v)
        assert all(map(int_canonical, out.inequalities))
        assert {i.key() for i in out.inequalities} == keys
        assert {(c.coeffs, c.const) for c in out.term_facts} == facts
        if constants_only:
            shadow = fm_eliminate_numeric(bind(sys0, {}), v)
            assert {Inequality.of(dict(zip(shadow.dims, lhs)), {}, rhs).key()
                    for lhs, rhs in shadow.rows} == keys

    @settings(max_examples=60, deadline=None)
    @given(json_systems(), st.permutations(["S1", "T1", "R1"]),
           st.fixed_dictionaries({s: st.floats(0, 1) for s in ("a1", "b1", "e2")}))
    def test_two_steps_keep_a_subset_of_the_chained_oracle(self, obj, order, terms):
        """Eliminating two variables in one call keeps only rows of the
        oracle's two chained steps, which drop nothing, with the same term
        facts; where those facts hold, the rows bound the same polytope,
        so the rows Imbert's rule drops are implied."""
        v1, v2, _ = order
        try:
            sys0 = system_from_json(obj)
            out = fm_eliminate(sys0, v1, v2)
        except ValueError:  # a negative constant fact, given or derived
            assume(False)
        keys, facts = fm_step_keys(sys0, v1, v2)
        assert {i.key() for i in out.inequalities} <= keys
        assert {(c.coeffs, c.const) for c in out.term_facts} == facts
        # the facts come in the order of two one-variable calls, whose
        # first result is sorted
        assert out.term_facts == fm_eliminate(fm_eliminate(sys0, v1), v2).term_facts
        binding = snap_terms(terms)
        assume(all(c * SNAP_DEN + sum(v * binding[k] for k, v in coeffs) >= 0
                   for coeffs, c in facts))
        chained = LinearSystem.of(out.rate_vars, [
            Inequality.of(dict(lhs), dict(rhs), const) for lhs, rhs, const in keys])
        assert poly_equal(bind(out, binding), bind(chained, binding), F(0))

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
        with pytest.raises(ValueError,
                           match=rf"variable {v!r} not in system dims \('S1',\)"):
            fm_eliminate(sys0, v)

    # rows of the chained one-variable eliminations that Imbert's rule drops
    DROPPED = {"hk": (55, 14), "hk-mod": (47, 12), "cmg": (19, 4), "hod": (55, 14)}

    @pytest.mark.parametrize("system_id", sorted(QUADRUPLE_SYSTEMS))
    def test_imbert_rule_drops_only_implied_rows(self, system_id):
        sys1 = substitute_rate_sums(build_system(QUADRUPLE_SYSTEMS[system_id]))
        both = fm_eliminate(sys1, "T1", "T2")
        chained = fm_eliminate(fm_eliminate(sys1, "T1"), "T2")
        assert both.rate_vars == chained.rate_vars
        assert both.term_facts == chained.term_facts
        kept = set(both.inequalities)
        assert [i for i in chained.inequalities if i in kept] == list(both.inequalities)
        dropped = [i for i in chained.inequalities if i not in kept]
        assert (len(chained.inequalities), len(dropped)) == self.DROPPED[system_id]
        # each dropped row is exactly a nonnegative combination of the kept
        # rows, -v <= 0 and the elimination's own term facts: no axiom and
        # no slack
        keys = list(both.rate_vars) + list(BASE_SYMBOLS) + [None]

        def column(lhs, rhs):
            d = {**dict(lhs), **dict(rhs.coeffs), None: rhs.const}
            return [d.get(k, 0) for k in keys]

        cols = [column(i.lhs, i.rhs) for i in both.inequalities]
        cols += [column({v: -1}, Combo.of()) for v in both.rate_vars]
        cols += [column((), c) for c in both.term_facts]
        for row in dropped:
            assert feasible(A_eq=[list(r) for r in zip(*cols)],
                            b_eq=column(row.lhs, row.rhs)) is not None, row

    def test_imbert_rule_textbook_case(self):
        # S1 + T1 <= a1, R1 - S1 <= b1, R1 - T1 <= c1, S1 - T1 <= d1 with
        # S1, T1 >= 0.  Pairing T1 <= a1 (rows 0 and S1 >= 0) with
        # R1 - T1 <= b1 + d1 (rows 1 and 3) gives R1 <= a1 + b1 + d1, whose
        # history has 4 > 3 members: half of 2R1 <= a1 + 2b1 + d1 (rows 0,
        # 1, 3) plus half of the fact 0 <= a1 + d1 (rows 0, 3, S1 >= 0).
        sys0 = LinearSystem.of(("S1", "T1", "R1"), [
            Inequality.of({"S1": 1, "T1": 1}, {"a1": 1}),
            Inequality.of({"R1": 1, "S1": -1}, {"b1": 1}),
            Inequality.of({"R1": 1, "T1": -1}, {"c1": 1}),
            Inequality.of({"S1": 1, "T1": -1}, {"d1": 1}),
        ])
        both = fm_eliminate(sys0, "S1", "T1")
        chained = fm_eliminate(fm_eliminate(sys0, "S1"), "T1")
        dropped = Inequality.of({"R1": 1}, {"a1": 1, "b1": 1, "d1": 1})
        assert dropped in chained.inequalities
        assert set(chained.inequalities) - set(both.inequalities) == {dropped}
        assert both.term_facts == chained.term_facts
        assert Combo.of({"a1": 1, "d1": 1}) in both.term_facts

    def test_order_independence_up_to_redundancy(self):
        quad = substitute_rate_sums(build_system("HK_Q"))
        ab = fm_eliminate(fm_eliminate(quad, "T1"), "T2")
        ba = fm_eliminate(fm_eliminate(quad, "T2"), "T1")
        for i in range(20):
            binding = hk2_binding(i)
            assert poly_equal(bind(ab, binding), bind(ba, binding), F(0))


class TestRowView:
    """``LinearSystem.rows`` and the inequalities are two views of one
    system: one built from rows builds its inequalities on first read,
    canonical and sorted, and they give back the same rows."""

    @pytest.mark.parametrize("system_id", sorted(QUADRUPLE_SYSTEMS))
    def test_views_agree(self, system_id):
        sys1 = substitute_rate_sums(build_system(QUADRUPLE_SYSTEMS[system_id]))
        for system in (sys1, fm_eliminate(sys1, "T1"), fm_eliminate(sys1, "T1", "T2")):
            assert "inequalities" not in vars(system)
            rebuilt = LinearSystem.of(system.rate_vars, system.inequalities,
                                      system.term_facts)
            assert rebuilt == system and rebuilt.rows == system.rows

    def test_derived_region_is_built_before_it_returns(self):
        assert "inequalities" in vars(derive_region("hk"))


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
        assert dict(out.inequalities[0].rhs.coeffs) == {"a1": F(1)}

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
    # one row, no axiom and no term fact: the LP has no columns
    @example(rows=[(0, 1, {"a1": -1}, 0)], axioms=())
    # no rate coefficient: a term fact, and the system has no rows, so no
    # LP is decided
    @example(rows=[(0, 0, {"a1": -1}, 0)], axioms=())
    @example(rows=[], axioms=AXIOMS_CHAIN)
    # rho1 <= 0 cuts the chain cone's rays, and only with it does
    # R1 <= a1 + rho1 prove R1 <= a1 + b1
    @example(rows=[(0, 0, {"rho1": -1}, 0), (1, 0, {"a1": 1, "rho1": 1}, 0),
                   (1, 0, {"a1": 1, "b1": 1}, 0), (1, 1, {"g1": 1, "rho1": 1}, 0),
                   (0, 1, {"c2": 1}, 0)], axioms=AXIOMS_CHAIN)
    # 0 <= 1 - a1 is a1 <= 1, read on the rays by the homogenising
    # coordinate: R1 + R2 <= -c2 does not prove R1 + R2 <= -a1
    @example(rows=[(0, 0, {"a1": -1}, 1), (1, 1, {"a1": -1}, 0), (1, 1, {"c2": -1}, 0),
                   (1, 0, {"d1": 1}, -1)], axioms=AXIOMS_HK_INDEP)
    # coefficients past int64, and rate coefficients whose products are:
    # the one-row test and the Farkas products run over Python ints
    @example(rows=[(1, 0, {"a1": 2**70}, 0), (1, 0, {"a1": 2**70, "b1": 1}, 0),
                   (0, 1, {"a2": 1}, 0), (0, 1, {"a2": 1, "d1": 1}, 0)], axioms=AXIOMS_CHAIN)
    @example(rows=[(3**30, 1, {"a1": 1}, 0), (1, 3**30, {"a1": 1, "b1": 1}, 5**20),
                   (1, 0, {"d1": 1}, 0)], axioms=AXIOMS_HK_INDEP)
    # a rate coefficient of -2**63 fits int64, but its negation does not
    @example(rows=[(-2**63, 1, {"a1": 1}, 0), (0, 1, {"a1": 1, "b1": 1}, 0),
                   (1, 0, {"d1": 1}, 0)], axioms=AXIOMS_CHAIN)
    def test_keeps_what_the_equality_form_keeps(self, rows, axioms):
        """The pruning LP states every row as an inequality over the rate
        variables and the rays of the axioms' and term facts' cone; it must
        keep exactly the rows that the LP with one equality row per rate
        variable, term symbol and the constant, and fixed -v <= 0, 0 <= s
        and fact columns, keeps.  A row with no rate coefficient is a term
        fact.  Every Farkas y the LP gives, mapped back from the rays, is
        >= 0 and >= 0 on every axiom and term fact."""
        sys0 = LinearSystem.of(("R1", "R2"), [
            Inequality.of({"R1": r1, "R2": r2}, rhs, const)
            for r1, r2, rhs, const in rows])
        assert (prune_redundant(sys0, axioms).inequalities
                == prune_redundant_eq(sys0, axioms).inequalities)
        _assert_farkas_in_cone(sys0, axioms)


@st.composite
def one_row_tables(draw):
    """Rows C over nr rate and 1 to 3 other coordinates, and 1 to 4 rays
    over the others, of small integers, at times 2**31 in size, where
    products leave int64."""
    entry = st.one_of(st.integers(-4, 4), st.sampled_from([2**31, -2**31]))
    n, nr, w = draw(st.integers(1, 5)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    C = draw(st.lists(st.lists(entry, min_size=nr + w, max_size=nr + w),
                      min_size=n, max_size=n))
    rays = draw(st.lists(st.lists(st.integers(0, 3), min_size=w, max_size=w),
                         min_size=1, max_size=4))
    return C, nr, rays


class TestOneRowTable:
    @settings(max_examples=150, deadline=None)
    @given(one_row_tables())
    # products of 2**31-sized lhs and rays values reach 2**63: the table is
    # computed over Python ints
    @example(([[-2**31, 2**31, 1], [1, -2**31, 3], [0, 5, -2**31]], 1, [[4, 1], [0, 2]]))
    # t = 3/2 covers row 0 by row 1 (its rate side exactly), and the rays
    # then decide
    @example(([[-3, -6, 1], [-2, -4, 1], [1, 1, 0]], 2, [[1], [2]]))
    def test_matches_the_fraction_oracle(self, table):
        """For every pair (i, j), ``ok``, ``tn`` and ``td``, and ``alone``
        and P for every row, equal the pair-by-pair ``Fraction`` oracle."""
        C, nr, rays = table
        got = _one_row_certified(np.array(C, dtype=np.int64), nr,
                                 np.array(rays, dtype=np.int64))
        assert [a.tolist() for a in got] == list(reference_one_row(C, nr, rays))


def mirrored(ineq):
    """The receiver-2 image of a row: indices 1 and 2 swapped in every name."""
    return Inequality.of({k.translate(_SWAP): v for k, v in ineq.lhs},
                         {k.translate(_SWAP): v for k, v in ineq.rhs.coeffs},
                         ineq.rhs.const)


class TestMirrorReuse:
    R1_ROWS = [Inequality.of({"R1": 1}, {"a1": 1}),
               Inequality.of({"R1": 1}, {"a1": 1, "b1": 1})]

    def test_twin_answers_carry_over(self, lp_calls):
        # the LP keeps R1 <= a1 and its Farkas point, mirrored, keeps
        # R2 <= a2; R1 <= a1 alone removes R1 <= a1 + b1, and R2 <= a2
        # removes R2 <= a2 + b2
        rows = self.R1_ROWS + [mirrored(i) for i in self.R1_ROWS]
        sys0 = LinearSystem.of(("R1", "R2"), rows)
        out = prune_redundant(sys0, AXIOMS_CHAIN)
        assert lp_calls[0] == 1
        assert out.inequalities == prune_redundant_eq(sys0, AXIOMS_CHAIN).inequalities
        assert set(out.inequalities) == {rows[0], rows[2]}
        assert [how for _, how, _ in _pruning(sys0, AXIOMS_CHAIN)] == [
            "farkas", "row", "twin", "row"]

    def test_one_row_certificate_needs_a_kept_row(self, lp_calls):
        # with a1 = b1, R1 <= a1 and R1 <= b1 each prove the other: the
        # first goes by the second, which then has only the removed row to
        # use and is kept by the LP
        rows = [Inequality.of({"R1": 1}, {"a1": 1}),
                Inequality.of({"R1": 1}, {"b1": 1})]
        sys0 = LinearSystem.of(("R1", "R2"), rows,
                               [Combo.of({"a1": 1, "b1": -1}), Combo.of({"a1": -1, "b1": 1})])
        assert sys0.inequalities == tuple(rows)
        out = prune_redundant(sys0, ())
        assert lp_calls[0] == 1
        assert out.inequalities == prune_redundant_eq(sys0, ()).inequalities
        assert out.inequalities == (rows[1],)
        assert [(how, cert[0]) for _, how, cert in _pruning(sys0, ())][0] == ("row", 1)

    def test_fact_without_twin_blocks_the_mirrored_farkas_point(self, lp_calls):
        # R2 <= a2 is (R2 - R1 <= b2) + (R1 <= c2) with the term fact
        # b2 + c2 <= a2, whose twin is absent, so its twin R1 <= a1 is kept;
        # the kept twin's Farkas point, mirrored, is < 0 on that fact, so
        # the LP runs for R2 <= a2 and removes it
        rows = [Inequality.of({"R1": 1}, {"a1": 1}),
                Inequality.of({"R1": 1, "R2": -1}, {"b1": 1}),
                Inequality.of({"R2": 1}, {"c1": 1})]
        rows += [mirrored(i) for i in rows]
        sys0 = LinearSystem.of(("R1", "R2"), rows, [Combo.of({"a2": 1, "b2": -1, "c2": -1})])
        out = prune_redundant(sys0, ())
        assert lp_calls[0] == 5
        assert out.inequalities == prune_redundant_eq(sys0, ()).inequalities
        assert rows[3] not in out.inequalities and rows[0] in out.inequalities
        decisions = {sys0.inequalities[i]: how for i, how, _ in _pruning(sys0, ())}
        assert (decisions[rows[0]], decisions[rows[3]]) == ("farkas", "lp")

    def test_fact_constants_are_homogenised(self, lp_calls):
        # 0 <= 1 - a1 is a1 <= 1, not a1 <= 0: nothing proves
        # R1 + R2 <= -a1 from R1 + R2 <= -a2, and reading the constant as 0
        # removed it by one row
        rows = [(0, 0, {"a1": -1}, 1), (1, 1, {"a1": -1}, 0)]
        ineqs = [Inequality.of({"R1": r1, "R2": r2}, rhs, const)
                 for r1, r2, rhs, const in rows]
        sys0 = LinearSystem.of(("R1", "R2"), ineqs + [mirrored(i) for i in ineqs])
        out = prune_redundant(sys0, ())
        assert lp_calls[0] == 1
        assert out.inequalities == prune_redundant_eq(sys0, ()).inequalities
        assert len(out.inequalities) == 2
        assert [how for _, how, _ in _pruning(sys0, ())] == ["farkas", "twin"]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.dictionaries(st.sampled_from(
                                  ["a1", "b1", "d1", "g1", "rho1", "c2", "e2"]),
                                  st.sampled_from([-1, 1, 2]), min_size=1, max_size=3),
                              st.sampled_from([0, 0, 1, -1])),
                    min_size=1, max_size=5),
           st.sampled_from([(), AXIOMS_CHAIN, AXIOMS_HK_INDEP]))
    # a term fact with a constant: read as 0, it made the one-row test
    # remove a row the LP keeps
    @example(rows=[(0, 0, {"a1": -1}, 1), (1, 1, {"a1": -1}, 0)], axioms=())
    def test_mirror_closed_systems_keep_what_the_lp_keeps(self, rows, axioms):
        """Rows plus their receiver-2 images (term facts included), so the
        mirror rules fire; the result must be the one an LP for every row
        gives."""
        ineqs = [Inequality.of({"R1": r1, "R2": r2}, rhs, const)
                 for r1, r2, rhs, const in rows]
        sys0 = LinearSystem.of(("R1", "R2"), ineqs + [mirrored(i) for i in ineqs])
        assert (prune_redundant(sys0, axioms).inequalities
                == prune_redundant_eq(sys0, axioms).inequalities)


# SHA-256 of json.dumps(system_to_json(derive_region(s, a)), sort_keys=True):
# row order and term-fact order included.
DERIVE_DIGESTS = {
    ("hk", "chain"): "33abcdd65b8add842dd635e004d4b7ddde8aaf67afc91503cf5f2f0bbb0c971c",
    ("hk", "hk-indep"): "5ad8d3ab132c7a33776b2214cd7041d1e216f273e0815def6ff67f78c0f2bd9e",
    ("hk-mod", "chain"): "c9032ffb3883e6ccdce913cefba5539f522d1fc33f787b4e1012e5f47cbe854a",
    ("hk-mod", "hk-indep"): "c9032ffb3883e6ccdce913cefba5539f522d1fc33f787b4e1012e5f47cbe854a",
    ("cmg", "chain"): "a2258246edf58aa30bc022e5d9eb7b7d86ae0f4fc05b439f1d9b6ede1262bbbb",
    ("cmg", "hk-indep"): "a2258246edf58aa30bc022e5d9eb7b7d86ae0f4fc05b439f1d9b6ede1262bbbb",
    ("hod", "chain"): "66f562431c57eba671c1aa8ae4504a162725658edb4c1e6135230d9a1d62f849",
    ("hod", "hk-indep"): "eca49185edaa6906cfc7b70171d33dc945fde6f3ff958634d2fba28fcd81a124",
}

# The same digest of fm_eliminate(substitute_rate_sums(build_system(q)),
# "T1", "T2") for each quadruple system q: the rows and term facts before
# pruning, and their order.
ELIMINATED_DIGESTS = {
    "cmg": "cc5e794376c3688d45b7c9d91f5b0b7137cbf90ea6fe0a312227b18ddf72e422",
    "hk": "f1ec90b334a8bff0c636a7969e587b3cf661bf083fdf7cd8d386bf8f76ac8660",
    "hk-mod": "223aa3f198ea287fc11d4661e205226dd27bbca9dcd3c0e99ae5f5a33f5e49d9",
    "hod": "8dd4f85239704eeca003adfbb82c2cd3d45711828e649b95d2eb97c3bce93759",
}


class TestDeriveRegion:
    @pytest.mark.parametrize("pair", sorted(DERIVE_DIGESTS), ids="/".join)
    def test_bytes_pinned(self, pair):
        text = json.dumps(system_to_json(derive_region(*pair)), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == DERIVE_DIGESTS[pair]

    @pytest.mark.parametrize("system_id", sorted(ELIMINATED_DIGESTS))
    def test_eliminated_bytes_pinned(self, system_id):
        sys2 = fm_eliminate(substitute_rate_sums(
            build_system(QUADRUPLE_SYSTEMS[system_id])), "T1", "T2")
        text = json.dumps(system_to_json(sys2), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == ELIMINATED_DIGESTS[system_id]

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

    def test_rows_are_canonical_ints(self):
        """``fm_eliminate`` does not canonicalise its rows a second time, so
        every golden and derived row must already be canonical."""
        systems = [build_system(rid) for rid in REGION_IDS]
        systems += [derive_region(*pair) for pair in DERIVE_DIGESTS]
        for system in systems:
            for ineq in system.inequalities:
                assert int_canonical(ineq), ineq
                assert ineq.canonical() == ineq

    def test_unknown_ids(self):
        with pytest.raises(ValueError):
            derive_region("nope")
        with pytest.raises(ValueError):
            derive_region("hk", "nope")


def _dot(a, b):
    return sum(u * v for u, v in zip(a, b))


def _column(lhs, combo, rate_vars) -> list:
    """A row or fact as pruning reads it: its rate coefficients negated,
    then its term-symbol coefficients and its constant."""
    lhs, rhs = dict(lhs), dict(combo.coeffs)
    return ([-lhs.get(v, 0) for v in rate_vars] + [rhs.get(s, 0) for s in BASE_SYMBOLS]
            + [combo.const])


def _assert_farkas_in_cone(system, axioms):
    """Every ``"farkas"`` y of ``_pruning`` is >= 0 and >= 0 on every axiom
    and term-fact column: its ray multipliers times the rays lie in the
    cone those facts cut out."""
    facts = [_column((), f, system.rate_vars) for f in (*axioms, *system.term_facts)]
    for _, how, y in _pruning(system, axioms):
        if how == "farkas":
            assert all(v >= 0 for v in y)
            assert all(_dot(y, f) >= 0 for f in facts)


def _fact_multipliers(residual, facts):
    """Multipliers mu >= 0, one per fact, with sum mu_f f <= residual in
    every term symbol and the constant, found on the reference tableau of
    ``oracles``, or None when there are none."""
    A = [[_column((), f, ())[k] for f in facts] for k in range(len(residual))]
    return ReferenceFeasibility(A).point(residual)[0]


class TestPruningCertificates:
    """Every pruning decision of the 8 derivations carries a certificate,
    checked here without the package's LP, against the rows still kept
    when the decision was made:

    - a removal, by one row (j, t) or by the LP's point, gives multipliers
      >= 0 over kept rows only; the residual of the row's term and
      constant coefficients gets multipliers over the axioms and term
      facts, found on the reference tableau, and everything is multiplied
      out exactly: the rows cover the row's rate coefficients and the
      rows and facts stay within its term and constant coefficients;
    - a keep, by the LP or by the twin's mirrored point, is a Farkas y
      over the rate variables, term symbols and constant (the LP's ray
      multipliers mapped back through the rays): y >= 0, y.col >= 0 on
      every other kept row and every axiom and term fact, and y.col < 0
      on the row, by evaluation alone."""

    @pytest.mark.parametrize("pair", sorted(DERIVE_DIGESTS), ids="/".join)
    def test_every_decision_certified(self, pair):
        system_id, axioms_id = pair
        sys2 = fm_eliminate(substitute_rate_sums(
            build_system(QUADRUPLE_SYSTEMS[system_id])), "T1", "T2")
        dims, rows = sys2.rate_vars, sys2.inequalities
        facts = (*AXIOM_SETS[axioms_id], *sys2.term_facts)
        cols = [_column(r.lhs, r.rhs, dims) for r in rows]
        fixed = [_column((), f, dims) for f in facts]
        kept = set(range(len(rows)))
        for i, how, cert in _pruning(sys2, AXIOM_SETS[axioms_id]):
            row = rows[i]
            if how in ("farkas", "twin"):
                y = cert
                assert all(v >= 0 for v in y)
                assert _dot(y, cols[i]) < 0
                assert all(_dot(y, cols[j]) >= 0 for j in kept if j != i)
                assert all(_dot(y, f) >= 0 for f in fixed)
                continue
            kept.remove(i)
            if how == "row":
                j, tn, td = cert
                assert tn >= 0 < td and (j is None) == (tn == 0)
                used = [] if j is None else [(F(tn, td), j)]
            else:
                support, den, _ = cert
                assert den > 0
                used = [(F(w, den), j) for j, w in support.items()]
            assert all(j in kept and w >= 0 for w, j in used)
            residual = [F(v) for v in cols[i][len(dims):]]
            for w, j in used:
                residual = [v - w * u for v, u in zip(residual, cols[j][len(dims):])]
            mu = _fact_multipliers(residual, facts)
            assert mu is not None and all(w >= 0 for w in mu)
            lhs, own = {}, dict(row.lhs)
            for w, j in used:
                for v, c in rows[j].lhs:
                    lhs[v] = lhs.get(v, 0) + w * c
            assert all(lhs.get(v, 0) >= own.get(v, 0) for v in dims)
            rest = combination([(1, row.rhs), *((-w, rows[j].rhs) for w, j in used),
                                *((-w, f) for w, f in zip(mu, facts))])
            assert all(c >= 0 for c in rest.values())
        assert prune_redundant(sys2, AXIOM_SETS[axioms_id]).inequalities == tuple(
            rows[j] for j in sorted(kept))

    def test_lp_columns_are_the_rows_only(self, monkeypatch):
        """Each derivation's pruning LP has one ``<=`` row per rate
        variable and per ray of ``cone_rays(axioms, term_facts)`` and one
        column per row of the eliminated system: row j's rate coefficients
        negated, then its rhs on each ray.  No axiom or term fact has a
        column."""
        built, init = [], lp.Feasibility.__init__

        def spied(self, A_ub):
            built.append(A_ub)
            init(self, A_ub)

        monkeypatch.setattr(lp.Feasibility, "__init__", spied)
        for system_id, axioms_id in sorted(DERIVE_DIGESTS):
            sys2 = fm_eliminate(substitute_rate_sums(
                build_system(QUADRUPLE_SYSTEMS[system_id])), "T1", "T2")
            rays = cone_rays(AXIOM_SETS[axioms_id], sys2.term_facts).tolist()
            del built[:]
            derive_region(system_id, axioms_id)
            (A_ub,) = built
            assert len(A_ub) == len(sys2.rate_vars) + len(rays)
            assert {len(r) for r in A_ub} == {len(sys2.inequalities)}
            cols = [_column(r.lhs, r.rhs, sys2.rate_vars) for r in sys2.inequalities]
            nr = len(sys2.rate_vars)
            assert [list(c) for c in zip(*A_ub)] == [
                c[:nr] + [_dot(c[nr:], v) for v in rays] for c in cols]

    def test_decision_counts(self):
        """Of the 264 rows of the 8 derivations, one row over the rays
        removes 174 (16 of them with no other row), the twins' mirrored
        Farkas points keep 39, and the LP decides 51: it removes 4 and
        keeps 47."""
        hows = Counter()
        for system_id, axioms_id in DERIVE_DIGESTS:
            sys2 = fm_eliminate(substitute_rate_sums(
                build_system(QUADRUPLE_SYSTEMS[system_id])), "T1", "T2")
            for _, how, cert in _pruning(sys2, AXIOM_SETS[axioms_id]):
                hows[how] += 1
                hows["alone"] += how == "row" and cert[0] is None
        assert hows == {"row": 174, "alone": 16, "twin": 39, "lp": 4, "farkas": 47}


def _rank(rows) -> int:
    """The rank of integer rows, by exact Gaussian elimination."""
    rows, rank = [[F(v) for v in r] for r in rows], 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                k = rows[r][c] / rows[rank][c]
                rows[r] = [a - k * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _fact_row(combo) -> list:
    """0 <= combo over the term symbols and the constant."""
    return _column((), combo, ())


class TestConeRays:
    """``cone_rays`` gives the extreme rays of the cone of term values
    (and the homogenising constant w) that the axioms and term facts
    allow, the dual of the cone that they and 0 <= s span; the pruning LP
    has a row per ray in place of a column per fact."""

    @pytest.mark.parametrize("name, count", [("chain", 25), ("hk-indep", 17)])
    def test_pinned_count(self, name, count):
        assert len(cone_rays(AXIOM_SETS[name])) == count

    @pytest.mark.parametrize("name", sorted(AXIOM_SETS))
    def test_rays_lie_in_the_cone_and_are_extreme(self, name):
        """Each ray is >= 0 and satisfies every axiom, in lowest terms and
        once; the constraints tight at it (z_k >= 0 and the axioms) have
        rank dim - 1, so it spans an edge of the cone."""
        cons = [[int(k == j) for k in range(len(BASE_SYMBOLS) + 1)]
                for j in range(len(BASE_SYMBOLS) + 1)]
        cons += [_fact_row(ax) for ax in AXIOM_SETS[name]]
        rays = [tuple(int(v) for v in r) for r in cone_rays(AXIOM_SETS[name])]
        assert len(set(rays)) == len(rays)
        for ray in rays:
            assert gcd(*ray) == 1
            assert all(_dot(c, ray) >= 0 for c in cons)
            assert _rank([c for c in cons if _dot(c, ray) == 0]) == len(ray) - 1

    def test_the_term_facts_of_a_system_cut_the_chain_rays(self):
        """Of the shipped pairs only hk and hk-mod under the chain axioms
        have a term fact that a ray violates, rho_i <= 0, and the two cuts
        only drop rays."""
        for system_id, axioms_id in DERIVE_DIGESTS:
            sys2 = fm_eliminate(substitute_rate_sums(
                build_system(QUADRUPLE_SYSTEMS[system_id])), "T1", "T2")
            axioms = AXIOM_SETS[axioms_id]
            rays = {tuple(r) for r in cone_rays(axioms).tolist()}
            cut = {tuple(r) for r in cone_rays(axioms, sys2.term_facts).tolist()}
            if system_id in ("hk", "hk-mod") and axioms_id == "chain":
                assert cut < rays and len(cut) == 19
            else:
                assert cut == rays

    def test_rays_are_computed_on_first_use(self):
        code = ("from icregions import linsys; "
                "print(linsys._rays.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert out.stdout.strip() == "0"

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(), AXIOMS_CHAIN, AXIOMS_HK_INDEP]),
           st.lists(st.builds(Combo.of, st.dictionaries(
               st.sampled_from(["a1", "b1", "d1", "g1", "rho1", "c2", "e2"]),
               st.sampled_from([-2, -1, 1, 2, F(1, 3)]), min_size=1, max_size=3),
               st.sampled_from([0, 0, 1, -1, 2, F(-1, 2)])), max_size=3),
           st.dictionaries(st.sampled_from(["a1", "b1", "d1", "g1", "rho1", "c2", "e2"]),
                           st.integers(-2, 2), max_size=4),
           st.integers(-2, 2))
    # rho1 <= 1/2 + a1/3, a fact with Fraction coefficients
    @example(axioms=AXIOMS_CHAIN, facts=[Combo.of({"rho1": -1, "a1": F(1, 3)}, F(1, 2))],
             coeffs={"rho1": 1, "a1": -1}, const=1)
    # a1 <= 1, read as a1 <= 0 when the constant is dropped
    @example(axioms=(), facts=[Combo.of({"a1": -1}, 1)], coeffs={"a1": -1}, const=0)
    def test_rays_decide_cone_membership(self, axioms, facts, coeffs, const):
        """c with constant c0 is >= 0 on every ray iff the reference LP
        finds it a nonnegative combination of the axioms, the facts, the
        unit vectors of the term symbols and a nonnegative constant."""
        c = _fact_row(Combo.of(coeffs, const))
        on_rays = all(_dot(c, v) >= 0 for v in cone_rays(axioms, facts).tolist())
        assert on_rays == (_fact_multipliers(c, (*axioms, *facts)) is not None)


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
        for rid in ("HK_Q", "HOD_Q", "HK_R", "HOD_R", "CMG_R"):
            s = build_system(rid)
            back = system_from_json(json.loads(json.dumps(system_to_json(s))))
            eq, diff = system_equal(s, back)
            assert eq, (rid, diff)
            assert back.term_facts == s.term_facts


class TestSystemChecks:
    """``LinearSystem.of`` and so ``system_from_json`` refuse a system whose
    rows use a rate variable it does not declare, or whose rate variables
    repeat or are not rate variables; ``bind`` would give such a row's
    coefficient 0."""

    ROW = Inequality.of({"R1": 1, "R2": 1}, {"a1": 1})

    @pytest.mark.parametrize("rate_vars,message", [
        (("R1",), "rate_vars ['R1'] do not fit the rows' ['R1', 'R2']"),
        (("R1", "R2", "R1"), "rate_vars ['R1', 'R2', 'R1'] do not fit the rows' "
                             "['R1', 'R2']"),
        (("R1", "R2", "x"), "rate_vars ['R1', 'R2', 'x'] do not fit the rows' "
                            "['R1', 'R2']"),
    ], ids=["undeclared", "repeated", "not-a-rate-variable"])
    def test_refused(self, rate_vars, message):
        with pytest.raises(ValueError) as exc:
            LinearSystem.of(rate_vars, [self.ROW])
        assert str(exc.value) == message
        doc = dict(system_to_json(LinearSystem.of(("R1", "R2"), [self.ROW])),
                   rate_vars=list(rate_vars))
        with pytest.raises(ValueError) as exc:
            system_from_json(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [{"num": 0.5, "den": 2}, {"num": 1}],
                             ids=["float-num", "no-den"])
    def test_non_number_coefficient_refused(self, value):
        doc = system_to_json(LinearSystem.of(("R1", "R2"), [self.ROW]))
        doc["inequalities"][0]["const"] = value
        with pytest.raises(ValueError) as exc:
            system_from_json(doc)
        assert str(exc.value) == f"coefficient {value!r} is not a number"

    def test_unused_declared_variable_accepted(self):
        system = LinearSystem.of(("R1", "R2", "T1"), [self.ROW])
        assert system.rate_vars == ("R1", "R2", "T1")
