import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from icregions.dist import Form, build_joint, independence_projection
from icregions.linsys import (AXIOM_SETS, Combo, Inequality, LinearSystem,
                              system_equal, system_to_json)
from icregions.polytope import (DEFAULT_EPS, bind, contains, poly_equal,
                                snap_terms, vertices2)
from icregions.regions import (_CATALOGUE, REGION_IDS, FormMismatchError,
                               build_system, hk_r_with_redundant, region_for)
from icregions.sampler import binary_alphabets, sample_spec
from icregions.terms import ALL_SYMBOLS, TERMS, eval_terms
from oracles import brute_force_vertices
from test_dist import degenerate_spec

F = Fraction

EXPECTED_SIZES = {
    "HK_Q": 14, "HK_Q_MODIFIED": 12, "HK_R": 9, "HK_R_MODIFIED": 13,
    "CMG_Q": 8, "CMG_R": 9, "COMPACT_R": 7, "HOD_Q": 14, "HOD_R": 13,
}

# SHA-256 of each golden system's sorted-key JSON; None is the HK_R system
# with its two redundant rows.
SYSTEM_DIGESTS = {
    "HK_Q": "a2edbf9f93512d295688c267681988357fa9cfe0c4243b055735e96bb967ba9f",
    "HK_Q_MODIFIED": "0357b0da39f4307d6154996570bbc955416d27c1dfa31eca5642807f318e523d",
    "HK_R": "4fe8b53aa3ddb164b0a2f7878e7d8b00dbdbd0baa0760d42c2cc2e92b017b1bc",
    "HK_R_MODIFIED": "6527e7dfe79d693341fd1d39883759d3194f601065307d871e9333759bfe617e",
    "CMG_Q": "a58ada2449a6561cf51cd922a7ecb9c6c191c9742f376866582cfaad828c2790",
    "CMG_R": "131d3f98e603f254abc1837b19d035a2de27342f15db67a28a408457f13536f5",
    "COMPACT_R": "79b7fbe8bc5a3fc897c361dbdd6bccbfd76eea214581724099b8d5fd5bb14af6",
    "HOD_Q": "c20ff56a1ff4e17999f68a35c6945d05a3d3f0f8487358b05a507415edf77626",
    "HOD_R": "c8033c02099816bd95ba37c1adeab6775ab0b7a5ccfb71d6014bc2811cbd834f",
    None: "d305d9ec433bc22572755e8756f5de770690fb03a54a9dc60e293997fe007d91",
}


def _rid(rid) -> str:
    return rid or "HK_R_WITH_REDUNDANT"


def _swapped(name: str) -> str:
    return name[:-1] + {"1": "2", "2": "1"}[name[-1]]


def _receiver_swap(system: LinearSystem) -> LinearSystem:
    """The system with the indices 1 and 2 swapped in every name."""
    def combo(c):
        return Combo.of({_swapped(k): v for k, v in c.coeffs}, c.const)

    return LinearSystem.of(
        tuple(map(_swapped, system.rate_vars)),
        [Inequality.of({_swapped(k): v for k, v in i.lhs}, combo(i.rhs))
         for i in system.inequalities],
        [combo(c) for c in system.term_facts])


class TestBuildSystem:
    @pytest.mark.parametrize("rid", [*REGION_IDS, None], ids=_rid)
    def test_rows_pinned(self, rid):
        system = build_system(rid) if rid else hk_r_with_redundant()
        text = json.dumps(system_to_json(system), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == SYSTEM_DIGESTS[rid]

    # An axiom set is tested as the term facts of a system without rows.
    @pytest.mark.parametrize("rid", [*REGION_IDS, None, *AXIOM_SETS], ids=_rid)
    def test_symmetric_in_the_receivers(self, rid):
        if rid in AXIOM_SETS:
            system = LinearSystem.of(("R1", "R2"), [], AXIOM_SETS[rid])
        else:
            system = build_system(rid) if rid else hk_r_with_redundant()
        mirror = _receiver_swap(system)
        eq, diff = system_equal(mirror, system)
        assert eq, diff
        assert set(mirror.term_facts) == set(system.term_facts)

    def test_inequality_counts(self):
        for rid in REGION_IDS:
            assert len(build_system(rid).inequalities) == EXPECTED_SIZES[rid], rid

    def test_redundant_pair_extends_to_eleven(self):
        assert len(hk_r_with_redundant().inequalities) == 11

    def test_hod_r_contains_composite_sum_rate(self):
        keys = {i.key() for i in build_system("HOD_R").inequalities}
        want = Inequality.of({"R1": 2, "R2": 1}, {"a1": 2, "e2": 1, "F2": 1})
        assert want.key() in keys
        # the composite expands into base + rho
        assert dict(want.rhs.coeffs) == {"a1": F(2), "e2": F(1), "f2": F(1),
                                         "rho2": F(1)}

    def test_modified_quadruple_drops_cross_t_bounds(self):
        keys = {i.key() for i in build_system("HK_Q_MODIFIED").inequalities}
        assert Inequality.of({"T2": 1}, {"c1": 1}).key() not in keys
        assert Inequality.of({"T1": 1}, {"c2": 1}).key() not in keys
        assert Inequality.of({"T1": 1}, {"b1": 1}).key() in keys
        assert Inequality.of({"T2": 1}, {"b2": 1}).key() in keys

    def test_hk_quadruples_carry_rho_zero_facts(self):
        for rid in ("HK_Q", "HK_Q_MODIFIED"):
            facts = build_system(rid).term_facts
            assert Combo.of({"rho1": -1}) in facts
            assert Combo.of({"rho2": -1}) in facts

    def test_unknown_region(self):
        with pytest.raises(ValueError):
            build_system("NOPE")


class TestRegionFor:
    def test_degenerate_regions_are_origin(self):
        for rid, form in (("HK_R", Form.HK2), ("CMG_R", Form.CMG9),
                          ("HOD_R", Form.HOD16), ("COMPACT_R", Form.HK2)):
            poly = region_for(degenerate_spec(form), rid)
            assert vertices2(poly) == [(F(0), F(0))]

    def test_interference_free_unit_square(self):
        from icregions.dist import hk2_spec

        alph = binary_alphabets(W1=1, W2=1)
        half = np.full(2, 0.5)
        point = np.ones((2, 1))
        # X_i copies the private U_i (W_i constant); Y1 = X1, Y2 = X2
        enc1 = np.zeros((2, 2, 1, 2))
        enc2 = np.zeros((2, 2, 1, 2))
        for u in range(2):
            enc1[:, u, 0, u] = 1.0
            enc2[:, u, 0, u] = 1.0
        ch = np.zeros((2, 2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                ch[x1, x2, x1, x2] = 1.0
        spec = hk2_spec(alph, half, point, np.full((2, 2), 0.5),
                        point, np.full((2, 2), 0.5), enc1, enc2, ch)
        poly = region_for(spec, "HK_R")
        assert vertices2(poly) == [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)),
                                   (F(0), F(1))]

    def test_seeded_vertices_match_oracle(self):
        spec = sample_spec(binary_alphabets(), Form.HK2, [51, 0])
        poly = region_for(spec, "HK_R")
        assert set(vertices2(poly)) == brute_force_vertices(poly.rows)

    def test_form_gating(self):
        hk = sample_spec(binary_alphabets(), Form.HK2, [51, 1])
        cmg = sample_spec(binary_alphabets(), Form.CMG9, [51, 1])
        hod = sample_spec(binary_alphabets(), Form.HOD16, [51, 1])
        region_for(hk, "HK_R")
        region_for(cmg, "CMG_R")
        region_for(hod, "HOD_R")
        region_for(hk, "HOD_R")  # special case of the correlated form
        with pytest.raises(FormMismatchError):
            region_for(cmg, "HK_R")
        with pytest.raises(FormMismatchError, match="independence_projection"):
            region_for(hod, "HK_R")
        with pytest.raises(FormMismatchError):
            region_for(hod, "CMG_R")

    @pytest.mark.parametrize("rid,marginals_read", [("HK_R", 20), ("HOD_R", 24),
                                                    ("CMG_R", 16), ("COMPACT_R", 16)])
    def test_reads_only_the_marginals_it_binds(self, rid, marginals_read, marginals):
        spec = sample_spec(binary_alphabets(), _CATALOGUE[rid][-1][0], [51, 3])
        region_for(spec, rid)
        read = set()  # the four entropies of each term the rows read
        for sym in build_system(rid).rhs_symbols:
            a, b, c = TERMS[sym]
            read |= {a | c, b | c, a | b | c, c}
        assert len(marginals) == len(set(marginals)) == marginals_read
        assert set(marginals) == read

    @pytest.mark.parametrize("rid", REGION_IDS)
    def test_equals_binding_every_term(self, rid):
        for k, form in enumerate(_CATALOGUE[rid][-1]):
            spec = sample_spec(binary_alphabets(), form, [51, 4 + k])
            every = eval_terms(build_joint(spec))
            assert list(every) == list(ALL_SYMBOLS)
            assert region_for(spec, rid) == bind(build_system(rid), snap_terms(every))

    def test_projection_then_hk_allowed(self):
        hod = sample_spec(binary_alphabets(), Form.HOD16, [51, 2])
        hk_poly = region_for(independence_projection(hod), "HK_R")
        assert vertices2(hk_poly)


class TestCrossRegionInvariants:
    def test_hk_inside_compact(self):
        for i in range(5):
            spec = sample_spec(binary_alphabets(), Form.HK2, [51, 3 + i])
            assert contains(region_for(spec, "COMPACT_R"),
                            region_for(spec, "HK_R"), F(0))

    def test_cmg_inside_compact(self):
        for i in range(5):
            spec = sample_spec(binary_alphabets(), Form.CMG9, [51, 8 + i])
            assert contains(region_for(spec, "COMPACT_R"),
                            region_for(spec, "CMG_R"), F(0))

    def test_hod_reduces_to_hk_on_independent_specs(self):
        for i in range(5):
            spec = sample_spec(binary_alphabets(), Form.HK2, [51, 13 + i])
            assert poly_equal(region_for(spec, "HOD_R"),
                              region_for(spec, "HK_R"), DEFAULT_EPS)
