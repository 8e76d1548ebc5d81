import functools
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icregions.dist import (AlphabetSpec, FactorSpec, Form, JointDist, SpecError,
                            Var, build_joint, check_markov_chains, cmg9_spec,
                            cond_mutual_info, entropy, hk2_spec,
                            independence_projection, marginal_tensor,
                            save_spec, spec_from_json, spec_to_json)
from icregions.sampler import binary_alphabets, sample_spec
from icregions.terms import COMPOSITE_EXPANSION, TERMS, eval_terms
from oracles import cmi_vars, dict_from_tensor, naive_entropy, naive_joint, \
    naive_marginal

VARS = list(Var)

WIDE = dict(Q=2, **{f"{v}{i}": 4 for v in "UWXY" for i in (1, 2)})

# one-symbol alphabets between three-symbol ones: NumPy's reduction
# iterator squeezes the size-1 axes out, so they join the trailing block
ONES_AMONG_THREES = {**{v.name: 3 for v in Var}, "Q": 1, "U1": 1, "W2": 1}


def degenerate_spec(form=Form.HOD16):
    alph = AlphabetSpec({v: 1 for v in Var})
    one = np.ones(1)
    return FactorSpec(form, alph, one, one.reshape(1, 1), one.reshape(1, 1, 1),
                      one.reshape(1, 1), one.reshape(1, 1, 1),
                      one.reshape(1, 1, 1, 1), one.reshape(1, 1, 1, 1),
                      one.reshape(1, 1, 1, 1))


def uniform_hk2():
    alph = binary_alphabets()
    half = np.full(2, 0.5)
    return hk2_spec(alph, half, np.full((2, 2), 0.5), np.full((2, 2), 0.5),
                    np.full((2, 2), 0.5), np.full((2, 2), 0.5),
                    np.full((2, 2, 2, 2), 0.5), np.full((2, 2, 2, 2), 0.5),
                    np.full((2, 2, 2, 2), 0.25))


class TestBuildJoint:
    def test_degenerate_single_entry(self):
        joint = build_joint(degenerate_spec())
        assert joint.tensor.shape == (1,) * 9
        assert joint.tensor.item() == pytest.approx(1.0)

    def test_uniform_product(self):
        joint = build_joint(uniform_hk2())
        assert np.allclose(joint.tensor, 2.0**-9)

    def test_matches_naive_factor_product(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 0])
        joint = build_joint(spec)
        ref = naive_joint(spec)
        got = dict_from_tensor(joint.tensor)
        assert max(abs(got[k] - ref[k]) for k in ref) < 1e-14

    def test_mixed_alphabet_sizes(self):
        alph = binary_alphabets(Q=3, W1=2, U2=3, Y2=2, X1=4)
        spec = sample_spec(alph, Form.HOD16, [11, 1])
        joint = build_joint(spec)
        ref = naive_joint(spec)
        got = dict_from_tensor(joint.tensor)
        assert max(abs(got[k] - ref[k]) for k in ref) < 1e-14

    def test_rejects_oversized_joint(self):
        nq = 10**6  # joint would have nq * 2^8 > 1e8 entries
        alph = binary_alphabets(Q=nq)
        q = np.full(nq, 1.0 / nq)
        half2 = np.broadcast_to(0.5, (nq, 2))
        half3 = np.broadcast_to(0.5, (nq, 2, 2))
        half4 = np.broadcast_to(0.5, (nq, 2, 2, 2))
        spec = FactorSpec(Form.HOD16, alph, q, half2, half3, half2, half3,
                          half4, half4, np.full((2, 2, 2, 2), 0.25))
        with pytest.raises(SpecError, match="entry limit"):
            build_joint(spec)

    def test_channel_marginal_reproduced(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 2])
        joint = build_joint(spec)
        pxy = marginal_tensor(joint, [Var.X1, Var.X2, Var.Y1, Var.Y2])
        px = pxy.sum(axis=(2, 3))
        cond = pxy / px[:, :, None, None]
        assert np.allclose(cond, spec.channel, atol=1e-10)


class TestJointValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, bad):
        joint = build_joint(sample_spec(binary_alphabets(), Form.HOD16, [11, 27]))
        t, first = joint.tensor.copy(), (0, 1, 0, 1, 0, 0, 1, 1, 0)
        t[first] = bad
        t[1, 0, 0, 0, 0, 0, 0, 0, 1] = np.nan
        with pytest.raises(SpecError, match=re.escape(f"non-finite entry at {first}")):
            JointDist(joint.alphabets, t)

    def test_non_finite_entry_found_past_the_first_block(self):
        # the search scans 2**16 entries at a time; this joint has 2**17
        joint = build_joint(sample_spec(binary_alphabets(**WIDE), Form.HOD16, [11, 28]))
        t, first = joint.tensor.copy(), (1, 3, 3, 3, 3, 3, 3, 3, 2)
        t[first] = np.nan
        with pytest.raises(SpecError, match=re.escape(f"non-finite entry at {first}")):
            JointDist(joint.alphabets, t)

    def test_negative_entry_and_bad_sum(self):
        joint = build_joint(sample_spec(binary_alphabets(), Form.HOD16, [11, 29]))
        t = joint.tensor.copy()
        t[0, 0, 0, 0, 0, 0, 0, 0, 0] *= -1
        with pytest.raises(SpecError, match="negative entry"):
            JointDist(joint.alphabets, t)
        with pytest.raises(SpecError, match="sums to 2"):
            JointDist(joint.alphabets, 2 * joint.tensor)


class TestSpecValidation:
    def test_bad_row_sum_reports_factor(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 3])
        bad = np.array(spec.w1_given_q)
        bad[1, 0] += 0.01
        with pytest.raises(SpecError, match="w1_given_q.*row \\(1,\\)"):
            FactorSpec(Form.HOD16, spec.alphabets, spec.q, bad,
                       spec.u1_given_q_w1, spec.w2_given_q, spec.u2_given_q_w2,
                       spec.x1_given_q_u1_w1, spec.x2_given_q_u2_w2, spec.channel)

    def test_bad_unconditioned_q(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 3])
        with pytest.raises(SpecError, match="factor q"):
            FactorSpec(Form.HOD16, spec.alphabets, np.array([0.5, 0.6]),
                       spec.w1_given_q, spec.u1_given_q_w1, spec.w2_given_q,
                       spec.u2_given_q_w2, spec.x1_given_q_u1_w1,
                       spec.x2_given_q_u2_w2, spec.channel)

    def test_negative_entry(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 4])
        bad = np.array(spec.q)
        bad[0], bad[1] = -0.1, 1.1
        with pytest.raises(SpecError, match="negative"):
            FactorSpec(Form.HOD16, spec.alphabets, bad, spec.w1_given_q,
                       spec.u1_given_q_w1, spec.w2_given_q, spec.u2_given_q_w2,
                       spec.x1_given_q_u1_w1, spec.x2_given_q_u2_w2, spec.channel)

    def test_shape_mismatch(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 5])
        with pytest.raises(SpecError, match="shape"):
            FactorSpec(Form.HOD16, spec.alphabets, spec.q, spec.w1_given_q.T[:1],
                       spec.u1_given_q_w1, spec.w2_given_q, spec.u2_given_q_w2,
                       spec.x1_given_q_u1_w1, spec.x2_given_q_u2_w2, spec.channel)

    def test_hk2_must_not_depend_on_w(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 6])
        with pytest.raises(SpecError, match="depends on w1"):
            FactorSpec(Form.HK2, spec.alphabets, spec.q, spec.w1_given_q,
                       spec.u1_given_q_w1, spec.w2_given_q, spec.u2_given_q_w2,
                       spec.x1_given_q_u1_w1, spec.x2_given_q_u2_w2, spec.channel)

    def test_hk2_w_dependence_held_to_norm_tol(self):
        """A change of 1e-7 with w1 is far past NORM_TOL (1e-12), so it is
        refused; a relative tolerance must not let it through."""
        spec = sample_spec(binary_alphabets(), Form.HK2, [1, 0])
        u1 = np.array(spec.u1_given_q_w1)
        u1[:, 1, 0] += 1e-7
        u1[:, 1, 1] -= 1e-7
        with pytest.raises(SpecError, match="depends on w1"):
            FactorSpec(Form.HK2, spec.alphabets, spec.q, spec.w1_given_q, u1,
                       spec.w2_given_q, spec.u2_given_q_w2, spec.x1_given_q_u1_w1,
                       spec.x2_given_q_u2_w2, spec.channel)

    def test_json_round_trip(self):
        for form in (Form.HK2, Form.CMG9, Form.HOD16, Form.GENERAL1):
            spec = sample_spec(binary_alphabets(), form, [11, 7])
            back = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
            assert back.form is spec.form
            assert np.allclose(back.u1_given_q_w1, spec.u1_given_q_w1)
            assert np.allclose(back.channel, spec.channel)


def _dyadic(shape):
    """Rows (k/8, 1 - k/8) for k = 1, 2, ..., 7, 1, ...; (1.0,) when the last
    axis has size 1.  Exact in binary, so the JSON text is short and exact."""
    if shape[-1] == 1:
        return np.ones(shape)
    k = (np.arange(math.prod(shape[:-1])) % 7 + 1) / 8
    return np.stack([k, 1 - k], axis=-1).reshape(shape)


def dyadic_spec(form):
    """A small spec of the given form, with W1 and U1 binary so that HK2's
    u_given_q tables are expanded along a real W axis."""
    alph = binary_alphabets(Q=1, W2=1, U2=1, X2=1, Y1=1)
    d = _dyadic
    if form is Form.HK2:
        return hk2_spec(alph, d((1,)), d((1, 2)), d((1, 2)), d((1, 1)), d((1, 1)),
                        d((1, 2, 2, 2)), d((1, 1, 1, 1)), d((2, 1, 1, 2)))
    if form is Form.CMG9:
        return cmg9_spec(alph, d((1,)), d((1, 2)), d((1, 2, 2)), d((1, 1)),
                         d((1, 1, 1)), d((2, 1, 1, 2)))
    return FactorSpec(form, alph, d((1,)), d((1, 2)), d((1, 2, 2)), d((1, 1)),
                      d((1, 1, 1)), d((1, 2, 2, 2)), d((1, 1, 1, 1)), d((2, 1, 1, 2)))


# Compact spec_to_json text of dyadic_spec(form), kept literal so that a change
# to the JSON names or their order shows; save_spec writes it with indent=1.
PINNED_JSON = {
    "general1": (
        '{"form":"general1","alphabets":{"Q":1,"U1":2,"W1":2,"U2":1,"W2":1,'
        '"X1":2,"X2":1,"Y1":1,"Y2":2},"factors":{"q":[1.0],'
        '"w1_given_q":[[0.125,0.875]],"u1_given_q_w1":[[[0.125,0.875],[0.25,'
        '0.75]]],"w2_given_q":[[1.0]],"u2_given_q_w2":[[[1.0]]],'
        '"x1_given_q_u1_w1":[[[[0.125,0.875],[0.25,0.75]],[[0.375,0.625],'
        '[0.5,0.5]]]],"x2_given_q_u2_w2":[[[[1.0]]]],'
        '"channel_y1y2_given_x1x2":[[[[0.125,0.875]]],[[[0.25,0.75]]]]}}'),
    "hk2": (
        '{"form":"hk2","alphabets":{"Q":1,"U1":2,"W1":2,"U2":1,"W2":1,"X1":2,'
        '"X2":1,"Y1":1,"Y2":2},"factors":{"q":[1.0],"w1_given_q":[[0.125,'
        '0.875]],"u1_given_q":[[0.125,0.875]],"w2_given_q":[[1.0]],'
        '"u2_given_q":[[1.0]],"x1_given_q_u1_w1":[[[[0.125,0.875],[0.25,'
        '0.75]],[[0.375,0.625],[0.5,0.5]]]],"x2_given_q_u2_w2":[[[[1.0]]]],'
        '"channel_y1y2_given_x1x2":[[[[0.125,0.875]]],[[[0.25,0.75]]]]}}'),
    "cmg9": (
        '{"form":"cmg9","alphabets":{"Q":1,"U1":2,"W1":2,"U2":1,"W2":1,'
        '"X1":2,"X2":1,"Y1":1,"Y2":2},"factors":{"q":[1.0],'
        '"w1_given_q":[[0.125,0.875]],"x1_given_q_w1":[[[0.125,0.875],[0.25,'
        '0.75]]],"w2_given_q":[[1.0]],"x2_given_q_w2":[[[1.0]]],'
        '"channel_y1y2_given_x1x2":[[[[0.125,0.875]]],[[[0.25,0.75]]]]}}'),
    "hod16": (
        '{"form":"hod16","alphabets":{"Q":1,"U1":2,"W1":2,"U2":1,"W2":1,'
        '"X1":2,"X2":1,"Y1":1,"Y2":2},"factors":{"q":[1.0],'
        '"w1_given_q":[[0.125,0.875]],"u1_given_q_w1":[[[0.125,0.875],[0.25,'
        '0.75]]],"w2_given_q":[[1.0]],"u2_given_q_w2":[[[1.0]]],'
        '"x1_given_q_u1_w1":[[[[0.125,0.875],[0.25,0.75]],[[0.375,0.625],'
        '[0.5,0.5]]]],"x2_given_q_u2_w2":[[[[1.0]]]],'
        '"channel_y1y2_given_x1x2":[[[[0.125,0.875]]],[[[0.25,0.75]]]]}}'),
}


_JSON_JUNK = st.one_of(
    st.text(max_size=4), st.floats(), st.just(float("nan")), st.none(),
    st.lists(st.one_of(st.floats(), st.text(max_size=2), st.none()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.floats(), max_size=2))


def _json_slots(node):
    """(container, key) of every node below ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _json_slots(child)


class TestSpecJson:
    @pytest.mark.parametrize("form", list(Form), ids=lambda f: f.value)
    def test_saved_bytes_pinned(self, form, tmp_path):
        path = tmp_path / "spec.json"
        save_spec(dyadic_spec(form), path)
        want = json.dumps(json.loads(PINNED_JSON[form.value]), indent=1)
        assert path.read_text() == want

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(Form)), st.data())
    def test_mutated_json_parses_or_raises_spec_error(self, form, data):
        # One node replaced by junk, or one key dropped; the wrapper lets the
        # whole spec be replaced too.
        doc = {"spec": spec_to_json(dyadic_spec(form))}
        parent, key = data.draw(st.sampled_from(list(_json_slots(doc))))
        if isinstance(key, str) and parent is not doc and data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(_JSON_JUNK)
        try:
            spec = spec_from_json(doc["spec"])
        except SpecError:
            return
        assert isinstance(spec, FactorSpec)


class TestMarginal:
    def test_identity(self):
        joint = build_joint(sample_spec(binary_alphabets(), Form.HOD16, [11, 8]))
        assert np.array_equal(marginal_tensor(joint, VARS), joint.tensor)

    def test_q_marginal_is_q_factor(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 9])
        joint = build_joint(spec)
        assert np.allclose(marginal_tensor(joint, [Var.Q]), spec.q, atol=1e-12)

    def test_matches_naive_summation(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 10])
        joint = build_joint(spec)
        got = marginal_tensor(joint, [Var.X1, Var.Y1])
        ref = naive_marginal(naive_joint(spec), [VARS.index(Var.X1), VARS.index(Var.Y1)])
        for (x, y), p in ref.items():
            assert got[x, y] == pytest.approx(p, abs=1e-13)

    def test_empty_keep_rejected(self):
        joint = build_joint(degenerate_spec())
        with pytest.raises(ValueError):
            marginal_tensor(joint, [])

    @pytest.mark.parametrize("sizes", [{}, WIDE, ONES_AMONG_THREES],
                             ids=["binary", "wide", "ones-among-threes"])
    @pytest.mark.parametrize("form", [Form.HOD16, Form.GENERAL1, Form.HK2],
                             ids=lambda f: f.value)
    def test_partial_sums_keep_the_bits_of_one_reduction(self, sizes, form):
        # Every one of the 511 keep sets, on a joint that holds the partial
        # sums of all of them and on a fresh joint of the same tensor, which
        # holds none; on ones-among-threes a rule that ignores size-1 axes
        # changes the bits of some sets.
        joint = build_joint(sample_spec(binary_alphabets(**sizes), form, [11, 25]))
        assert joint.tensor.flags.c_contiguous
        keeps = [keep for r in range(1, 10) for keep in itertools.combinations(VARS, r)]
        refs = [joint.tensor.sum(axis=tuple(v.value for v in VARS if v not in keep))
                for keep in keeps]
        for keep in keeps:
            marginal_tensor(joint, keep)
        assert joint._partials
        for keep, ref in zip(keeps, refs):
            shared = marginal_tensor(joint, keep)
            alone = marginal_tensor(JointDist(joint.alphabets, joint.tensor), keep)
            for m in (shared, alone):
                assert (m.shape, m.tobytes()) == (ref.shape, ref.tobytes()), keep

    def test_partial_sums_persist_on_the_joint(self):
        # the marginals of Y1 and of (X1, Y1) share the Y2-summed partial,
        # made by the first and kept for the joint's lifetime
        joint = build_joint(sample_spec(binary_alphabets(), Form.HOD16, [11, 26]))
        assert joint._partials == {}
        marginal_tensor(joint, [Var.Y1])
        partial = joint._partials[(Var.Y2.value,)]
        marginal_tensor(joint, [Var.X1, Var.Y1])
        assert list(joint._partials) == [(Var.Y2.value,)]
        assert joint._partials[(Var.Y2.value,)] is partial


class TestCondMutualInfo:
    def test_builtin_conditional_independence(self):
        spec = sample_spec(binary_alphabets(), Form.HK2, [11, 11])
        joint = build_joint(spec)
        assert cond_mutual_info(joint, {Var.U1}, {Var.W1}, {Var.Q}) <= 1e-12
        assert cond_mutual_info(joint, {Var.U2}, {Var.W2}, {Var.Q}) <= 1e-12

    def test_noiseless_bit(self):
        alph = binary_alphabets()
        half = np.full(2, 0.5)
        eye = np.zeros((2, 2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                eye[x1, x2, x1, x2] = 1.0  # Y1 = X1, Y2 = X2
        spec = hk2_spec(alph, half, np.full((2, 2), 0.5), np.full((2, 2), 0.5),
                        np.full((2, 2), 0.5), np.full((2, 2), 0.5),
                        np.full((2, 2, 2, 2), 0.5), np.full((2, 2, 2, 2), 0.5),
                        eye)
        joint = build_joint(spec)
        assert cond_mutual_info(joint, {Var.X1}, {Var.Y1}, set()) == \
            pytest.approx(1.0, abs=1e-12)

    def test_known_two_by_two_table(self):
        # p(x1, y1) = [[0.4, 0.1], [0.1, 0.4]] with everything else trivial
        alph = binary_alphabets(Q=1, U1=1, W1=1, U2=1, W2=1, X2=1, Y2=1)
        q = np.ones(1)
        x1 = np.full((1, 1, 1, 2), 0.5)
        ch = np.zeros((2, 1, 2, 1))
        ch[0, 0, 0, 0], ch[0, 0, 1, 0] = 0.8, 0.2
        ch[1, 0, 0, 0], ch[1, 0, 1, 0] = 0.2, 0.8
        spec = hk2_spec(alph, q, np.ones((1, 1)), np.ones((1, 1)),
                        np.ones((1, 1)), np.ones((1, 1)), x1,
                        np.ones((1, 1, 1, 1)), ch)
        joint = build_joint(spec)
        got = cond_mutual_info(joint, {Var.X1}, {Var.Y1}, set())
        ref = cmi_vars(joint, [Var.X1], [Var.Y1], [])
        assert got == pytest.approx(ref, abs=1e-12)
        assert got == pytest.approx(0.2780719051, abs=1e-9)

    def test_matches_naive_oracle_on_random_sets(self):
        joint = build_joint(sample_spec(binary_alphabets(), Form.HOD16, [11, 12]))
        cases = [
            ([Var.Y1], [Var.U1], [Var.W1, Var.W2, Var.Q]),
            ([Var.Y2, Var.Y1], [Var.X1], [Var.Q]),
            ([Var.U1, Var.W1], [Var.U2, Var.W2], []),
        ]
        for a, b, c in cases:
            assert cond_mutual_info(joint, set(a), set(b), set(c)) == \
                pytest.approx(cmi_vars(joint, a, b, c), abs=1e-10)

    def test_overlap_rejected(self):
        joint = build_joint(degenerate_spec())
        with pytest.raises(ValueError):
            cond_mutual_info(joint, {Var.Q}, {Var.Q}, set())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_chain_rule_and_nonnegativity(self, seed, data):
        joint = build_joint(sample_spec(binary_alphabets(), Form.HOD16,
                                        [12, seed]))
        pool = data.draw(st.permutations(VARS))
        a, b1, b2, c = [pool[0]], [pool[1]], [pool[2]], list(pool[3:5])
        lhs = cond_mutual_info(joint, set(a), set(b1) | set(b2), set(c))
        rhs = cond_mutual_info(joint, set(a), set(b1), set(c)) + \
            cond_mutual_info(joint, set(a), set(b2), set(c) | set(b1))
        assert lhs >= 0
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestEntropy:
    def test_uniform_four_symbols(self):
        joint = build_joint(uniform_hk2())
        assert entropy(joint, {Var.X1, Var.X2}) == pytest.approx(2.0, abs=1e-12)

    def test_point_mass(self):
        joint = build_joint(degenerate_spec())
        assert entropy(joint, {Var.Q}) == 0.0

    def test_matches_direct_summation(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 13])
        joint = build_joint(spec)
        table = naive_marginal(naive_joint(spec),
                               [VARS.index(Var.Y1), VARS.index(Var.Y2)])
        assert entropy(joint, {Var.Y1, Var.Y2}) == \
            pytest.approx(naive_entropy(table), abs=1e-12)


def _unmemoised_entropy(joint, s):
    """H(s) by the one reduction of the full tensor, outside the memo."""
    p = joint.tensor.sum(axis=tuple(v.value for v in Var if v not in s)).ravel()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _four_entropy_terms(joint):
    h = functools.partial(_unmemoised_entropy, joint)
    t = {sym: max(h(a | c) + h(b | c) - h(a | b | c) - h(c), 0.0)
         for sym, (a, b, c) in TERMS.items()}
    return {**t, **{comp: t[base] + t[rho]
                    for comp, (base, rho) in COMPOSITE_EXPANSION.items()}}


class TestEntropyMemo:
    @pytest.mark.parametrize("alphabets,form", [
        *((binary_alphabets(), form) for form in Form),
        (binary_alphabets(**WIDE), Form.HOD16),
    ], ids=[*(form.value for form in Form), "hod16-wide"])
    def test_memoised_terms_bit_identical(self, alphabets, form):
        spec = sample_spec(alphabets, form, [11, 20])
        memoised, direct = build_joint(spec), build_joint(spec)
        ref = _four_entropy_terms(direct)
        assert eval_terms(memoised) == ref
        assert eval_terms(memoised) == ref  # the second pass reads only the memo

    def test_each_subset_computed_once(self, marginals):
        joint = build_joint(sample_spec(binary_alphabets(), Form.HOD16, [11, 21]))
        eval_terms(joint)
        assert len(marginals) == len(set(marginals)) == 28
        eval_terms(joint)
        assert len(marginals) == 28

    def test_empty_set_computes_nothing(self, marginals):
        joint = build_joint(sample_spec(binary_alphabets(), Form.HOD16, [11, 22]))
        assert entropy(joint, set()) == 0.0
        assert marginals == []

    def test_memo_is_not_part_of_equality_or_repr(self):
        joint = build_joint(sample_spec(binary_alphabets(), Form.HK2, [11, 23]))
        same = JointDist(joint.alphabets, joint.tensor)
        eval_terms(joint)
        assert joint == same and repr(joint) == repr(same)

    def test_built_tensor_is_read_only(self):
        # a write would leave the memo stale for every reader of the joint
        joint = build_joint(sample_spec(binary_alphabets(), Form.HK2, [11, 24]))
        with pytest.raises(ValueError):
            joint.tensor[(0,) * 9] = 0.5
        with pytest.raises(ValueError):
            joint.tensor *= 1.0


class TestIndependenceProjection:
    def test_fixed_point(self):
        hk = sample_spec(binary_alphabets(), Form.HK2, [11, 14])
        hod = FactorSpec(Form.HOD16, hk.alphabets, hk.q, hk.w1_given_q,
                         hk.u1_given_q_w1, hk.w2_given_q, hk.u2_given_q_w2,
                         hk.x1_given_q_u1_w1, hk.x2_given_q_u2_w2, hk.channel)
        proj = independence_projection(hod)
        assert proj.form is Form.HK2
        assert np.allclose(proj.u1_given_q_w1, hod.u1_given_q_w1, atol=1e-12)

    def test_projection_kills_rho(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 15])
        joint = build_joint(independence_projection(spec))
        assert cond_mutual_info(joint, {Var.U1}, {Var.W1}, {Var.Q}) <= 1e-12
        assert cond_mutual_info(joint, {Var.U2}, {Var.W2}, {Var.Q}) <= 1e-12

    def test_mixture_oracle(self):
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 16])
        proj = independence_projection(spec)
        for q in range(2):
            for u in range(2):
                ref = sum(spec.w1_given_q[q][w] * spec.u1_given_q_w1[q][w][u]
                          for w in range(2))
                assert proj.u1_given_q_w1[q, 0, u] == pytest.approx(ref, abs=1e-14)

    def test_wrong_form_rejected(self):
        with pytest.raises(ValueError):
            independence_projection(sample_spec(binary_alphabets(), Form.HK2,
                                                [11, 17]))

    def test_wrong_form_named_by_its_tag(self):
        spec = sample_spec(binary_alphabets(), Form.GENERAL1, [11, 19])
        with pytest.raises(SpecError, match="requires form hod16, got general1$"):
            independence_projection(spec)


class TestMarkovChains:
    def test_cmg9_chains_hold(self):
        joint = build_joint(sample_spec(binary_alphabets(), Form.CMG9, [11, 18]))
        rep = check_markov_chains(joint)
        assert rep["I(W1;Y1|QW2X1)"] <= 1e-10
        assert rep["I(W2;Y2|QW1X2)"] <= 1e-10

    def test_degenerate_exact_zero(self):
        rep = check_markov_chains(build_joint(degenerate_spec(Form.CMG9)))
        assert rep["I(W1;Y1|QW2X1)"] == 0.0

    def test_corrupted_joint_detected(self):
        # Y1 copies W1 directly, bypassing X1: the chain must break
        alph = binary_alphabets(U1=1, U2=1, X1=1, X2=1, Y2=1)
        t = np.zeros(alph.shape)
        for q in range(2):
            for w1 in range(2):
                for w2 in range(2):
                    t[q, 0, w1, 0, w2, 0, 0, w1, 0] = 1 / 8
        joint = JointDist(alph, t)
        rep = check_markov_chains(joint)
        assert rep["I(W1;Y1|QW2X1)"] > 0.5
