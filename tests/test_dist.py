import dataclasses
import enum
import functools
import inspect
import itertools
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icregions import dist
from icregions.dist import (FACTORS, AlphabetSpec, FactorSpec, Form, JointDist,
                            SpecError, Var, build_joint, check_markov_chains,
                            cmg9_spec, cond_mutual_info, entropy, hk2_spec,
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

# alphabets at the edges of marginal_tensor's rules, each with a name
MARGINAL_EDGES = {
    "binary": {},
    "wide": WIDE,
    "ones-among-threes": ONES_AMONG_THREES,
    "q-one": {**WIDE, "Q": 1},            # no Q-inner copy
    "y2-one": {"Q": 3, "Y1": 3, "Y2": 1},  # a last axis of one entry
    "y1-one": {"Q": 3, "X2": 3, "Y1": 1, "Y2": 3},  # size 1 just before the last
    "y2-eight": {"Q": 3, "Y2": 8},         # NumPy's pairwise sum unrolls 8 ...
    "y2-nine": {"Q": 3, "Y2": 9},          # ... and adds the ninth after
}


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


def test_var_hashes_at_c_level():
    """``Var`` is an ``IntEnum``: its members are their axis ints, so the
    sampling path, which hashes them in every alphabet and size lookup,
    makes no Python-level ``Enum.__hash__`` call on one while drawing,
    multiplying out and evaluating a fresh sample of each form."""
    hash_code, hashed = enum.Enum.__hash__.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is hash_code:
            hashed.append(frame.f_locals["self"])

    sys.setprofile(profile)
    try:
        for i, form in enumerate((Form.HK2, Form.CMG9, Form.HOD16)):
            eval_terms(build_joint(sample_spec(binary_alphabets(), form, [91, i])))
    finally:
        sys.setprofile(None)
    assert not [v for v in hashed if isinstance(v, Var)]


class TestBuildJoint:
    def test_degenerate_single_entry(self):
        joint = build_joint(degenerate_spec())
        assert joint.tensor.shape == (1,) * 9
        assert joint.tensor.item() == pytest.approx(1.0)

    def test_uniform_product(self):
        joint = build_joint(uniform_hk2())
        assert np.allclose(joint.tensor, 2.0**-9)

    def test_tensor_is_read_only(self):
        joint = build_joint(uniform_hk2())
        assert not joint.tensor.flags.writeable
        with pytest.raises(ValueError):
            joint.tensor[(0,) * 9] = 1.0

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

    @pytest.mark.parametrize("sizes", [{}, WIDE, {v.name: 3 for v in Var},
                                       ONES_AMONG_THREES],
                             ids=["binary", "wide", "ternary", "ones-among-threes"])
    @pytest.mark.parametrize("form", list(Form), ids=lambda f: f.value)
    def test_fixed_contraction_has_the_bits_of_the_searched_path(self, sizes, form,
                                                                 monkeypatch):
        if form is Form.CMG9:  # its U axes are copies of the X axes
            sizes = {**sizes, **{f"X{i}": sizes.get(f"U{i}", 2) for i in (1, 2)}}
        spec = sample_spec(binary_alphabets(**sizes), form, [11, 30])
        # a spy on the path search, where np.einsum(optimize=True) reads it
        einsumfunc = sys.modules[inspect.unwrap(np.einsum).__module__]
        searched, search = [], einsumfunc.einsum_path

        def spy(*args, **kwargs):
            searched.append(args[0])
            return search(*args, **kwargs)

        for owner in (np, einsumfunc):
            monkeypatch.setattr(owner, "einsum_path", spy)
        ref = np.einsum(dist._JOINT_SUBSCRIPTS,
                        *(getattr(spec, name) for name, _, _ in FACTORS), optimize=True)
        assert searched == [dist._JOINT_SUBSCRIPTS]
        t = build_joint(spec).tensor
        assert searched == [dist._JOINT_SUBSCRIPTS]
        assert (t.shape, t.dtype, t.tobytes()) == (ref.shape, ref.dtype, ref.tobytes())

    def test_two_step_build_has_the_bits_of_the_searched_path(self):
        # 200 seeded shapes with sizes 1-5, the forms in turn; build_joint
        # contracts three factors and multiplies in the other five
        rng = np.random.default_rng(28)
        for i in range(200):
            form = list(Form)[i % len(Form)]
            sizes = {v.name: int(n) for v, n in zip(VARS, rng.integers(1, 6, size=9))}
            if form is Form.CMG9:
                sizes.update(X1=sizes["U1"], X2=sizes["U2"])
            spec = sample_spec(binary_alphabets(**sizes), form, [28, i])
            ref = np.einsum(dist._JOINT_SUBSCRIPTS,
                            *(getattr(spec, name) for name, _, _ in FACTORS), optimize=True)
            t = build_joint(spec).tensor
            assert t.flags.c_contiguous and not t.flags.writeable
            assert (t.shape, t.dtype, t.tobytes()) == (ref.shape, ref.dtype, ref.tobytes()), \
                (form, sizes)

    def test_minus_zero_factors_give_the_bits_of_the_searched_path(self):
        # the one-step contraction adds each product to +0.0, so a -0.0 in a
        # factor multiplied in after the first three gives a +0.0 cell
        spec = sample_spec(binary_alphabets(**WIDE), Form.HOD16, [11, 33])
        u2 = np.array(spec.u2_given_q_w2)
        u2[:, :, 0] = -0.0
        u2 /= u2.sum(axis=-1, keepdims=True)
        spec = dataclasses.replace(spec, u2_given_q_w2=u2)
        ref = np.einsum(dist._JOINT_SUBSCRIPTS,
                        *(getattr(spec, name) for name, _, _ in FACTORS), optimize=True)
        t = build_joint(spec).tensor
        assert (t == 0).any() and not np.signbit(t).any()
        assert t.tobytes() == ref.tobytes()

    def test_integer_tables_take_the_common_type(self):
        # deterministic encoders and channel given as ints: the one-step
        # contraction casts every table to float64 before it multiplies
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 35])
        ints = {name: (getattr(spec, name) > 0.5).astype(int) for name in
                ("x1_given_q_u1_w1", "x2_given_q_u2_w2")}
        ints["x1_given_q_u1_w1"][..., 0] = 1 - ints["x1_given_q_u1_w1"][..., 1]
        ints["x2_given_q_u2_w2"][..., 0] = 1 - ints["x2_given_q_u2_w2"][..., 1]
        ints["channel"] = np.eye(4, dtype=int).reshape(2, 2, 2, 2)
        spec = dataclasses.replace(spec, **ints)
        ref = np.einsum(dist._JOINT_SUBSCRIPTS,
                        *(getattr(spec, name) for name, _, _ in FACTORS), optimize=True)
        t = build_joint(spec).tensor
        assert (t.dtype, t.tobytes()) == (np.float64, ref.tobytes())
        # all tables ints: the joint stays int, as the one step leaves it
        ones = [np.ones((1,) * (len(given) + len(of)), dtype=int) for _, given, of in FACTORS]
        t = build_joint(FactorSpec(Form.HOD16, AlphabetSpec({v: 1 for v in Var}), *ones)).tensor
        assert (t.dtype, t.tobytes()) == (np.int64, np.ones((1,) * 9, dtype=np.int64).tobytes())


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

    def test_tensor_kept_in_c_order(self):
        # a marginal's bits follow the order NumPy reduces memory in, so a
        # Fortran-ordered tensor is copied to C order and gives the same terms
        joint = build_joint(sample_spec(binary_alphabets(**WIDE), Form.HOD16, [11, 31]))
        assert JointDist(joint.alphabets, joint.tensor).tensor is joint.tensor
        fortran = JointDist(joint.alphabets, np.asfortranarray(joint.tensor))
        assert fortran.tensor.flags.c_contiguous and not fortran.tensor.flags.writeable
        terms, fortran_terms = eval_terms(joint), eval_terms(fortran)
        assert list(fortran_terms) == list(terms)
        assert np.array(list(fortran_terms.values())).tobytes() == \
            np.array(list(terms.values())).tobytes()

    def test_negative_entry_and_bad_sum(self):
        joint = build_joint(sample_spec(binary_alphabets(), Form.HOD16, [11, 29]))
        t = joint.tensor.copy()
        t[0, 0, 0, 0, 0, 0, 0, 0, 0] *= -1
        with pytest.raises(SpecError, match="negative entry"):
            JointDist(joint.alphabets, t)
        with pytest.raises(SpecError, match="sums to 2"):
            JointDist(joint.alphabets, 2 * joint.tensor)


def _put(table, index, value):
    table.flat[index] = value
    return table


def _per_table_fault(alphabets, tables):
    """The SpecError message of the first table that ``dist._check_rows``
    refuses, checking the tables one by one in ``FACTORS`` order."""
    n = alphabets.size
    for name, given, of in FACTORS:
        table = tables[name]
        if len(of) > 1:
            table = table.reshape(table.shape[:len(given)] + (-1,))
        try:
            dist._check_rows(name, table, tuple(map(n, given))
                             + (math.prod(map(n, of)),))
        except SpecError as exc:
            return str(exc)
    return None


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

    @pytest.mark.parametrize("table,fault", [
        ([[0.5, 0.5], [0.5, np.nan]], "non-finite entry at (1, 1)"),
        ([[0.5, 0.5], [np.inf, 0.0]], "non-finite entry at (1, 0)"),
        ([[-np.inf, 1.0], [0.5, 0.5]], "non-finite entry at (0, 0)"),
        ([[0.5, 0.5], [1.5, -0.5]], "negative entry at (1, 1)"),
        ([[1.0, -0.0], [0.5, 0.5]], None),
        ([[0.5, 0.5 + 2e-12], [0.5, 0.5]], "row (0,) sums to 1.000000000002, not 1"),
        ([[1 + 1e-13, 0.0], [0.5, 0.5]], None),
        ([[np.nan, 0.5], [1.5, -0.5]], "non-finite entry at (0, 0)"),
        ([[0.25, 0.75], [0.5, 0.5]], None),
    ], ids=["nan", "+inf", "-inf", "negative", "minus-zero", "sum-off-2e-12",
            "entry-above-one", "nan-before-negative", "fine"])
    def test_one_pass_check_agrees_with_the_full_checks(self, table, fault):
        table = np.array(table)

        def verdict(check, *args):
            try:
                check("t", table, *args)
            except SpecError as exc:
                return str(exc)
            return None

        expected = None if fault is None else f"factor t: {fault}"
        assert verdict(dist._row_fault) == expected
        assert verdict(dist._check_rows, table.shape) == expected

    # each fault written into a copy of one table
    FAULTS = {
        "shape": lambda t: np.concatenate([t, t[..., :1]], axis=-1),
        "nan": lambda t: _put(t, 0, np.nan),
        "+inf": lambda t: _put(t, -1, np.inf),
        "negative": lambda t: _put(t, 1, -0.25),
        "above-one": lambda t: _put(t, 0, 1.5),
        "sum-off-2e-12": lambda t: _put(t, 0, t.flat[0] + 2e-12),
    }

    @pytest.mark.parametrize("sizes", [{}, {"Q": 3, "U1": 3, "W2": 3, "X1": 1, "Y2": 3}],
                             ids=["binary", "mixed"])
    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("position", range(len(FACTORS)),
                             ids=[name for name, _, _ in FACTORS])
    def test_joined_check_raises_what_the_per_table_loop_raises(self, sizes, fault,
                                                                position):
        """One table at fault, and a NaN in the channel as well when it is
        not that table: the spec names the fault the loop over the tables
        meets first."""
        spec = sample_spec(binary_alphabets(**sizes), Form.HOD16, [11, 30])
        tables = {name: np.array(getattr(spec, name)) for name, _, _ in FACTORS}
        name = FACTORS[position][0]
        tables[name] = self.FAULTS[fault](tables[name])
        if name != "channel":
            tables["channel"][0, 0, 1, 1] = np.nan
        with pytest.raises(SpecError) as exc:
            FactorSpec(Form.HOD16, spec.alphabets, **tables)
        assert str(exc.value) == _per_table_fault(spec.alphabets, tables)
        assert str(exc.value).startswith(f"factor {name}: ")

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

    @pytest.mark.parametrize("field,w", [("u1_given_q_w1", "w1"), ("u2_given_q_w2", "w2")])
    def test_hk2_w_dependence_boundary(self, field, w):
        """Rows (0, 1) and (d, 1 - d): the first entry changes by exactly d
        with w and the second by 1 - fl(1 - d) <= d.  A change of exactly
        NORM_TOL is accepted and one of 2 * NORM_TOL refused."""
        spec = sample_spec(binary_alphabets(), Form.HK2, [1, 0])

        def with_change(d):
            u = np.empty((2, 2, 2))
            u[:, 0], u[:, 1] = [0.0, 1.0], [d, 1.0 - d]
            assert np.abs(u - u[:, :1, :]).max() == d
            tables = {name: getattr(spec, name) for name, _, _ in FACTORS}
            return FactorSpec(Form.HK2, spec.alphabets, **{**tables, field: u})

        with_change(dist.NORM_TOL)
        with pytest.raises(SpecError, match=f"{field} depends on {w}"):
            with_change(2 * dist.NORM_TOL)

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

    @pytest.mark.parametrize("sizes", MARGINAL_EDGES.values(), ids=MARGINAL_EDGES)
    @pytest.mark.parametrize("form", [Form.HOD16, Form.GENERAL1, Form.HK2],
                             ids=lambda f: f.value)
    def test_partial_sums_keep_the_bits_of_one_reduction(self, sizes, form):
        # Every one of the 511 keep sets, on a joint that holds the partial
        # sums (and Q-inner copy) of all of them and on a fresh joint of the
        # same tensor, which holds none; on ones-among-threes a rule that
        # ignores size-1 axes changes the bits of some sets.
        joint = build_joint(sample_spec(binary_alphabets(**sizes), form, [11, 25]))
        assert joint.tensor.flags.c_contiguous
        keeps = [keep for r in range(1, 10) for keep in itertools.combinations(VARS, r)]
        refs = [joint.tensor.sum(axis=tuple(v.value for v in VARS if v not in keep))
                for keep in keeps]
        for keep in keeps:
            marginal_tensor(joint, keep)
        assert joint._partials
        assert (dist._Q_INNER in joint._partials) == (joint.tensor.shape[0] > 1)
        for keep, ref in zip(keeps, refs):
            shared = marginal_tensor(joint, keep)
            alone = marginal_tensor(JointDist(joint.alphabets, joint.tensor), keep)
            for m in (shared, alone):
                assert (m.shape, m.tobytes()) == (ref.shape, ref.tobytes()), keep

    def test_minus_zero_cells_keep_the_bits_of_one_reduction(self):
        # a Y2 row of -0.0 cells sums to -0.0 by slices and to +0.0 in NumPy;
        # the reduction from the partial starts from +0.0, as NumPy's does
        spec = sample_spec(binary_alphabets(Q=2, Y2=4), Form.HOD16, [11, 34])
        channel = np.array(spec.channel)
        channel[:, :, 0, :] = 0.0
        channel /= channel.sum(axis=(2, 3), keepdims=True)
        t = build_joint(dataclasses.replace(spec, channel=channel)).tensor
        t = np.where(t == 0, -0.0, t)
        assert np.signbit(t).any()
        joint = JointDist(spec.alphabets, t)
        for r in range(1, 10):
            for keep in itertools.combinations(VARS, r):
                ref = t.sum(axis=tuple(v.value for v in VARS if v not in keep))
                assert marginal_tensor(joint, keep).tobytes() == ref.tobytes(), keep

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

    def test_y2_kept_marginals_read_a_read_only_q_inner_copy(self):
        joint = build_joint(sample_spec(binary_alphabets(**WIDE), Form.HOD16, [11, 32]))
        t = joint.tensor
        y2_kept = [frozenset(a | b | c) for a, b, c in TERMS.values()
                   if Var.Y2 in a | b | c]
        for keep in y2_kept:
            marginal_tensor(joint, keep)
        assert list(joint._partials) == [dist._Q_INNER]
        copy = joint._partials[dist._Q_INNER]
        assert np.array_equal(copy, t) and not np.shares_memory(copy, t)
        assert not copy.flags.writeable
        # C order with axes (U1, W1, U2, W2, X1, X2, Y1, Q, Y2)
        assert copy.base.flags.c_contiguous
        assert copy.base.shape == t.shape[1:-1] + (t.shape[0], t.shape[-1])
        # the marginals read the copy: one that is not the tensor shows
        joint._partials[dist._Q_INNER] = 2 * copy
        for keep in y2_kept:
            drop = tuple(v.value for v in VARS if v not in keep)
            assert np.array_equal(marginal_tensor(joint, keep), 2 * t.sum(axis=drop))
        # the Y1-kept marginals of the terms share the copy's Y2-summed partial
        marginal_tensor(joint, {Var.Q, Var.Y1})
        assert list(joint._partials) == [dist._Q_INNER, (dist._Q_INNER, (Var.Y2.value,))]


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

    def test_bad_triples_raise_on_every_call(self):
        # the entropy keys are cached per triple, but an exception is not
        joint = build_joint(degenerate_spec())
        for _ in range(2):
            with pytest.raises(ValueError, match="nonempty"):
                cond_mutual_info(joint, set(), {Var.Q})
            with pytest.raises(ValueError, match="disjoint"):
                cond_mutual_info(joint, {Var.Q}, {Var.U1}, {Var.Q})

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
        # joints compare by identity, so filling the memo changes neither
        joint = build_joint(sample_spec(binary_alphabets(), Form.HK2, [11, 23]))
        same = JointDist(joint.alphabets, joint.tensor)
        eval_terms(joint)
        assert joint == joint and joint != same and repr(joint) == repr(same)

    def test_equality_is_a_bool_on_equal_arrays(self):
        """Joints and specs compare by identity: two over equal but distinct
        arrays give False, not NumPy's ambiguous-truth ValueError."""
        joint = build_joint(sample_spec(binary_alphabets(), Form.HK2, [11, 25]))
        copy = JointDist(joint.alphabets, joint.tensor.copy())
        assert (copy == joint) is False and (copy != joint) is True
        fortran = np.asfortranarray(joint.tensor)
        assert (JointDist(joint.alphabets, fortran)
                == JointDist(joint.alphabets, fortran)) is False
        a, b = (sample_spec(binary_alphabets(), Form.HOD16, [11, 26]) for _ in range(2))
        assert all(np.array_equal(getattr(a, name), getattr(b, name))
                   for name, _, _ in FACTORS)
        assert (a == b) is False and (a != b) is True and (a == a) is True

    def test_built_tensor_is_read_only(self):
        # a write would leave the memo stale for every reader of the joint
        joint = build_joint(sample_spec(binary_alphabets(), Form.HK2, [11, 24]))
        with pytest.raises(ValueError):
            joint.tensor[(0,) * 9] = 0.5
        with pytest.raises(ValueError):
            joint.tensor *= 1.0


# The alphabets of the batched-entropy tests: binary, wide, one Q symbol
# with ternary outputs, and size-1 axes among size-3 ones.
TERM_SHAPES = {
    "binary": {},
    "wide": WIDE,
    "q-one-y-three": {"Q": 1, "Y1": 3, "Y2": 3},
    "ones-among-threes": ONES_AMONG_THREES,
}


def _alphabets_for(form, sizes):
    """The alphabets of ``sizes``, with |U_i| = |X_i| for CMG9."""
    alph = binary_alphabets(**sizes)
    if form is Form.CMG9:
        alph = binary_alphabets(**{**sizes, "U1": alph.size(Var.X1),
                                   "U2": alph.size(Var.X2)})
    return alph


def _hex(values: dict) -> dict:
    return {key: value.hex() for key, value in values.items()}


class TestBatchedEntropies:
    @pytest.mark.parametrize("sizes", TERM_SHAPES.values(), ids=TERM_SHAPES)
    @pytest.mark.parametrize("form", list(Form), ids=lambda f: f.value)
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_terms_have_the_bits_of_four_unmemoised_entropies(self, sizes, form, seed):
        """On a fresh joint every entropy the terms read is made in one pass
        (``dist.entropies``); each term, of all 22 or of a subset, has the
        bits of its four one-reduction entropies combined in order."""
        spec = sample_spec(_alphabets_for(form, sizes), form, [seed, 0])
        ref = _hex(_four_entropy_terms(build_joint(spec)))
        assert _hex(eval_terms(build_joint(spec))) == ref
        subset = ("a1", "C2", "rho1")
        assert _hex(eval_terms(build_joint(spec), subset)) == {s: ref[s] for s in subset}

    @pytest.mark.parametrize("sizes", MARGINAL_EDGES.values(), ids=MARGINAL_EDGES)
    @pytest.mark.parametrize("form", [Form.HOD16, Form.CMG9], ids=lambda f: f.value)
    def test_every_entropy_has_the_bits_of_one_reduction(self, sizes, form, marginals):
        """All 511 entropies in one pass, and again from the memo, each with
        the bits of its own unmemoised sum; CMG9 joints have zero cells,
        which the pass leaves out of each slice."""
        joint = build_joint(sample_spec(_alphabets_for(form, sizes), form, [11, 27]))
        keys = [frozenset(keep) for r in range(1, 10)
                for keep in itertools.combinations(VARS, r)]
        ref = [_unmemoised_entropy(joint, keep).hex() for keep in keys]
        assert [h.hex() for h in dist.entropies(joint, [frozenset(), *keys])] == \
            [(0.0).hex(), *ref]
        assert [h.hex() for h in dist.entropies(joint, keys[::-1])] == ref[::-1]
        assert sorted(marginals, key=keys.index) == keys  # each made once
        assert joint.tensor.all() == (form is not Form.CMG9)


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

    def test_tables_changed_after_construction_are_checked_again(self):
        # a spec's arrays are mutable, so the projection checks the tables
        # it takes over even though the spec checked them when built
        spec = sample_spec(binary_alphabets(), Form.HOD16, [11, 20])
        spec.channel[0, 1, 0, 1] = np.nan
        with pytest.raises(SpecError, match="^factor channel: non-finite entry at "):
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
