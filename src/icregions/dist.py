"""Finite-alphabet factored distributions for the two-user interference channel.

The nine random variables live on a fixed, canonically ordered axis layout:

    Q, U1, W1, U2, W2, X1, X2, Y1, Y2

Q is the time-sharing variable, W_i carry the common messages, U_i the
private messages, X_i are the channel inputs and Y_i the outputs.  A
``FactorSpec`` declares one of four factorization forms; ``build_joint``
multiplies the factors into a dense joint tensor from which entropies and
conditional mutual informations are computed (all in bits).
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

NORM_TOL = 1e-12
JOINT_TOL = 1e-10
MAX_JOINT_ENTRIES = 10**8


class Var(enum.Enum):
    """The nine variables, in canonical tensor-axis order."""

    Q = 0
    U1 = 1
    W1 = 2
    U2 = 3
    W2 = 4
    X1 = 5
    X2 = 6
    Y1 = 7
    Y2 = 8


VARS = tuple(Var)


class Form(enum.Enum):
    GENERAL1 = "general1"  # p(q) p(w1|q) p(u1|q,w1) ... with product encoders
    HK2 = "hk2"            # u_i independent of w_i given q
    CMG9 = "cmg9"          # no separate U variables; U_i is a copy of X_i
    HOD16 = "hod16"        # u_i correlated with w_i given q


class SpecError(ValueError):
    """A factor table violates its declared shape or normalization."""


@dataclass(frozen=True)
class AlphabetSpec:
    sizes: Mapping[Var, int]

    def __post_init__(self):
        for v in VARS:
            if v not in self.sizes:
                raise SpecError(f"alphabet size missing for {v.name}")
            if self.sizes[v] < 1:
                raise SpecError(f"alphabet size for {v.name} must be >= 1")

    def size(self, v: Var) -> int:
        return self.sizes[v]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.sizes[v] for v in VARS)

    def check_joint_size(self) -> None:
        """Refuse alphabets whose joint tensor would exceed the entry limit,
        before any table over them is drawn or multiplied."""
        if math.prod(self.shape) > MAX_JOINT_ENTRIES:
            raise SpecError("joint tensor would exceed the 1e8 entry limit")


def _first_nonfinite(t: np.ndarray):
    """The index of ``t``'s first non-finite entry in C order, or None;
    searched 2**16 entries at a time, so no temporary is as large as a
    joint tensor."""
    flat, block = t.reshape(-1), 1 << 16
    for start in range(0, flat.size, block):
        bad = np.flatnonzero(~np.isfinite(flat[start:start + block]))
        if bad.size:
            return tuple(int(i) for i in np.unravel_index(start + int(bad[0]), t.shape))
    return None


def _check_rows(name: str, table: np.ndarray, shape: tuple[int, ...]):
    """Every slice along the last axis must be a probability vector."""
    if table.shape != shape:
        raise SpecError(f"factor {name}: expected shape {shape}, got {table.shape}")
    if not np.all(np.isfinite(table)):
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(table))[0])
        raise SpecError(f"factor {name}: non-finite entry at {idx}")
    if np.any(table < 0):
        idx = np.unravel_index(int(np.argmin(table)), table.shape)
        raise SpecError(f"factor {name}: negative entry at {idx}")
    sums = np.atleast_1d(table.sum(axis=-1))
    bad = np.argwhere(np.abs(sums - 1.0) > NORM_TOL)
    if bad.size:
        cond = tuple(int(i) for i in bad[0])
        raise SpecError(
            f"factor {name}: row {cond} sums to {sums[tuple(bad[0])]:.15g}, not 1"
        )


# (field, conditioning vars, conditioned vars) of each factor table, in field
# order; a table's axes follow the vars, and each row is a probability vector.
FACTORS = (
    ("q", (), (Var.Q,)),
    ("w1_given_q", (Var.Q,), (Var.W1,)),
    ("u1_given_q_w1", (Var.Q, Var.W1), (Var.U1,)),
    ("w2_given_q", (Var.Q,), (Var.W2,)),
    ("u2_given_q_w2", (Var.Q, Var.W2), (Var.U2,)),
    ("x1_given_q_u1_w1", (Var.Q, Var.U1, Var.W1), (Var.X1,)),
    ("x2_given_q_u2_w2", (Var.Q, Var.U2, Var.W2), (Var.X2,)),
    ("channel", (Var.X1, Var.X2), (Var.Y1, Var.Y2)),
)


@dataclass(frozen=True)
class FactorSpec:
    """A factored input distribution plus encoders and channel.

    The tables are laid out as ``FACTORS`` says.  HK2 stores
    ``u1_given_q_w1`` with the W1 axis constant (built from a (nQ, nU1)
    table).  CMG9 reuses the U axes as copies of the X axes:
    ``u1_given_q_w1`` is the spec's ``x1_given_q_w1`` table and the encoder
    is the identity indicator.
    """

    form: Form
    alphabets: AlphabetSpec
    q: np.ndarray
    w1_given_q: np.ndarray
    u1_given_q_w1: np.ndarray
    w2_given_q: np.ndarray
    u2_given_q_w2: np.ndarray
    x1_given_q_u1_w1: np.ndarray
    x2_given_q_u2_w2: np.ndarray
    channel: np.ndarray

    def __post_init__(self):
        n = {v: self.alphabets.size(v) for v in VARS}
        if self.form is Form.CMG9:
            if n[Var.U1] != n[Var.X1] or n[Var.U2] != n[Var.X2]:
                raise SpecError("CMG9 requires U alphabets equal to X alphabets")
        for name, given, of in FACTORS:
            table = getattr(self, name)
            if len(of) > 1:  # one probability vector over the joint outcome
                table = table.reshape(table.shape[:len(given)]
                                      + (math.prod(table.shape[len(given):]),))
            _check_rows(name, table, tuple(n[v] for v in given)
                        + (math.prod(n[v] for v in of),))
        if self.form is Form.HK2:
            # the stored conditional must not actually depend on W1/W2
            if not np.allclose(self.u1_given_q_w1, self.u1_given_q_w1[:, :1, :],
                               rtol=0, atol=NORM_TOL):
                raise SpecError("HK2 spec: u1_given_q_w1 depends on w1")
            if not np.allclose(self.u2_given_q_w2, self.u2_given_q_w2[:, :1, :],
                               rtol=0, atol=NORM_TOL):
                raise SpecError("HK2 spec: u2_given_q_w2 depends on w2")


def hk2_spec(alphabets, q, w1_given_q, u1_given_q, w2_given_q, u2_given_q,
             x1_given_q_u1_w1, x2_given_q_u2_w2, channel) -> FactorSpec:
    """Build an HK2 FactorSpec from p(u_i|q) tables."""
    u1, u2 = np.asarray(u1_given_q), np.asarray(u2_given_q)
    for name, u in (("u1_given_q", u1), ("u2_given_q", u2)):
        if u.ndim != 2:
            raise SpecError(f"factor {name}: expected axes (Q, U), got shape {u.shape}")
    u1 = np.repeat(u1[:, None, :], alphabets.size(Var.W1), axis=1)
    u2 = np.repeat(u2[:, None, :], alphabets.size(Var.W2), axis=1)
    return FactorSpec(Form.HK2, alphabets, np.asarray(q), np.asarray(w1_given_q), u1,
                      np.asarray(w2_given_q), u2, np.asarray(x1_given_q_u1_w1),
                      np.asarray(x2_given_q_u2_w2), np.asarray(channel))


def cmg9_spec(alphabets, q, w1_given_q, x1_given_q_w1, w2_given_q, x2_given_q_w2,
              channel) -> FactorSpec:
    """Build a CMG9 FactorSpec; the U axes mirror the X axes."""
    nq = alphabets.size(Var.Q)
    nx1, nx2 = alphabets.size(Var.X1), alphabets.size(Var.X2)
    nw1, nw2 = alphabets.size(Var.W1), alphabets.size(Var.W2)
    eye1 = np.broadcast_to(np.eye(nx1)[None, :, None, :], (nq, nx1, nw1, nx1)).copy()
    eye2 = np.broadcast_to(np.eye(nx2)[None, :, None, :], (nq, nx2, nw2, nx2)).copy()
    return FactorSpec(Form.CMG9, alphabets, np.asarray(q), np.asarray(w1_given_q),
                      np.asarray(x1_given_q_w1), np.asarray(w2_given_q),
                      np.asarray(x2_given_q_w2), eye1, eye2, np.asarray(channel))


@dataclass(frozen=True)
class JointDist:
    """Dense joint probability tensor over the nine variables.

    ``entropy`` memoises each marginal entropy on the joint, and
    ``marginal_tensor`` keeps on it the partial sums it shares between
    marginals, both for the joint's lifetime.  So the tensor must not be
    mutated once the joint is built; ``build_joint`` makes it read-only,
    since one joint may be shared by several readers.
    """

    alphabets: AlphabetSpec
    tensor: np.ndarray
    _entropies: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _partials: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        t = self.tensor
        if t.shape != self.alphabets.shape:
            raise SpecError("joint tensor shape does not match alphabets")
        # finite nonnegative entries that sum to about 1 give a finite sum, so
        # the one sum pass detects NaN and infinities
        total = float(t.sum())
        if not math.isfinite(total) and (idx := _first_nonfinite(t)) is not None:
            raise SpecError(f"joint tensor: non-finite entry at {idx}")
        if t.min() < 0:
            raise SpecError("joint tensor has a negative entry")
        if abs(total - 1.0) > JOINT_TOL:
            raise SpecError(f"joint tensor sums to {total:.15g}")


# einsum subscripts of the factor product, one letter per variable in VARS
# order: "q,qw,qwu,qv,qvm,quwx,qmvz,xzab->quwmvxzab".
_AXES = "quwmvxzab"
_JOINT_SUBSCRIPTS = ",".join("".join(_AXES[v.value] for v in given + of)
                             for _, given, of in FACTORS) + "->" + _AXES


def build_joint(spec: FactorSpec) -> JointDist:
    """Multiply the declared factors into the full nine-variable joint."""
    spec.alphabets.check_joint_size()
    t = np.einsum(_JOINT_SUBSCRIPTS, *(getattr(spec, name) for name, _, _ in FACTORS),
                  optimize=True)
    t.flags.writeable = False
    return JointDist(spec.alphabets, t)


def marginal_tensor(joint: JointDist, keep: Iterable[Var]) -> np.ndarray:
    """Sum out all axes not in ``keep``; result keeps canonical axis order.

    The result has the bits of ``joint.tensor.sum(axis=drop)``, with less
    work.  NumPy reduces a C-contiguous tensor in C order: it sums the
    innermost coalesced block of reduced axes pairwise and adds each block
    sum to the accumulator in turn, and its iterator squeezes out axes of
    size 1.  So the trailing block, the dropped axes of the maximal suffix
    of axes that are dropped or have size 1, can be summed first (keeping
    dims) and the rest reduced from that partial sum in the same order.
    Each partial is made once per joint, kept on it, and shared by every
    marginal with the same trailing block.  When that suffix is empty or
    holds every dropped axis, the tensor is reduced once.
    """
    keep = {v.value for v in keep}
    if not keep:
        raise ValueError("keep set must be nonempty")
    t = joint.tensor
    drop = tuple(a for a in range(t.ndim) if a not in keep)
    start = t.ndim
    while start and (start - 1 not in keep or t.shape[start - 1] == 1):
        start -= 1
    tail = tuple(a for a in drop if a >= start)
    if not tail or tail == drop:
        return t.sum(axis=drop)
    partials = joint._partials
    if tail not in partials:
        partials[tail] = t.sum(axis=tail, keepdims=True)
    return partials[tail].sum(axis=drop)


def entropy(joint: JointDist, A: Iterable[Var]) -> float:
    """Shannon entropy H(A) in bits, with 0 log 0 := 0 and H() = 0.

    Each variable set's value is computed once per joint and memoised on it.
    """
    A = frozenset(A)
    if not A:
        return 0.0
    memo = joint._entropies
    if A not in memo:
        p = marginal_tensor(joint, A).ravel()
        p = p[p > 0]
        memo[A] = float(-(p * np.log2(p)).sum())
    return memo[A]


def cond_mutual_info(joint: JointDist, A, B, C=()) -> float:
    """I(A;B|C) in bits; tiny negative round-off is clamped to 0."""
    A, B, C = frozenset(A), frozenset(B), frozenset(C)
    if not A or not B:
        raise ValueError("A and B must be nonempty")
    if A & B or A & C or B & C:
        raise ValueError("A, B, C must be pairwise disjoint")
    val = (
        entropy(joint, A | C)
        + entropy(joint, B | C)
        - entropy(joint, A | B | C)
        - entropy(joint, C)
    )
    if val < 0:
        if val < -1e-12:
            raise ArithmeticError(f"conditional MI evaluated to {val}")
        val = 0.0
    return val


def independence_projection(spec: FactorSpec) -> FactorSpec:
    """Replace p(u_i|q,w_i) by its w_i-mixture p(u_i|q), yielding an HK2 spec.

    All other factors are unchanged, so the projected joint has the same
    p(q), p(w_i|q) and the same encoders and channel.
    """
    if spec.form is not Form.HOD16:
        raise SpecError(f"independence_projection requires form hod16, got {spec.form.value}")
    # p(u1|q) = sum_w1 p(w1|q) p(u1|q,w1)
    u1_q = np.einsum("qw,qwu->qu", spec.w1_given_q, spec.u1_given_q_w1)
    u2_q = np.einsum("qv,qvm->qm", spec.w2_given_q, spec.u2_given_q_w2)
    return hk2_spec(spec.alphabets, spec.q, spec.w1_given_q, u1_q, spec.w2_given_q,
                    u2_q, spec.x1_given_q_u1_w1, spec.x2_given_q_u2_w2, spec.channel)


def check_markov_chains(joint: JointDist) -> dict:
    """Report the two Markov-chain residuals of the superposition form.

    For a joint built from a CMG9 spec, both must be ~0:
    I(W1; Y1 | Q W2 X1) and I(W2; Y2 | Q W1 X2).
    """
    r1 = cond_mutual_info(joint, {Var.W1}, {Var.Y1}, {Var.Q, Var.W2, Var.X1})
    r2 = cond_mutual_info(joint, {Var.W2}, {Var.Y2}, {Var.Q, Var.W1, Var.X2})
    return {
        "I(W1;Y1|QW2X1)": r1,
        "I(W2;Y2|QW1X2)": r2,
        "ok": bool(r1 <= 1e-10 and r2 <= 1e-10),
    }


# --- JSON interchange -------------------------------------------------------

_FORM_NAMES = {f.value: f for f in Form}

# JSON name of each FACTORS table per form; None marks a table that is not
# stored (CMG9's encoders are the identity, since U_i is a copy of X_i).
_CHANNEL = "channel_y1y2_given_x1x2"
_GENERAL_NAMES = ("q", "w1_given_q", "u1_given_q_w1", "w2_given_q", "u2_given_q_w2",
                  "x1_given_q_u1_w1", "x2_given_q_u2_w2", _CHANNEL)
JSON_NAMES = {
    Form.GENERAL1: _GENERAL_NAMES,
    Form.HK2: ("q", "w1_given_q", "u1_given_q", "w2_given_q", "u2_given_q",
               "x1_given_q_u1_w1", "x2_given_q_u2_w2", _CHANNEL),
    Form.CMG9: ("q", "w1_given_q", "x1_given_q_w1", "w2_given_q", "x2_given_q_w2",
                None, None, _CHANNEL),
    Form.HOD16: _GENERAL_NAMES,
}


def stored_factors(form: Form):
    """Yield (field, JSON name, conditioning vars, conditioned vars) of each
    table a spec of this form stores, in ``FACTORS`` order.  HK2 stores its
    u_i tables without the W_i axis, which ``hk2_spec`` repeats."""
    for (name, given, of), key in zip(FACTORS, JSON_NAMES[form]):
        if form is Form.HK2 and of[0] in (Var.U1, Var.U2):
            given = (Var.Q,)
        if key is not None:
            yield name, key, given, of


def from_stored(form: Form, alphabets: AlphabetSpec, tables) -> FactorSpec:
    """The spec of this form whose stored tables, in ``stored_factors``
    order, are ``tables``; HK2 and CMG9 have builders that expand them."""
    build = {Form.HK2: hk2_spec, Form.CMG9: cmg9_spec}.get(form)
    return (build or functools.partial(FactorSpec, form))(alphabets, *tables)


def spec_to_json(spec: FactorSpec) -> dict:
    factors = {}
    for name, key, given, of in stored_factors(spec.form):
        table = np.asarray(getattr(spec, name))
        # index 0 of any axis the field repeats after the stored conditioning vars
        lost = table.ndim - len(given) - len(of)
        factors[key] = table[(slice(None),) * len(given) + (0,) * lost].tolist()
    return {
        "form": spec.form.value,
        "alphabets": {v.name: spec.alphabets.size(v) for v in VARS},
        "factors": factors,
    }


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _table(factors: dict, key: str) -> np.ndarray:
    if key not in factors:
        raise SpecError(f"factor {key} is missing")
    try:
        table = np.asarray(factors[key])
    except ValueError:
        raise SpecError(f"factor {key}: nested lists do not form an array") from None
    if table.dtype.kind not in "iuf":  # strings, booleans, null, objects
        raise SpecError(f"factor {key}: entries must be probabilities")
    return table.astype(float)


def spec_from_json(d: dict) -> FactorSpec:
    d = _json_object(d, "spec")
    name = d.get("form")
    form = _FORM_NAMES.get(name.lower()) if isinstance(name, str) else None
    if form is None:
        raise SpecError(f"unknown form {name!r}")
    sizes = {}
    for var, n in _json_object(d.get("alphabets", {}), "alphabets").items():
        if var not in Var.__members__:
            raise SpecError(f"unknown alphabet {var!r}")
        if type(n) is not int:
            raise SpecError(f"alphabet size for {var} must be an integer, got {n!r}")
        sizes[Var[var]] = n
    alph = AlphabetSpec(sizes)
    factors = _json_object(d.get("factors", {}), "factors")
    return from_stored(form, alph, [_table(factors, key)
                                    for _, key, _, _ in stored_factors(form)])


def load_spec(path) -> FactorSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not JSON or not UTF-8
        raise SpecError(f"cannot read {path}: {exc}") from None
    return spec_from_json(doc)


def save_spec(spec: FactorSpec, path):
    with open(path, "w") as fh:
        json.dump(spec_to_json(spec), fh, indent=1)
