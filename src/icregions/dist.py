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
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

NORM_TOL = 1e-12
JOINT_TOL = 1e-10
MAX_JOINT_ENTRIES = 10**8


class Var(enum.IntEnum):
    """The nine variables, each its tensor axis in canonical order; as
    ints they hash at C level."""

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


_BLOCK = 1 << 16  # the entries a temporary array of a check may hold


def _first_nonfinite(t: np.ndarray):
    """The index of ``t``'s first non-finite entry in C order, or None;
    searched ``_BLOCK`` entries at a time, so no temporary is as large as a
    joint tensor."""
    flat, block = t.reshape(-1), _BLOCK
    for start in range(0, flat.size, block):
        bad = np.flatnonzero(~np.isfinite(flat[start:start + block]))
        if bad.size:
            return tuple(int(i) for i in np.unravel_index(start + int(bad[0]), t.shape))
    return None


def _check_rows(name: str, table: np.ndarray, shape: tuple[int, ...]):
    """Every slice along the last axis must be a probability vector.

    One pass decides whether the table is fine: its entries lie in [0, 1]
    and every row sums to 1 within ``NORM_TOL``.  A NaN fails every
    comparison, so it fails the pass; only a table that fails it is
    searched for the fault to name (``_row_fault``)."""
    if table.shape != shape:
        raise SpecError(f"factor {name}: expected shape {shape}, got {table.shape}")
    if not (table.min() >= 0 and table.max() <= 1
            and np.abs(table.sum(axis=-1) - 1.0).max() <= NORM_TOL):
        _row_fault(name, table)


def _tables_fine(tables) -> bool:
    """Whether every (name, table, shape) passes ``_check_rows``'s one pass,
    with the tables of one row length joined as the rows of one array.
    NumPy sums each row of C-ordered tables as it does in the joined array,
    so the verdict is ``_check_rows``'s.  False also for tables that are
    not C-ordered ``float64`` of their shape, ``_BLOCK`` entries in all."""
    if sum(t.size for _, t, _ in tables) > _BLOCK or not all(
            type(t) is np.ndarray and t.dtype == np.float64 and t.flags.c_contiguous
            and t.shape == shape for _, t, shape in tables):
        return False
    joined = {}
    for _, t, shape in tables:
        joined.setdefault(shape[-1], []).append(t.reshape(-1, shape[-1]))
    for rows in joined.values():
        rows = np.concatenate(rows)
        if not (rows.min() >= 0 and rows.max() <= 1
                and np.abs(rows.sum(axis=-1) - 1.0).max() <= NORM_TOL):
            return False
    return True


def _row_fault(name: str, table: np.ndarray):
    """Raise a SpecError naming the first fault of the table: a non-finite
    entry, then a negative entry, then a row whose sum is not 1."""
    if not np.all(np.isfinite(table)):
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(table))[0])
        raise SpecError(f"factor {name}: non-finite entry at {idx}")
    if np.any(table < 0):
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(table)), table.shape))
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


@dataclass(frozen=True, eq=False)
class FactorSpec:
    """A factored input distribution plus encoders and channel.

    The tables are laid out as ``FACTORS`` says.  HK2 stores
    ``u1_given_q_w1`` with the W1 axis constant (built from a (nQ, nU1)
    table).  CMG9 reuses the U axes as copies of the X axes:
    ``u1_given_q_w1`` is the spec's ``x1_given_q_w1`` table and the encoder
    is the identity indicator.  Specs compare by identity, since their
    tables are arrays.
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
        tables = []
        for name, given, of in FACTORS:
            table = getattr(self, name)
            if len(of) > 1:  # one probability vector over the joint outcome
                table = table.reshape(table.shape[:len(given)]
                                      + (math.prod(table.shape[len(given):]),))
            tables.append((name, table, tuple(n[v] for v in given)
                           + (math.prod(n[v] for v in of),)))
        if not _tables_fine(tables):  # the first table at fault raises
            for args in tables:
                _check_rows(*args)
        if self.form is Form.HK2:
            # the stored conditional must not actually depend on W1/W2; every
            # entry is finite here, so one reduction decides it
            for name, w in (("u1_given_q_w1", "w1"), ("u2_given_q_w2", "w2")):
                u = getattr(self, name)
                if np.abs(u - u[:, :1, :]).max() > NORM_TOL:
                    raise SpecError(f"HK2 spec: {name} depends on {w}")


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


@dataclass(frozen=True, eq=False)
class JointDist:
    """Dense joint probability tensor over the nine variables.

    ``entropies`` memoises each marginal entropy on the joint, and
    ``marginal_tensor`` keeps on it the partial sums it shares between
    marginals, both for the joint's lifetime.  So the tensor must not be
    mutated once the joint is built; ``build_joint`` makes it read-only,
    since one joint may be shared by several readers.  A tensor that is not
    C-contiguous is replaced by a read-only C-ordered copy.  Joints compare
    by identity, as specs do.
    """

    alphabets: AlphabetSpec
    tensor: np.ndarray
    _entropies: dict = field(default_factory=lambda: {frozenset(): 0.0},
                             init=False, repr=False)
    _partials: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        t = self.tensor
        if t.shape != self.alphabets.shape:
            raise SpecError("joint tensor shape does not match alphabets")
        if not t.flags.c_contiguous:
            # a marginal's bits follow the memory order NumPy reduces in, so
            # the joint keeps a C-ordered tensor (see marginal_tensor)
            t = np.ascontiguousarray(t)
            t.setflags(write=False)
            object.__setattr__(self, "tensor", t)
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
_JOINT_SUBSCRIPTS = ",".join("".join(_AXES[v] for v in given + of)
                             for _, given, of in FACTORS) + "->" + _AXES
# The one contraction that np.einsum(_JOINT_SUBSCRIPTS, ..., optimize=True)
# makes: every index is in the output, so its path search keeps all eight
# operands in one step, which it passes in reverse order.  Calling that
# step directly gives the same bits without searching.
_JOINT_STEP = ",".join(reversed(_JOINT_SUBSCRIPTS.split("->")[0].split(","))) + "->" + _AXES
# That step multiplies each cell's factors left to right and adds the
# product to a zeroed output.  Its first three operands (channel, x2, x1)
# span all nine axes, so ``build_joint`` contracts them alone, multiplies the
# other five into the result in place, in the same order, and adds 0,
# which turns a -0.0 product into +0.0 as the one step does: each cell gets
# the same bits.
_STEP_FACTORS = FACTORS[::-1]
_JOINT_HEAD = ",".join(_JOINT_STEP.split(",")[:3]) + "->" + _AXES


@functools.cache
def _factor_views(shape: tuple[int, ...]):
    """(transpose, shape) of each factor after the first three of
    ``_JOINT_STEP``, in its order: the transpose puts the table's axes in
    canonical order and the shape broadcasts it over the joint."""
    views = []
    for _, given, of in _STEP_FACTORS[3:]:
        axes = given + of
        views.append((tuple(sorted(range(len(axes)), key=axes.__getitem__)),
                      tuple(n if a in axes else 1 for a, n in enumerate(shape))))
    return tuple(views)


def build_joint(spec: FactorSpec) -> JointDist:
    """Multiply the declared factors into the full nine-variable joint."""
    spec.alphabets.check_joint_size()
    tables = [getattr(spec, name) for name, _, _ in _STEP_FACTORS]
    # the one-step contraction casts every table to their common type
    t = np.einsum(_JOINT_HEAD, *tables[:3], dtype=np.result_type(*tables))
    for table, (axes, shape) in zip(tables[3:], _factor_views(t.shape)):
        t *= table.transpose(axes).reshape(shape)
    t += 0
    t.setflags(write=False)
    return JointDist(spec.alphabets, t)


# The key of the Q-inner copy in ``JointDist._partials`` (``marginal_tensor``).
_Q_INNER = "q-inner"


def marginal_tensor(joint: JointDist, keep: Iterable[Var]) -> np.ndarray:
    """Sum out all axes not in ``keep``; result keeps canonical axis order.

    The result is C-contiguous and has the bits of
    ``joint.tensor.sum(axis=drop)``, with less work.  NumPy reduces a
    C-contiguous tensor in C order: it sums the innermost coalesced block
    of reduced axes pairwise and adds each block sum to the accumulator in
    turn, and its iterator squeezes out axes of size 1.  So the trailing
    block, the dropped axes of the maximal suffix of axes that are dropped
    or have size 1, can be summed first (keeping dims) and the rest reduced
    from that partial sum in the same order.  Each partial is made once per
    joint, kept on it, and shared by every marginal with the same trailing
    block.  When that suffix is empty or holds every dropped axis, the
    tensor is reduced once.

    When the trailing block is empty or only the last axis, every cell of
    the remaining reduction is a sequential sum over the dropped axes in C
    order, and moving a kept axis in memory changes no cell's sequence.
    So when Q is kept and has more than one entry, the marginal is reduced
    from a read-only copy with Q moved just before the last axis, where the
    kept axes coalesce into longer inner loops; the copy is made once per
    joint and kept with the partials.  The plan, which axes to drop, which
    to sum first and whether to read the copy, depends only on the keep set
    and the shape, so it is made once for each pair (``_marginal_plan``).
    """
    keep = frozenset(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    t = joint.tensor
    drop, tail, q_inner = _marginal_plan(keep, t.shape)
    partials = joint._partials
    if q_inner:
        if _Q_INNER not in partials:
            partials[_Q_INNER] = _q_inner_copy(t)
        t = partials[_Q_INNER]
    if tail:
        key = (_Q_INNER, tail) if q_inner else tail
        if key not in partials:
            partials[key] = _partial_sum(t, tail)
        t = partials[key]
    return np.ascontiguousarray(np.add.reduce(t, axis=drop))


@functools.cache
def _marginal_plan(keep: frozenset, shape: tuple[int, ...]):
    """(drop, tail, q_inner) of ``marginal_tensor``: the dropped axes, the
    trailing block summed first, or () when the tensor is reduced once, and
    whether to reduce from the Q-inner copy.  Made once per keep set and
    shape, so at most 511 per shape."""
    drop = tuple(a for a in range(len(shape)) if a not in keep)
    start = len(shape)
    while start and (start - 1 not in keep or shape[start - 1] == 1):
        start -= 1
    tail = tuple(a for a in drop if a >= start)
    q_inner = Var.Q in keep and shape[Var.Q] > 1 and tail in ((), (len(shape) - 1,))
    return drop, () if tail == drop else tail, q_inner


# The axes of the Q-inner copy in memory order, Q just before the last
# one, and the transpose that views it back in canonical order.
_Q_INNER_AXES = (*(v for v in VARS[:-1] if v is not Var.Q), Var.Q, VARS[-1])
_CANONICAL_AXES = tuple(_Q_INNER_AXES.index(a) for a in range(len(VARS)))


def _q_inner_copy(t: np.ndarray) -> np.ndarray:
    """A read-only C-ordered copy of ``t`` with the Q axis moved just
    before the last one, viewed back in canonical axis order."""
    copy = np.ascontiguousarray(t.transpose(_Q_INNER_AXES))
    copy.setflags(write=False)
    return copy.transpose(_CANONICAL_AXES)


def _partial_sum(t: np.ndarray, tail: tuple[int, ...]) -> np.ndarray:
    """``t.sum(axis=tail, keepdims=True)`` as ``marginal_tensor`` reads it.

    A sum over the last axis alone with fewer than 8 entries is the in-order
    sum of its slices, ((a0 + a1) + a2) + a3: NumPy's pairwise summation adds
    fewer than 8 entries one by one, so every cell has the same bits, while
    each slice is added in one long inner loop.  A cell whose entries are
    all -0.0 sums to -0.0 here and to +0.0 in NumPy; the reduction that
    reads the partial starts from +0.0, so no marginal sees the sign.
    """
    n = t.shape[-1]
    if tail != (t.ndim - 1,) or not 2 <= n < 8:
        return np.add.reduce(t, axis=tail, keepdims=True)
    s = t[..., 0] + t[..., 1]
    for i in range(2, n):
        s += t[..., i]
    return s[..., np.newaxis]


def entropy(joint: JointDist, A: Iterable[Var]) -> float:
    """Shannon entropy H(A) in bits, with 0 log 0 := 0 and H() = 0,
    memoised on the joint (``entropies``)."""
    return entropies(joint, (frozenset(A),))[0]


def entropies(joint: JointDist, keys) -> list[float]:
    """H(A) in bits of each variable set A in ``keys``, a sequence of
    frozensets, in order, with 0 log 0 := 0 and H() = 0.

    Each value is memoised on the joint, which holds H() = 0 from the
    start.  The marginals not in the memo (``marginal_tensor``) are joined
    in one array, shortest first, and -p log2 p is taken of all their
    positive entries at once.  Each entropy is minus the sum of its own
    slice, k slices of one length n summed as the rows of a (k, n) view.
    log2 and the product work entry by entry, and NumPy sums a row along
    the last axis pairwise, as it sums a 1-D array of that length, so each
    value has the bits of ``-(p * np.log2(p)).sum()`` over its marginal."""
    memo = joint._entropies
    new = [A for A in dict.fromkeys(keys) if A not in memo]
    if new:
        p = [marginal_tensor(joint, A) for A in new]
        sizes = [x.size for x in p]
        order = sorted(range(len(new)), key=sizes.__getitem__)
        new, sizes = [new[i] for i in order], [sizes[i] for i in order]
        p = np.concatenate([p[i] for i in order], axis=None)
        positive = p > 0
        if not positive.all():
            ends = np.cumsum(positive)[np.cumsum(sizes) - 1]
            sizes = np.diff(ends, prepend=0).tolist()
            p = p[positive]
        p = p * np.log2(p)
        sums, start = [], 0
        for n, run in itertools.groupby(sizes):
            k = len(list(run))
            sums += np.add.reduce(p[start:start + k * n].reshape(k, n), axis=1).tolist()
            start += k * n
        memo.update(zip(new, [-s for s in sums]))
    return list(map(memo.__getitem__, keys))


def mutual_info(h_ac: float, h_bc: float, h_abc: float, h_c: float) -> float:
    """I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C) from its four entropies;
    tiny negative round-off is clamped to 0."""
    val = h_ac + h_bc - h_abc - h_c
    if val < 0:
        if val < -1e-12:
            raise ArithmeticError(f"conditional MI evaluated to {val}")
        val = 0.0
    return val


def cond_mutual_info(joint: JointDist, A, B, C=()) -> float:
    """I(A;B|C) in bits; tiny negative round-off is clamped to 0."""
    keys = entropy_keys(frozenset(A), frozenset(B), frozenset(C))
    return mutual_info(*entropies(joint, keys))


@functools.cache
def entropy_keys(A: frozenset, B: frozenset, C: frozenset):
    """The four entropy keys of I(A;B|C), made once per (A, B, C); a bad
    triple raises on every call, since an exception is never cached."""
    if not A or not B:
        raise ValueError("A and B must be nonempty")
    if A & B or A & C or B & C:
        raise ValueError("A, B, C must be pairwise disjoint")
    return A | C, B | C, A | B | C, C


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
