"""The named information terms of the two-user rate regions.

Receiver 1 sees Y1 and cares about (U1, W1) plus the interfering common
message W2; receiver 2 symmetrically.  The seven per-receiver terms are the
conditional mutual informations

    a_i  I(Y_i; U_i | W_1 W_2 Q)        d_i  I(Y_i; U_i W_i | W_j Q)
    b_i  I(Y_i; W_i | U_i W_j Q)        e_i  I(Y_i; U_i W_j | W_i Q)
    c_i  I(Y_i; W_j | U_i W_i Q)        f_i  I(Y_i; W_1 W_2 | U_i Q)
    g_i  I(Y_i; U_i W_1 W_2 | Q)

with j the other index.  The correlation penalty rho_i = I(U_i; W_i | Q)
produces the composite bounds B_i = b_i + rho_i, C_i = c_i + rho_i,
F_i = f_i + rho_i that replace b, c, f when U_i and W_i are allowed to be
correlated given Q.  ``TERMS`` is the one place these definitions are
written (Chong, Motani, Garg and El Gamal, IEEE Trans. IT 54(7), 2008).
"""

from __future__ import annotations

from .dist import JointDist, Var, cond_mutual_info

# The seven shapes above as (B, C) of I(Y_i; B | C Q), spelled in u = U_i,
# w = W_i and v = W_j.
_SHAPES = {"a": ("u", "wv"), "b": ("w", "uv"), "c": ("v", "uw"),
           "d": ("uw", "v"), "e": ("uv", "w"), "f": ("wv", "u"), "g": ("uwv", "")}


def _receiver(i: int, j: int) -> dict:
    var = {"u": Var[f"U{i}"], "w": Var[f"W{i}"], "v": Var[f"W{j}"]}
    return {f"{name}{i}": (frozenset({Var[f"Y{i}"]}), frozenset(var[c] for c in b),
                           frozenset(var[c] for c in cond) | {Var.Q})
            for name, (b, cond) in _SHAPES.items()}


# base symbol -> (A, B, C) of its I(A; B | C), in the order a1..g1, a2..g2,
# rho1, rho2 (the column order of the symbolic pruning LP).
TERMS = {
    **_receiver(1, 2),
    **_receiver(2, 1),
    **{f"rho{i}": (frozenset({Var[f"U{i}"]}), frozenset({Var[f"W{i}"]}),
                   frozenset({Var.Q})) for i in (1, 2)},
}
BASE_SYMBOLS = tuple(TERMS)

# Composite symbol -> (base symbol, rho symbol); the expansion basis for all
# exact symbolic work.
COMPOSITE_EXPANSION = {f"{comp}{i}": (f"{comp.lower()}{i}", f"rho{i}")
                       for i in (1, 2) for comp in "BCF"}
COMPOSITE_SYMBOLS = tuple(COMPOSITE_EXPANSION)
ALL_SYMBOLS = BASE_SYMBOLS + COMPOSITE_SYMBOLS


# base symbol -> the symbols whose value reads it: itself and the
# composites it is part of.
_READ_BY = {base: {base} | {comp for comp, pair in COMPOSITE_EXPANSION.items()
                            if base in pair} for base in BASE_SYMBOLS}


def eval_terms(joint: JointDist, symbols=ALL_SYMBOLS) -> dict[str, float]:
    """Evaluate the named term symbols (by default all 22), in bits, from
    the full joint, in ``ALL_SYMBOLS`` order.

    Only the base terms the symbols read are evaluated (a composite reads
    its base and rho); their marginals share the partial sums that the
    joint keeps (``dist.marginal_tensor``).
    """
    symbols = set(symbols)
    if unknown := symbols.difference(_READ_BY, COMPOSITE_EXPANSION):
        raise ValueError(f"unknown term symbols: {sorted(unknown)}")
    t = {sym: cond_mutual_info(joint, *abc) for sym, abc in TERMS.items()
         if not symbols.isdisjoint(_READ_BY[sym])}
    for comp, (base, rho) in COMPOSITE_EXPANSION.items():
        if comp in symbols:
            t[comp] = t[base] + t[rho]
    return t if len(t) == len(symbols) else {s: v for s, v in t.items() if s in symbols}


def _x_form(sym: str):
    """The term with (U_i, W_i) in B replaced by X_i."""
    a, b, c = TERMS[sym]
    i = sym[-1]
    return a, b - {Var[f"U{i}"], Var[f"W{i}"]} | {Var[f"X{i}"]}, c


# The eight identities tying the U-form and X-form of the superposition
# region's terms: name -> ((A, B-with-U, C), (A, B-with-X, C)).
_CMG_IDENTITIES = {sym: (TERMS[sym], _x_form(sym))
                   for sym in ("a1", "d1", "e1", "g1", "a2", "d2", "e2", "g2")}


def cmg_identity_report(joint: JointDist) -> dict:
    """Both sides of the eight U-vs-X term identities, with differences.

    Under the CMG representation (U axes are copies of the X axes) every
    difference must vanish to ~1e-10.
    """
    rows = {}
    worst = 0.0
    for name, (u_form, x_form) in _CMG_IDENTITIES.items():
        lhs = cond_mutual_info(joint, *u_form)
        rhs = cond_mutual_info(joint, *x_form)
        diff = abs(lhs - rhs)
        worst = max(worst, diff)
        rows[name] = {"u_form": lhs, "x_form": rhs, "abs_diff": diff}
    return {"identities": rows, "max_abs_diff": worst, "ok": bool(worst <= 1e-10)}
