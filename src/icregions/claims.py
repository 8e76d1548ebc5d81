"""Batch verification of the region-comparison claims on sampled specs.

Every report is reproducible bit-for-bit from (claim id, seed, n): sample
``i`` uses the generator seed ``[seed, i]``.  Hard claims contribute to the
verify exit code; exploratory reports never do (they cover statements that
are only meaningful for unions over all input distributions, which a
per-distribution harness cannot decide).

The harness runs sample-major: every requested claim checks sample ``i``
before any claim checks sample ``i + 1``.  So the spec drawn in a form for
``[seed, i]`` is one ``_Sample`` record, read by every claim that asks for
it (``_sample``, which keeps the last three draws): its joint, term
values, binding and bound regions are each made once, on first use.
``run_all(n, seed)`` draws 3n specs, not 7n, and holds at most three.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .dist import Form, Var, build_joint, cond_mutual_info, spec_to_json
from .linsys import AXIOMS_HK_INDEP, derive_region, prune_redundant, \
    substitute_zero, system_equal
from .polytope import DEFAULT_EPS, HPoly, bind, contains, poly_equal, snap_terms
from .regions import build_system, hk_r_with_redundant
from .sampler import binary_alphabets, sample_spec
from .terms import COMPOSITE_EXPANSION, TERMS, eval_terms

F = Fraction


@dataclass(frozen=True)
class Claim:
    """A registered claim.  ``form`` is the form its samples are drawn in,
    None for a claim that takes no samples; ``check`` is then called once
    as ``check(rep)`` and adds the report's records itself.  A ``strict``
    claim records a given spec of another form as a failure without
    checking it, and ``note`` is appended once when any sample failed."""

    hard: bool
    form: Form | None
    tolerance: str
    check: Callable
    strict: bool = False
    note: str | None = None


# claim id -> Claim, filled by ``_claim`` in the order the checks are
# defined below: hard claims first.
CLAIMS = {}


# slots: a caller that keeps many one-sample reports keeps each one small
@dataclass(slots=True)
class ClaimReport:
    claim_id: str
    seed: int
    n: int
    tolerance: str
    samples: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def hard(self) -> bool:
        return CLAIMS[self.claim_id].hard

    def add(self, index: int, ok: bool | None, witness: dict, spec=None):
        rec = {"index": index, "ok": ok, **witness}
        if ok is False and spec is not None:
            rec["spec"] = spec_to_json(spec)
        self.samples.append(rec)

    @property
    def passed(self) -> int:
        return sum(1 for s in self.samples if s["ok"] is True)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s["ok"] is False)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "claim": self.claim_id,
            "seed": self.seed,
            "n": self.n,
            "tolerance": self.tolerance,
            "hard": self.hard,
            "passed": self.passed,
            "failed": self.failed,
            "ok": self.ok,
            "notes": self.notes,
            "samples": self.samples,
        }


def _claim(claim_id: str, hard: bool, form: Form | None = None,
           tolerance: str = "exact", **options):
    """Enter the decorated check in ``CLAIMS`` as ``claim_id``'s ``Claim``;
    the name it is defined under becomes the claim's report function,
    ``run_claim`` with ``claim_id`` bound."""
    def register(check):
        CLAIMS[claim_id] = Claim(hard, form, tolerance, check, **options)
        return functools.partial(run_claim, claim_id)
    return register


def run_claim(claim_id: str, n: int = 0, seed: int = 0, specs=None) -> ClaimReport:
    """The report of ``claim_id`` on ``n`` samples drawn at ``seed``, or on
    ``specs[:n]`` when specs are given.  A claim that takes no samples
    ignores n and seed and reports both as 0."""
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}")
    return _run((claim_id,), n, seed, specs)[0]


def run_all(n: int, seed: int) -> dict:
    """Every claim's report at one seed; the claims share their samples."""
    reports = _run(ALL_CLAIMS, n, seed)
    hard_ok = all(r.ok for r in reports if r.hard)
    return {"ok": hard_ok, "reports": [r.to_json() for r in reports]}


def _run(claim_ids, n, seed, specs=None) -> list:
    """The reports of ``claim_ids``, in order, checked sample-major.

    Sample ``i`` is ``specs[i]`` when specs are given, one ``_Sample``
    that every claim reads, else the spec drawn in the claim's form for
    ``[seed, i]`` (``_sample``).  ``check(rep, i, sample)`` returns (ok,
    witness), and a failed sample carries its spec.  An ``n`` or ``seed``
    that is not a nonnegative ``int`` (``bool`` included) is refused with
    a ``ValueError``."""
    for name, value in (("n", n), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"{name} must be a nonnegative int, got {value!r}")
    reports, sampled = [], []
    for claim_id in claim_ids:
        claim = CLAIMS[claim_id]
        if claim.form is None:
            rep = ClaimReport(claim_id, 0, 0, claim.tolerance)
            claim.check(rep)
        else:
            rep = ClaimReport(claim_id, seed, n, claim.tolerance)
            sampled.append((rep, claim))
        reports.append(rep)
    for i in range(n if sampled else 0):
        given = None if specs is None else _Sample(specs[i])
        for rep, claim in sampled:
            sample = _sample(claim.form, seed, i) if given is None else given
            if given is not None and claim.strict and given.spec.form is not claim.form:
                rep.add(i, False, {"form_violation": given.spec.form.value})
                continue
            ok, witness = claim.check(rep, i, sample)
            rep.add(i, ok, witness, sample.spec)
    for rep, claim in sampled:
        if claim.note and rep.failed:
            rep.notes.append(claim.note)
    return reports


class _Sample:
    """One sample's spec and what the claims that check it read, each made
    on first use and kept: the joint, the term values, their binding and
    each system bound at it (a bound 2-D region keeps its clip ring).

    All of it depends on the spec alone and is read-only, so sharing it
    changes no output.  The term values are kept with the ``TERMS``
    definitions they were evaluated under; when those change, the values
    are evaluated again and the binding and bound systems made anew."""

    __slots__ = ("spec", "_joint", "_defs", "_terms", "_binding", "_bound")

    def __init__(self, spec):
        self.spec, self._joint, self._defs = spec, None, None

    @property
    def joint(self):
        if self._joint is None:
            self._joint = build_joint(self.spec)
        return self._joint

    def terms(self) -> dict:
        """All term values, by ``eval_terms`` on the joint."""
        defs = tuple(TERMS.items())
        if defs != self._defs:
            self._defs, self._terms = defs, eval_terms(self.joint)
            self._binding, self._bound = None, []
        return self._terms

    def bound(self, system) -> HPoly:
        """``system`` bound at the snapped term values; a system is looked
        up by identity, as ``build_system`` hands out one object per id."""
        terms = self.terms()
        for known, poly in self._bound:
            if known is system:
                return poly
        if self._binding is None:
            self._binding = snap_terms(terms)
        poly = bind(system, self._binding)
        self._bound.append((system, poly))
        return poly


@functools.lru_cache(maxsize=3)
def _sample(form: Form, seed: int, i: int) -> _Sample:
    """The record of the spec drawn in ``form`` for ``[seed, i]`` on binary
    alphabets, shared by every claim that checks that sample.

    The draw depends on (form, seed, i) alone.  The claims draw in three
    forms, and the harness runs sample-major, so the last three draws are
    all that sample ``i`` needs: ``run_all`` makes each draw once, and so
    does a caller that runs the claims one at a time on one sample, as
    ``run_claim(c, 1, s)``.  What a record holds goes with it when it
    leaves the memo."""
    return _Sample(sample_spec(binary_alphabets(), form, [seed, i]))


# Witness key of each composite's growth over its base term ("B1-b1", ...),
# made once so that every report shares the key strings.
_GROWTH = {f"{comp}-{base}": (comp, base)
           for comp, (base, _) in COMPOSITE_EXPANSION.items()}


def _growth(tv) -> dict:
    return {key: tv[comp] - tv[base] for key, (comp, base) in _GROWTH.items()}


@_claim("reduction-independence", True, Form.HK2,
        "rho<=1e-12, composite gaps<=1e-9, polytopes at 2^-30", strict=True)
def claim_reduction_independence(rep, i, sample):
    """Independent U_i, W_i: the composite bounds collapse (B=b, C=c, F=f)
    and the correlated-form region equals the HK region."""
    tv = sample.terms()
    gaps = {"rho1": tv["rho1"], "rho2": tv["rho2"], **_growth(tv)}
    terms_ok = (tv["rho1"] <= 1e-12 and tv["rho2"] <= 1e-12
                and all(abs(v) <= 1e-9 for v in gaps.values()))
    poly_ok = poly_equal(sample.bound(build_system("HOD_R")),
                         sample.bound(build_system("HK_R")), DEFAULT_EPS)
    return (terms_ok and poly_ok,
            {"terms_ok": terms_ok, "polytopes_equal": poly_ok, **gaps})


@_claim("redundancy-relations", True, Form.HK2, "slack>=-1e-9, polytopes at eps=0")
def claim_redundancy_relations(rep, i, sample):
    """The two conditioning relations behind the redundancy of the two
    extra sum-rate inequalities, plus the polytope-level redundancy."""
    joint, tv = sample.joint, sample.terms()
    # relation (I(Y;U|Q) <= I(Y;U|QW)) per receiver
    slack6 = {
        side: cond_mutual_info(joint, {y}, {u}, {Var.Q, w})
        - cond_mutual_info(joint, {y}, {u}, {Var.Q})
        for side, y, u, w in (("side1", Var.Y1, Var.U1, Var.W1),
                              ("side2", Var.Y2, Var.U2, Var.W2))
    }
    slack7 = {
        side: tv[f"e{s}"] + tv[f"f{s}"] - tv[f"c{s}"] - tv[f"g{s}"]
        for s, side in ((1, "side1"), (2, "side2"))
    }
    if sample.spec.form is not Form.HK2:
        rep.notes.append(
            f"sample {i}: form {sample.spec.form.value} is out of contract; the "
            "conditioning relations may legitimately fail there")
        return None, {"slack6": slack6, "slack7": slack7, "out_of_contract": True}
    slack_ok = all(v >= -1e-9 for v in (*slack6.values(), *slack7.values()))
    poly_ok = poly_equal(sample.bound(build_system("HK_R")),
                         sample.bound(hk_r_with_redundant()), F(0))
    return (slack_ok and poly_ok,
            {"slack6": slack6, "slack7": slack7, "polytopes_equal": poly_ok})


@_claim(
    "cmg-subset-hod", True, Form.CMG9, "eps=2^-30", strict=True,
    note="the containment is a statement about unions over all input "
    "distributions; per-distribution counterexamples occur when the "
    "re-expressed common-rate bound I(X_i;W_i|Q) is smaller than the "
    "T-rate range the superposition region leaves unbounded")
def claim_cmg_subset_hod(rep, i, sample):
    """Containment of the superposition quadruple region in the correlated
    quadruple region of the re-expressed spec (a one-row dual bound per
    constraint, and the exact LP for the constraints it leaves).

    ``cmg_as_hod`` keeps every table, so the re-expressed spec has the same
    joint tensor and both regions bind the same terms."""
    tv = sample.terms()
    ok = contains(sample.bound(build_system("HOD_Q")),
                  sample.bound(build_system("CMG_Q")), DEFAULT_EPS)
    witness = {k: tv[k] for k in ("rho1", "rho2", "B1", "C1", "B2", "C2",
                                  "d1", "d2", "e1", "e2")}
    if tv["rho1"] <= 1e-12 and tv["rho2"] <= 1e-12:
        witness["rho_zero_equality_case"] = True
    return ok, witness


@_claim("hod-extra-terms", True, Form.HOD16, "1e-9")
def claim_hod_extra_terms(rep, i, sample):
    """Every T-rate bound grows by exactly the correlation penalty while the
    S-involving bounds are unchanged relative to the independent formulas.

    Each composite and S-bound is checked against chain-rule forms that
    ``eval_terms`` does not compute, so a wrong term definition shows.  The
    composites use (U_i, W_i) independent of W_j given Q."""
    tv = sample.terms()
    I = functools.partial(cond_mutual_info, sample.joint)  # noqa: E741
    Q, ok = Var.Q, True
    for s, o in ((1, 2), (2, 1)):
        Y, U, W, Wo = Var[f"Y{s}"], Var[f"U{s}"], Var[f"W{s}"], Var[f"W{o}"]
        f_form = I({Y, U}, {W, Wo}, {Q})
        d_form = tv[f"a{s}"] + I({Y}, {W}, {Wo, Q})
        want = {
            f"B{s}": I({Y, U}, {W}, {Wo, Q}),
            f"C{s}": f_form - I({Y}, {W}, {U, Q}),
            f"F{s}": f_form,
            f"d{s}": d_form,
            f"e{s}": tv[f"a{s}"] + I({Y}, {Wo}, {W, Q}),
            f"g{s}": d_form + I({Y}, {Wo}, {Q}),
        }
        ok &= all(abs(tv[k] - v) <= 1e-9 for k, v in want.items())
    return ok, {"rho1": tv["rho1"], "rho2": tv["rho2"], **_growth(tv)}


@_claim("fm-reproduction", True)
def claim_fm_reproduction(rep):
    """Purely symbolic: the elimination pipeline reproduces the golden
    systems, and the superposition/HK rate-pair systems differ exactly in
    the two cross bounds.  Takes no samples."""
    cases = [
        ("hk->11", derive_region("hk", "chain"), hk_r_with_redundant()),
        ("hk->9", derive_region("hk", "hk-indep"), build_system("HK_R")),
        ("hk-mod->13", derive_region("hk-mod", "hk-indep"),
         build_system("HK_R_MODIFIED")),
        ("cmg->9", derive_region("cmg", "chain"), build_system("CMG_R")),
        ("hod->13", derive_region("hod", "chain"), build_system("HOD_R")),
    ]
    for idx, (name, got, want) in enumerate(cases):
        eq, diff = system_equal(got, want)
        rep.add(idx, bool(eq),
                {"case": name, "derived": len(got.inequalities),
                 "golden": len(want.inequalities),
                 "diff": _diff_json(diff)})
    eq, diff = system_equal(build_system("CMG_R"), build_system("HK_R"))
    expected = {
        "only_a": {"R1<=a1+e2", "R2<=a2+e1"},
        "only_b": {"R1<=a1+c2", "R2<=a2+c1"},
    }
    got_diff = {k: set(_ineq_str(i) for i in v) for k, v in diff.items()}
    rep.add(len(cases), bool(not eq and got_diff == expected),
            {"case": "cmg-vs-hk-diff", "diff": _diff_json(diff)})
    # the correlated rate-pair system at rho=0 prunes to the HK system
    hod0 = substitute_zero(build_system("HOD_R"), {"rho1", "rho2"})
    eq, diff = system_equal(prune_redundant(hod0, AXIOMS_HK_INDEP),
                            build_system("HK_R"))
    rep.add(len(cases) + 1, bool(eq),
            {"case": "hod-rho0->hk", "diff": _diff_json(diff)})


@_claim("compact-equivalence", False, Form.HK2, "eps=0")
def compact_equivalence_report(rep, i, sample):
    """Exploratory: containments around the seven-inequality description.

    The forced directions (dropping constraints only enlarges) are checked;
    the reverse direction is recorded as data because the equivalence is a
    statement about unions over distributions.  Each sample pairs its HK2
    spec with the CMG9 spec drawn for the same ``[seed, i]``, the draw that
    ``cmg-subset-hod`` shares, also when the HK2 specs are given."""
    compact, witness = build_system("COMPACT_R"), {}
    for region_id, on, inside, outside in (
            ("HK_R", sample, "hk_in_compact", "compact_in_hk"),
            ("CMG_R", _sample(Form.CMG9, rep.seed, i), "cmg_in_compact", "compact_in_cmg")):
        region, comp = on.bound(build_system(region_id)), on.bound(compact)
        witness[inside] = contains(comp, region, F(0))
        witness[outside] = contains(region, comp, F(0))
    return witness["hk_in_compact"] and witness["cmg_in_compact"], witness


@_claim("remark2-data", False, Form.HK2, "data only")
def remark2_report(rep, i, sample):
    """Exploratory: per-sample term relations used informally in the
    equivalence argument for the seven-inequality description."""
    tv = sample.terms()
    return None, {
        "e1<=a1+c1": bool(tv["e1"] <= tv["a1"] + tv["c1"] + 1e-9),
        "e2<=a2+c2": bool(tv["e2"] <= tv["a2"] + tv["c2"] + 1e-9),
        "e1-a1-c1": tv["e1"] - tv["a1"] - tv["c1"],
        "e2-a2-c2": tv["e2"] - tv["a2"] - tv["c2"],
        "a1+c2_vs_e1+e2": tv["a1"] + tv["c2"] - tv["e1"] - tv["e2"],
        "a2+c1_vs_e1+e2": tv["a2"] + tv["c1"] - tv["e1"] - tv["e2"],
    }


ALL_CLAIMS = tuple(CLAIMS)
HARD_CLAIMS = tuple(c for c, claim in CLAIMS.items() if claim.hard)


def _ineq_str(ineq) -> str:
    lhs = "+".join(f"{'' if v == 1 else v}{k}" for k, v in ineq.lhs)
    rhs = "+".join(f"{'' if v == 1 else v}{k}" for k, v in ineq.rhs.coeffs)
    return f"{lhs}<={rhs}"


def _diff_json(diff: dict) -> dict:
    return {k: [_ineq_str(i) for i in v] for k, v in diff.items()}
