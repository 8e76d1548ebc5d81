"""Command-line front end.

Subcommands: terms, region, derive, verify, search, project.  All outputs
are deterministic given identical inputs and seeds.  Exit codes: 0 success,
1 hard-claim failure (verify), 2 invalid spec file or usage, 3 region/form mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .claims import ALL_CLAIMS, run_all, run_claim
from .dist import SpecError, Var, build_joint, load_spec, spec_to_json
from .linsys import (AXIOM_SETS, QUADRUPLE_SYSTEMS, derive_region,
                     system_from_json, system_to_json)
from .linsys import _frac_to_obj as _frac
from .polytope import (HPoly, bind, fm_eliminate_numeric, snap_terms,
                       vertices2)
from .regions import FormMismatchError, region_for
from .sampler import SearchConfig, binary_alphabets, improvement_search
from .terms import eval_terms

_REGION_BY_NAME = {
    "hk": "HK_R", "cmg": "CMG_R", "hod": "HOD_R", "compact": "COMPACT_R",
}


class UsageError(ValueError):
    """A command-line argument the command cannot use (exit 2)."""


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_terms(args) -> int:
    spec = load_spec(args.spec)
    tv = eval_terms(build_joint(spec))
    _write_json(args.out, tv)
    return 0


def _cmd_region(args) -> int:
    spec = load_spec(args.spec)
    poly = region_for(spec, _REGION_BY_NAME[args.which])
    with open(args.emit, "w") as fh:
        fh.write("R1,R2\n")
        for v in vertices2(poly):
            fh.write(f"{float(v[0]):.12g},{float(v[1]):.12g}\n")
    if args.out:
        _write_json(args.out, _poly_json(poly))
    return 0


def _cmd_derive(args) -> int:
    system = derive_region(args.system, args.axioms)
    _write_json(args.out, system_to_json(system))
    return 0


def _cmd_verify(args) -> int:
    if args.claim == "all":
        result = run_all(args.samples, args.seed)
        _write_json(args.out, result)
        return 0 if result["ok"] else 1
    rep = run_claim(args.claim, args.samples, args.seed)
    _write_json(args.out, rep.to_json())
    return 0 if (rep.ok or not rep.hard) else 1


def _cmd_search(args) -> int:
    cfg = SearchConfig(alphabets=_parse_alphabets(args.alphabets),
                       budget=args.budget, restarts=args.restarts,
                       step=args.step, seed=args.seed,
                       objective=args.objective)
    res = improvement_search(cfg)
    _write_json(args.out, {
        "objective_id": cfg.objective,
        "objective": _frac(Fraction(res.objective)),
        "objective_float": float(res.objective),
        "restart": res.restart,
        "trace": res.trace,
        "hod_vertices": [[_frac(a), _frac(b)] for a, b in res.hod_vertices],
        "hk_vertices": [[_frac(a), _frac(b)] for a, b in res.hk_vertices],
        "best_spec": spec_to_json(res.best_spec),
        "baseline": "HK region of the independence projection of best_spec",
    })
    return 0


def _cmd_project(args) -> int:
    system = _load_system(args.system)
    binding = _load_terms(args.terms) if args.terms else {}
    try:
        poly = bind(system, binding)
        for v in args.eliminate.split(","):
            poly = fm_eliminate_numeric(poly, v.strip())
    except ValueError as exc:  # an unbound term, unknown variable or empty projection
        raise UsageError(str(exc)) from None
    _write_json(args.out, _poly_json(poly))
    return 0


def _load_system(path: str):
    """A system JSON, checked by ``system_from_json``."""
    try:
        with open(path) as fh:
            system = system_from_json(json.load(fh))
    except (LookupError, TypeError, AttributeError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"--system is not a system JSON: {exc!r}") from None
    return system


def _load_terms(path: str) -> dict:
    """The snapped binding of a terms JSON, each value checked by ``snap_terms``."""
    with open(path) as fh:
        try:
            terms = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise UsageError(f"--terms is not JSON: {exc}") from None
    if not isinstance(terms, dict):
        raise UsageError("--terms must be a JSON object of term values")
    try:
        return snap_terms(terms)
    except ValueError as exc:  # not a number, not finite or too large
        raise UsageError(f"--terms {exc}") from None


def _poly_json(poly: HPoly) -> dict:
    return {
        "dims": list(poly.dims),
        "rows": [{"coeffs": [_frac(c) for c in coeffs], "rhs": _frac(rhs)}
                 for coeffs, rhs in poly.rows],
        "implicit": "all coordinates nonnegative",
    }


def _parse_alphabets(text: str):
    overrides = {}
    for part in text.split(","):
        key, _, val = part.strip().partition("=")
        try:
            n = int(val)
        except ValueError:
            raise UsageError(f"bad alphabet item {part!r}, expected name=size") from None
        key = key.strip().upper()
        if key in ("U", "W", "X", "Y"):
            overrides[f"{key}1"] = n
            overrides[f"{key}2"] = n
        elif key in Var.__members__:
            overrides[key] = n
        else:
            raise UsageError(f"unknown alphabet name {key!r}")
    return binary_alphabets(**overrides)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="icregions")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("terms", help="evaluate the 22 information terms")
    t.add_argument("--spec", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(func=_cmd_terms)

    r = sub.add_parser("region", help="rate-pair region vertices of a spec")
    r.add_argument("--spec", required=True)
    r.add_argument("--which", required=True, choices=sorted(_REGION_BY_NAME))
    r.add_argument("--emit", required=True, help="vertex CSV path")
    r.add_argument("--out", help="optional H-representation JSON path")
    r.set_defaults(func=_cmd_region)

    d = sub.add_parser("derive", help="symbolic Fourier-Motzkin derivation")
    d.add_argument("--system", required=True,
                   choices=tuple(QUADRUPLE_SYSTEMS))
    d.add_argument("--axioms", default="chain", choices=sorted(AXIOM_SETS))
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_derive)

    v = sub.add_parser("verify", help="run the claim harness")
    v.add_argument("--claim", default="all", choices=("all",) + ALL_CLAIMS)
    v.add_argument("--samples", type=int, default=100)
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--out", required=True)
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("search", help="search for a correlated-gain example")
    s.add_argument("--alphabets", default="q=2,u=2,w=2,x=2,y=2")
    s.add_argument("--budget", type=int, default=100)
    s.add_argument("--restarts", type=int, default=4)
    s.add_argument("--step", type=float, default=0.25)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--objective", default="area", choices=("area", "sumrate"))
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_search)

    j = sub.add_parser("project", help="numeric projection of a system JSON")
    j.add_argument("--system", required=True)
    j.add_argument("--terms", help="terms JSON to bind before projecting")
    j.add_argument("--eliminate", required=True,
                   help="comma-separated variables to eliminate")
    j.add_argument("--out", required=True)
    j.set_defaults(func=_cmd_project)
    return p


# smallest accepted value of each integer argument (--step lies in (0, 1))
_MINIMUM = {"seed": 0, "samples": 0, "budget": 1, "restarts": 1}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, low in _MINIMUM.items():
            if getattr(args, name, low) < low:
                raise UsageError(f"--{name} must be >= {low}, not {getattr(args, name)}")
        if not 0 < getattr(args, "step", 0.5) < 1:
            raise UsageError(f"--step must be in (0, 1), not {args.step}")
        return args.func(args)
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FormMismatchError as exc:
        print(f"form mismatch: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a file that cannot be read or written
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
