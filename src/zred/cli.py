"""Command line front end.

Text output by default, stable JSON with --json: forms as arrays of
decimal strings, quotient strings as arrays of integers, binary strings
as plain strings.  Exit codes: 0 success, 1 failed verification, 2 usage,
3 precondition violation, 4 internal invariant breakage.

Negative coefficients parse as plain signed decimals; use `--` before
them if your shell or the option parser complains, e.g.
`zred gamma -- 1 3 -2`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from .contfrac import cf_expand, denjoy_surd, neg_cf_surd, reg_cf_surd, surd
from .forms import Form, form, form_to_json
from .maps import beta, denjoy_period, gamma, mu, sigma, tau, xi
from .oracle import SUITE_IDS, verify
from .pell import fundamental_solution
from .reduction import cycles, orbit_to_cycle, z_caliber


class Result(NamedTuple):
    text: str
    payload: object
    code: int = 0


def _render(value) -> Result:
    # forms print as (a, b, c), quotient strings comma separated, and
    # binary strings and counts as they are
    if isinstance(value, Form):
        return Result(str(value), form_to_json(value))
    if isinstance(value, tuple):
        return Result(",".join(map(str, value)), list(value))
    return Result(str(value), value)


def _on_form(fn):
    return lambda args: _render(fn(form(args.a, args.b, args.c)))


def _on_beads(fn):
    def handler(args):
        # an empty field between commas is a missing bead, not a shorter string
        fields = args.entries.split(",")
        for i, field in enumerate(fields, 1):
            if len(fields) > 1 and not field.strip():
                raise ValueError(f"entry {i} of {args.entries!r} is empty")
        return _render(fn(" ".join(fields).split()))
    return handler


def _add_form_args(sub) -> None:
    sub.add_argument("a", type=int)
    sub.add_argument("b", type=int)
    sub.add_argument("c", type=int)


def _cmd_pell(args) -> Result:
    sol = fundamental_solution(args.delta)
    return Result(str(sol),
                  {"t": str(sol.t), "u": str(sol.u), "epsilon": sol.epsilon})


def _cmd_cf(args) -> Result:
    return _render(cf_expand(args.num, args.den, args.parity))


def _cmd_surd_cf(args) -> Result:
    x = surd(args.p, args.q, args.delta)
    expand = {"reg": reg_cf_surd, "neg": neg_cf_surd, "denjoy": denjoy_surd}[args.kind]
    return _render(expand(x, args.terms))


# Orbits and cycles can hold many thousands of forms, so these two build
# only the output that main prints.

def _cmd_reduce(args) -> Result:
    res = orbit_to_cycle(form(args.a, args.b, args.c), args.op)
    if args.json:
        return Result("", {"pre_period": list(map(form_to_json, res.pre_period)),
                           "cycle": list(map(form_to_json, res.cycle))})
    lines = [f"pre: {f}" for f in res.pre_period]
    lines.extend(f"cycle: {f}" for f in res.cycle)
    return Result("\n".join(lines), None)


def _cmd_cycles(args) -> Result:
    cyc = cycles(args.delta, args.op)
    if args.json:
        return Result("", [list(map(form_to_json, c)) for c in cyc])
    return Result("\n".join(" -> ".join(map(str, c)) for c in cyc), None)


def _cmd_verify(args) -> Result:
    ids = SUITE_IDS if args.suite == "all" else [args.suite]
    reports = [verify(t, args.delta_max, jobs=args.jobs) for t in ids]
    lines = []
    for r in reports:
        lines.append(r.summary())
        lines.extend(f"    {f}" for f in r.failures[:5])
    ok = all(r.passed for r in reports)
    return Result("\n".join(lines),
                  {"passed": ok, "reports": [r.to_json() for r in reports]},
                  0 if ok else 1)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zred",
        description="Exact reduction theory of indefinite binary quadratic forms.")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("pell", help="fundamental solution of |t^2 - delta u^2| = 4")
    s.add_argument("delta", type=int)
    s.set_defaults(handler=_cmd_pell)

    s = subs.add_parser("cf", help="continued fraction of num/den with chosen parity")
    s.add_argument("num", type=int)
    s.add_argument("den", type=int)
    s.add_argument("--parity", choices=("odd", "even"), required=True)
    s.set_defaults(handler=_cmd_cf)

    s = subs.add_parser("surd-cf", help="expansion of (p + sqrt(delta))/q")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("delta", type=int)
    s.add_argument("--kind", choices=("reg", "neg", "denjoy"), default="reg")
    s.add_argument("--terms", type=int, required=True)
    s.set_defaults(handler=_cmd_surd_cf)

    s = subs.add_parser("reduce", help="orbit of a form under a reduction step")
    _add_form_args(s)
    s.add_argument("--op", choices=("z", "g"), default="z")
    s.set_defaults(handler=_cmd_reduce)

    s = subs.add_parser("cycles", help="all reduction cycles of a discriminant")
    s.add_argument("delta", type=int)
    s.add_argument("--op", choices=("z", "g"), default="z")
    s.set_defaults(handler=_cmd_cycles)

    for name, fn, blurb in (
            ("caliber", z_caliber, "length of the form's Zagier cycle"),
            ("gamma", gamma, "bead string of a Gauss-reduced form, a > 0"),
            ("beta", beta, "bead string of a Zagier-reduced form"),
            ("sigma", sigma, "binary string of a Zagier-reduced form"),
            ("mu", mu, "Zagier-reduced companion of a Gauss-reduced form"),
            ("denjoy-period", denjoy_period,
             "binary expansion period attached to a Zagier-reduced form")):
        s = subs.add_parser(name, help=blurb)
        _add_form_args(s)
        s.set_defaults(handler=_on_form(fn))

    for name, fn, blurb in (
            ("tau", tau, "form built from a bead string (length >= 2)"),
            ("xi", xi, "Gauss-reduced form built from a bead string")):
        s = subs.add_parser(name, help=blurb)
        s.add_argument("entries", help="comma or space separated positive integers")
        s.set_defaults(handler=_on_beads(fn))

    s = subs.add_parser("verify", help="run a verification suite")
    s.add_argument("--suite", choices=["all"] + SUITE_IDS, default="all")
    s.add_argument("--delta-max", type=int, default=300)
    s.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (default 1)")
    s.set_defaults(handler=_cmd_verify)

    return p


def main(argv=None) -> int:
    # Python 3.11 (and 3.10.7) limits int <-> str conversion to 4300 digits;
    # integers of any length are valid here, so lift the limit for this call
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        res = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    out = json.dumps(res.payload) if args.json else res.text
    if out:
        print(out)
    return res.code


if __name__ == "__main__":
    sys.exit(main())
