"""Command-line front end.

Exit status: 0 when everything passes, 1 when a verification or domain
operation reports violations/failures, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import bracket, exp_ad, format_element
from .autgroup import compose, factorize, invert, apply as apply_automorphism
from .derivations import apply_classified
from .expr import classified_from_json, params_from_json, params_to_json, parse_element
from .expr import window_map_from_json
from .scalar import ParseError
from .verify import SUITES, render_text, run_suite


class _InputError(ValueError):
    """Malformed file or argument content; maps to exit status 2."""


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` for ``json.load``: an object that repeats a key is refused."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def _load(path: str, decoder):
    """``decoder`` applied to the JSON object in the file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise _InputError(f"{path}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:
        # also not UTF-8, and an integer literal over Python's digit limit
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _InputError(f"{path}: expected a JSON object")
    try:
        return decoder(data)
    except (TypeError, ValueError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _emit_element(element, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"result": format_element(element)}, sort_keys=True))
    else:
        print(format_element(element))


def _emit_params(params, fmt: str) -> None:
    payload = params_to_json(params)
    if fmt == "json":
        print(json.dumps(payload))
    else:
        print(json.dumps(payload, indent=2))


def _cmd_bracket(args) -> int:
    result = bracket(parse_element(args.x), parse_element(args.y))
    _emit_element(result, args.format)
    return 0


def _cmd_apply_aut(args) -> int:
    params = _load(args.params, params_from_json)
    _emit_element(apply_automorphism(params, parse_element(args.expr)), args.format)
    return 0


def _cmd_apply_der(args) -> int:
    deriv = _load(args.params, classified_from_json)
    _emit_element(apply_classified(deriv, parse_element(args.expr)), args.format)
    return 0


def _cmd_compose(args) -> int:
    p = _load(args.p, params_from_json)
    q = _load(args.q, params_from_json)
    _emit_params(compose(p, q), args.format)
    return 0


def _cmd_invert(args) -> int:
    p = _load(args.p, params_from_json)
    _emit_params(invert(p), args.format)
    return 0


def _cmd_factorize(args) -> int:
    wmap = _load(args.map, window_map_from_json)
    _emit_params(factorize(wmap), args.format)
    return 0


def _cmd_exp_ad(args) -> int:
    _emit_element(
        exp_ad(parse_element(args.arg), parse_element(args.target)), args.format
    )
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.radius, args.seed, args.cases)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(render_text(report))
    return 0 if report["passed"] else 1


# Ceilings for verify; jacobi is cubic in the window size.  --suite all takes
# about 13 s at radius 16, 17 s at 1000 cases and 77 s at both (one core).
_MAX_RADIUS = 16
_MAX_CASES = 1000


def _count(ceiling: int):
    """argparse type: ASCII digits naming an integer from 1 to ``ceiling``."""

    def integer(text: str) -> int:
        # int() alone would also read "1_6" as 16 and a fullwidth digit as its value
        if not (text.isascii() and text.isdigit()) or not 1 <= int(text) <= ceiling:
            raise argparse.ArgumentTypeError(f"must be an integer from 1 to {ceiling}")
        return int(text)

    return integer


def _seed(text: str) -> int:
    """argparse type: an optional '-' and 1 to 20 ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit() and len(digits) <= 20:
        return int(text)
    raise argparse.ArgumentTypeError("must be an optional '-' and 1 to 20 ASCII digits")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svlie",
        description=(
            "Exact computations in the twisted Schrodinger-Virasoro Lie algebra: "
            "brackets, derivations, automorphisms, and verification suites."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", parents=[common], help="bracket of two elements")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("apply-aut", parents=[common], help="apply an automorphism")
    p.add_argument("--params", required=True, help="automorphism parameter JSON file")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_apply_aut)

    p = sub.add_parser("apply-der", parents=[common], help="apply a classified derivation")
    p.add_argument("--params", required=True, help="classified derivation JSON file")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_apply_der)

    p = sub.add_parser("compose", parents=[common], help="compose two automorphisms (left acts last)")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("invert", parents=[common], help="invert an automorphism")
    p.add_argument("p")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("factorize", parents=[common], help="factor a window map into canonical parameters")
    p.add_argument("map", help="window map JSON file")
    p.set_defaults(handler=_cmd_factorize)

    p = sub.add_parser("exp-ad", parents=[common], help="apply exp(ad x) for x in the Y/M span")
    p.add_argument("arg")
    p.add_argument("target")
    p.set_defaults(handler=_cmd_exp_ad)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--radius", type=_count(_MAX_RADIUS), default=4)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--cases", type=_count(_MAX_CASES), default=100)
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    # built on the first call and shared by later calls in the same process
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, _InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
