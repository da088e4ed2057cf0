"""Command-line front end.

Exit status: 0 when everything passes, 1 when a verification or domain
operation reports violations/failures, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import Element, MAX_TERMS, bracket, exp_ad, format_element
from .autgroup import compose, factorize, invert, apply as apply_automorphism
from .derivations import apply_classified
from .expr import MAX_INDEX, classified_from_json, params_from_json, params_to_json, parse_element
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


def _emit(result, fmt: str) -> None:
    """Print an ``Element`` or ``AutomorphismParams`` result in ``fmt``.

    A result past an input limit is refused instead, so that every printed
    result parses back: an index past ``MAX_INDEX`` (a basis index, or a ``b``
    or ``c`` position), or more than ``MAX_TERMS`` terms or ``b`` or ``c`` entries.
    """
    element = isinstance(result, Element)
    indices = [bv.index for bv in result.support()] if element else [*result.b, *result.c]
    far = max(map(abs, indices), default=0)
    if far > MAX_INDEX:
        raise ValueError(f"result index too large: {far} is past the input limit +/-{MAX_INDEX}")
    counts = {"terms": len(indices)} if element else {"b entries": len(result.b), "c entries": len(result.c)}
    for what, count in counts.items():
        if count > MAX_TERMS:
            raise ValueError(f"result too large: {count} {what}, over the input limit of {MAX_TERMS}")
    if element:
        text = format_element(result)
        print(text if fmt == "text" else json.dumps({"result": text}))
    else:
        print(json.dumps(params_to_json(result), indent=2 if fmt == "text" else None))


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.radius, args.seed, args.cases)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(render_text(report))
    return 0 if report["passed"] else 1


# Ceilings for verify, which bound a run's time: jacobi is cubic in the window size.
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


# command -> (help, (argument, its help), run); ``run`` reads the inputs in
# order and calls the engine through this module's globals, which tests and
# the bench tracer rebind, so the table holds no engine function itself.
_COMMANDS = {
    "bracket": (
        "bracket of two elements",
        (("x", None), ("y", None)),
        lambda a: bracket(parse_element(a.x), parse_element(a.y)),
    ),
    "apply-aut": (
        "apply an automorphism",
        (("--params", "automorphism parameter JSON file"), ("expr", None)),
        lambda a: apply_automorphism(_load(a.params, params_from_json), parse_element(a.expr)),
    ),
    "apply-der": (
        "apply a classified derivation",
        (("--params", "classified derivation JSON file"), ("expr", None)),
        lambda a: apply_classified(_load(a.params, classified_from_json), parse_element(a.expr)),
    ),
    "compose": (
        "compose two automorphisms (left acts last)",
        (("p", None), ("q", None)),
        lambda a: compose(_load(a.p, params_from_json), _load(a.q, params_from_json)),
    ),
    "invert": (
        "invert an automorphism", (("p", None),), lambda a: invert(_load(a.p, params_from_json))
    ),
    "factorize": (
        "factor a window map into canonical parameters",
        (("map", "window map JSON file"),),
        lambda a: factorize(_load(a.map, window_map_from_json)),
    ),
    "exp-ad": (
        "apply exp(ad x) for x in the Y/M span",
        (("arg", None), ("target", None)),
        lambda a: exp_ad(parse_element(a.arg), parse_element(a.target)),
    ),
}


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
    for name, (text, arguments, run) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=text)
        for argument, argument_help in arguments:
            required = {"required": True} if argument.startswith("-") else {}
            p.add_argument(argument, help=argument_help, **required)
        p.set_defaults(run=run)
    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--radius", type=_count(_MAX_RADIUS), default=4)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--cases", type=_count(_MAX_CASES), default=100)
    return parser


def main(argv=None) -> int:
    # built on the first call and shared by later calls in the same process
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        _emit(args.run(args), args.format)
        return 0
    except (ParseError, _InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
