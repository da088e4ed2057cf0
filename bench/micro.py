"""Layer microbenchmarks and the layer sweep of the traced run.

Each microbenchmark calls one layer function in a loop over seeded inputs
for a fixed slice of time and reports operations per second.  Its first
results are checked against a known answer, so a fast wrong layer counts
as a failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import oracle
from svlie import algebra, autgroup, derivations, expr, scalar, verify
from svlie.algebra import Window
from workloads import run_cli

CHECKED = 5  # results per microbenchmark compared with a known answer
SYSTEM_RADIUS = 4


@dataclass
class Micro:
    name: str
    fn: Callable
    inputs: list  # argument tuples
    expect: Callable  # (args, result) -> bool


def _g(x: scalar.Scalar):
    return (x.re, x.im)


def _element(x: algebra.Element) -> dict:
    return {(bv.kind, bv.index): _g(cf) for bv, cf in x.terms()}


def _params(p: autgroup.AutomorphismParams) -> dict:
    out = {key: _g(getattr(p, key)) for key in ("u", "w", "alpha", "beta", "gamma")}
    out.update(i=p.i, b={j: _g(v) for j, v in p.b.items()}, c={k: _g(v) for k, v in p.c.items()})
    return out


def _unit(bv):
    return {bv: oracle.ONE}


def _act(p: autgroup.AutomorphismParams, x: dict) -> dict:
    return oracle.apply(_params(p), x)


def _on_window(holds: Callable) -> bool:
    return all(holds(_unit(bv)) for bv in oracle.window(3))


def _reproduces(p: autgroup.AutomorphismParams, wmap) -> bool:
    return all(
        _act(p, _unit((bv.kind, bv.index))) == _element(wmap.image(bv)) for bv in wmap.window.vectors()
    )


def captured_systems(radius: int = SYSTEM_RADIUS) -> dict:
    """The matrices that the three system assemblers hand to ``nullspace``."""
    captured = {}
    original = scalar.nullspace

    def recorder(name):
        def record(m):
            captured[name] = m
            return original(m)

        return record

    try:
        algebra.nullspace = recorder("centralizer")
        algebra.centralizer_window(Window(radius))
        derivations.nullspace = recorder("outer")
        derivations.outer_independence_kernel(Window(radius))
        derivations.nullspace = recorder("hom")
        derivations.equivariant_hom_nullity(Window(radius))
    finally:
        algebra.nullspace = derivations.nullspace = original
    return captured


def build(seed: int) -> list[Micro]:
    rng = verify.SplitMix64(seed)
    window = Window(4).vectors()
    constants = [
        cf for a in window for b in window for _, cf in algebra.bracket_basis(a, b).terms()
    ]
    random_scalars = [verify.random_scalar(rng, nonzero=True) for _ in range(400)]

    def product(k):
        out = scalar.ONE
        for _ in range(k):
            out = out * rng.choice(random_scalars)
        return out

    def params():
        return verify.random_params(rng)

    def element():
        return verify.random_element(rng, 4)

    mul_check = lambda args, out: _g(out) == oracle.gmul(_g(args[0]), _g(args[1]))
    systems = captured_systems()
    kernels = {"centralizer": 2, "outer": 2, "hom": 0}
    pairs = [(params(), params()) for _ in range(40)]
    factor = [params() for _ in range(8)]
    return [
        Micro("scalar_mul.structure", lambda a, b: a * b,
              [(rng.choice(constants), rng.choice(constants)) for _ in range(2000)], mul_check),
        Micro("scalar_mul.random", lambda a, b: a * b,
              [(product(rng.randint(1, 3)), rng.choice(random_scalars)) for _ in range(2000)], mul_check),
        Micro("bracket", algebra.bracket, [(element(), element()) for _ in range(200)],
              lambda args, out: _element(out) == oracle.bracket(_element(args[0]), _element(args[1]))),
        Micro("apply", autgroup.apply, [(params(), element()) for _ in range(100)],
              lambda args, out: _element(out) == oracle.apply(_params(args[0]), _element(args[1]))),
        Micro("compose", autgroup.compose, pairs, lambda args, out: _on_window(
            lambda e: _act(out, e) == _act(args[0], _act(args[1], e)))),
        Micro("invert", autgroup.invert, [(p,) for p, _ in pairs], lambda args, out: _on_window(
            lambda e: _act(out, _act(args[0], e)) == e)),
        Micro("factorize", autgroup.factorize,
              [(autgroup.automorphism_window_map(p, 3),) for p in factor],
              lambda args, out: _reproduces(out, args[0])),
        Micro("compose_oracle", autgroup.compose_oracle, pairs[:8],
              lambda args, out: out == autgroup.compose(*args)),
        *[
            Micro(f"nullspace.{name}", scalar.nullspace, [(systems[name],)],
                  lambda args, out, name=name: len(out) == kernels[name])
            for name in ("centralizer", "outer", "hom")
        ],
        Micro("roundtrip", lambda x: expr.parse_element(algebra.format_element(x)),
              [(element(),) for _ in range(200)], lambda args, out: out == args[0]),
    ]


def measure(micros: list[Micro], budget_s: float) -> tuple[dict, list[str]]:
    """Operations per second of each microbenchmark, and failed checks."""
    rates, failures = {}, []
    slice_s = budget_s / len(micros)
    clock = time.perf_counter
    for micro in micros:
        fn, inputs = micro.fn, micro.inputs
        for args in inputs[:CHECKED]:
            if not micro.expect(args, fn(*args)):
                failures.append(f"micro {micro.name}: wrong result")
                break
        ops, start = 0, clock()
        while True:
            for args in inputs:
                fn(*args)
            ops += len(inputs)
            elapsed = clock() - start
            if elapsed >= slice_s:
                break
        rates[micro.name] = ops / elapsed
    return rates, failures


def sweep() -> None:
    """One call into every traced layer on fixed small inputs.

    A layer the workload bypasses reports 0 calls, and the self time the
    traced run reports for it is that of the sweep, so that every time it
    prints is measured.
    """
    p = autgroup.AutomorphismParams(b={1: 1}, c={2: 1}, i=1, u=2, w=3, alpha=1, beta=1, gamma=1)
    autgroup.compose_oracle(p, autgroup.invert(p))
    autgroup.factorize(autgroup.automorphism_window_map(autgroup.compose(p, p), 3))
    verify.run_suite("derivations", 3, 0, 1)
    verify.run_suite("center", 2, 0, 1)
    verify.run_suite("hom-vanishing", 2, 0, 1)
    verify.run_suite("jacobi", 1, 0, 1)
    code, _ = run_cli(["exp-ad", "--", "1/2*Y[1] - M[-1]", "L[0] - (1+2i)*C"])
    if code != 0:
        raise RuntimeError(f"layer sweep: exp-ad exited {code}")
