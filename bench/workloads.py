"""The benchmark's workloads: seeded inputs, one pass of operations, known answers.

A workload is a list of operations run one after another in a single thread
(a closed loop with one caller).  An operation calls the engine only through
``svlie.verify.run_suite`` or ``svlie.cli.main``, looked up on the module at
call time so that the tracer's wrappers are seen.  Each returns an outcome
``(exit_code, stdout)``; its known answer is checked once per distinct
outcome, and every later pass must reproduce the first outcome exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass
from typing import Callable

import oracle
from svlie import cli, verify

DEFAULT_SEED = 0


@dataclass(frozen=True)
class SuiteSpec:
    suite: str
    radius: int
    cases: int

    @property
    def key(self) -> str:
        return f"{self.suite}/{self.radius}/{self.cases}"


# Sizes keep one pass between 1 and 3 s on a 2-core 2 GHz machine, so a
# 20 s run takes about eight passes.  jacobi and center ignore --cases.
SUITE_WORKLOADS = {
    "automorphisms": (SuiteSpec("group-law", 4, 16), SuiteSpec("lemma36-verdict", 4, 8)),
    "structure": (SuiteSpec("jacobi", 4, 1), SuiteSpec("derivations", 4, 40), SuiteSpec("center", 4, 1)),
    "linear-systems": (SuiteSpec("hom-vanishing", 8, 1), SuiteSpec("center", 16, 1)),
}
TINY_SUITE_WORKLOADS = {
    "automorphisms": (SuiteSpec("group-law", 3, 1), SuiteSpec("lemma36-verdict", 3, 1)),
    "structure": (SuiteSpec("jacobi", 2, 1), SuiteSpec("derivations", 3, 1), SuiteSpec("center", 2, 1)),
    "linear-systems": (SuiteSpec("hom-vanishing", 3, 1), SuiteSpec("center", 5, 1)),
}
# Commands of each kind in one cli-ops pass: the same number of each command
# the workload drives, plus malformed input as one in ten of the 300.  Half
# the composes take an earlier invert's printed output and must print the
# identity; one factorize in three gets a window that is not an automorphism.
CLI_MIX = {
    "bracket": 45,
    "exp-ad": 45,
    "apply-aut": 45,
    "compose": 45,
    "invert": 45,
    "factorize": 45,
    "malformed": 30,
}
TINY_CLI_MIX = {kind: 3 for kind in CLI_MIX}
WORKLOADS = tuple(SUITE_WORKLOADS) + ("cli-ops",)
FACTOR_RADIUS = 3


@dataclass(eq=False)
class Op:
    """One operation: ``call`` runs it, ``expect`` returns a failure message or None."""

    label: str
    call: Callable[[], tuple]
    expect: Callable[[tuple], "str | None"]
    after: Callable[[tuple], None] | None = None


def report_text(report: dict) -> str:
    """The exact bytes ``svlie verify --format json`` prints for ``report``."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def suite_op(spec: SuiteSpec, seed: int, known: dict) -> Op:
    def call():
        report = verify.run_suite(spec.suite, spec.radius, seed, spec.cases)
        return (0 if report["passed"] else 1, report_text(report))

    def expect(outcome):
        code, text = outcome
        report = json.loads(text)
        header = {"suite": spec.suite, "radius": spec.radius, "seed": seed, "cases": spec.cases}
        if code != 0 or report.get("passed") is not True:
            return "report did not pass"
        if {key: report.get(key) for key in header} != header:
            return "report header differs from the arguments"
        if spec.suite == "lemma36-verdict":
            verdicts = {r["name"]: r["verdict"] for r in report["relations"]}
            if verdicts != known["verdicts"]:
                return f"verdict table {verdicts}"
        pinned = known["report_sha256"].get(spec.key)
        if seed == DEFAULT_SEED and pinned is not None and sha256(text) != pinned:
            return f"report sha256 {sha256(text)} is not the pinned {pinned}"
        return None

    return Op(f"verify {spec.key} seed {seed}", call, expect)


def run_cli(argv: list) -> tuple:
    """``svlie.cli.main(argv)`` in process: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _acts_as(fmt: str, gens, holds: Callable) -> Callable:
    """Printed parameters ``r`` must be canonical and satisfy ``holds(r, bv)`` on ``gens``."""

    def expect(outcome):
        code, text = outcome
        if code != 0:
            return f"exit {code}"
        r = oracle.parse_params(text)
        if oracle.emit_params(r, fmt) != text:
            return "parameters are not in canonical form"
        for bv in gens:
            if not holds(r, bv):
                return f"wrong action on {oracle.format_basis(bv)}"
        return None

    return expect


def _exactly(expected: Callable[[], tuple]) -> Callable:
    def expect(outcome):
        want = expected()
        return None if outcome == want else f"got {outcome!r}, expected {want!r}"

    return expect


def _malformed(gen: oracle.Generator, write: Callable, k: int) -> list:
    """Argument lists that must exit 2: parse, JSON, codec and usage errors."""
    rng = gen.rng
    text = oracle.format_element(gen.element(4))
    valid = oracle.params_json(gen.params())
    valid_map = oracle.window_map_json({bv: {bv: oracle.ONE} for bv in oracle.window(FACTOR_RADIUS)}, FACTOR_RADIUS)
    broken = rng.choice([text + " +", "(" + text, text + "]", text + " * 2"])
    variant = rng.randrange(8)
    if variant == 0:
        pair = [broken, text] if rng.random() < 0.5 else [text, broken]
        return ["bracket", "--", *pair]
    if variant == 1:
        path = write(f"bad{k}.json", json.dumps(valid)[: rng.randint(1, 20)])
        return ["apply-aut", "--params", path, "--", text]
    if variant == 2:
        path = write(f"bad{k}.json", {**valid, "u": "0"})
        return ["invert", path]
    if variant == 3:
        path = write(f"bad{k}.json", {**valid, "i": 2})
        return ["invert", path]
    if variant == 4:
        path = write(f"bad{k}.json", {key: v for key, v in valid.items() if key != "w"})
        return ["compose", path, path]
    if variant == 5:
        images = dict(valid_map["images"])
        del images[rng.choice(sorted(images))]
        path = write(f"bad{k}.json", {"radius": FACTOR_RADIUS, "images": images})
        return ["factorize", path]
    if variant == 6:
        path = write(f"bad{k}.json", {**valid_map, "radius": str(FACTOR_RADIUS)})
        return ["factorize", path]
    return ["bracket", "--", text]  # one operand: an argparse usage error


def cli_ops(seed: int, workdir: str, mix: dict = CLI_MIX) -> list:
    """One cli-ops pass: seeded commands on files written into ``workdir``.

    Element arguments follow ``--`` because argparse would read a leading
    ``-L[1]`` as an option.  Each ``invert`` writes what it prints to a file;
    for half of them a later ``compose`` of that file with the original must
    print the identity.
    """
    gen = oracle.Generator(seed)
    rng = gen.rng
    gens = oracle.window(FACTOR_RADIUS)
    unit = lambda bv: {bv: oracle.ONE}
    names = iter(range(10**9))

    def write(name: str, payload) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    def params_file(p) -> str:
        return write(f"p{next(names)}.json", oracle.params_json(p))

    # Window maps of automorphisms, one for each factorize that must succeed;
    # they are the costliest inputs to generate.
    automorphisms = []
    for _ in range(mix["factorize"] - mix["factorize"] // 3):
        p = gen.params()
        automorphisms.append((p, {bv: oracle.apply(p, unit(bv)) for bv in gens}))
    ops, inverts, pairs = [], [], []
    for kind in ("bracket", "exp-ad", "apply-aut", "invert", "compose", "factorize", "malformed"):
        for n in range(mix[kind]):
            label = f"{kind} #{n}"
            fmt = rng.choice(("text", "text", "text", "json"))
            after = None
            if kind == "bracket":
                x, y = gen.element(4), gen.element(4)
                argv = ["bracket", "--format", fmt, "--", oracle.format_element(x), oracle.format_element(y)]
                expect = _exactly(lambda x=x, y=y, fmt=fmt: (0, oracle.emit_element(oracle.bracket(x, y), fmt)))
            elif kind == "exp-ad":
                x, t = gen.element(4, kinds="YM"), gen.element(4)
                argv = ["exp-ad", "--format", fmt, "--", oracle.format_element(x), oracle.format_element(t)]
                expect = _exactly(lambda x=x, t=t, fmt=fmt: (0, oracle.emit_element(oracle.exp_ad(x, t), fmt)))
            elif kind == "apply-aut":
                p, x = gen.params(), gen.element(4)
                argv = ["apply-aut", "--format", fmt, "--params", params_file(p), "--", oracle.format_element(x)]
                expect = _exactly(lambda p=p, x=x, fmt=fmt: (0, oracle.emit_element(oracle.apply(p, x), fmt)))
            elif kind == "invert":
                p = gen.params()
                path = params_file(p)
                inverse = os.path.join(workdir, f"inverse{n}.json")
                argv = ["invert", "--format", fmt, path]
                expect = _acts_as(fmt, gens, lambda r, bv, p=p: oracle.apply(r, oracle.apply(p, unit(bv))) == unit(bv))

                def after(outcome, inverse=inverse):
                    if outcome[0] == 0:
                        write(os.path.basename(inverse), outcome[1])

                inverts.append((path, inverse))
            elif kind == "compose" and n < min(mix[kind] // 2, len(inverts)):
                label = f"compose-inverse #{n}"
                path, inverse = inverts[n]
                argv = ["compose", "--format", fmt, *([path, inverse] if rng.random() < 0.5 else [inverse, path])]
                expect = _exactly(lambda fmt=fmt: (0, oracle.emit_params(oracle.IDENTITY, fmt)))
            elif kind == "compose":
                p, q = gen.params(), gen.params()
                argv = ["compose", "--format", fmt, params_file(p), params_file(q)]
                expect = _acts_as(fmt, gens, lambda r, bv, p=p, q=q: (
                    oracle.apply(r, unit(bv)) == oracle.apply(p, oracle.apply(q, unit(bv)))))
            elif kind == "factorize" and n % 3 == 2:
                label = f"not-automorphism #{n}"
                images = dict(rng.choice(automorphisms)[1])
                # factorize reads its parameters off M[1], Y[0], L[0], Y[1] and
                # L[1]; changing any other image must fail its final sweep.
                extraction = {("M", 1), ("Y", 0), ("L", 0), ("Y", 1), ("L", 1)}
                bv = rng.choice([b for b in gens if b not in extraction])
                images[bv] = oracle.combine(
                    (oracle.ONE, images[bv]), (gen.scalar(nonzero=True), unit(rng.choice(gens))))
                path = write(f"map{next(names)}.json", oracle.window_map_json(images, FACTOR_RADIUS))
                argv = ["factorize", "--format", fmt, path]
                expect = _exactly(lambda: (1, ""))
            elif kind == "factorize":
                p, images = automorphisms[n - n // 3]
                path = write(f"map{next(names)}.json", oracle.window_map_json(images, FACTOR_RADIUS))
                argv = ["factorize", "--format", fmt, path]
                expect = _exactly(lambda p=p, fmt=fmt: (0, oracle.emit_params(p, fmt)))
            else:
                argv = _malformed(gen, write, next(names))
                expect = _exactly(lambda: (2, ""))
            ops.append(Op(label, lambda argv=argv: run_cli(argv), expect, after))
            if kind == "invert":
                pairs.append([ops[-1]])
            elif label.startswith("compose-inverse"):
                pairs[n].append(ops[-1])
    rng.shuffle(ops)
    for pair in pairs:  # an identity check runs after the invert it reads
        if len(pair) == 2:
            i, j = ops.index(pair[0]), ops.index(pair[1])
            if j < i:
                ops[i], ops[j] = ops[j], ops[i]
    return ops


def build(name: str, seed: int, workdir: str, known: dict, tiny: bool = False) -> tuple[list, list]:
    """(warm-up ops, timed ops) of one workload.

    Suite workloads warm up at the default seed, whose report hashes are
    pinned, and time the run's seed.  cli-ops warms up on its timed ops.
    """
    if name == "cli-ops":
        ops = cli_ops(seed, workdir, TINY_CLI_MIX if tiny else CLI_MIX)
        return ops, ops
    specs = (TINY_SUITE_WORKLOADS if tiny else SUITE_WORKLOADS)[name]
    warmup = [suite_op(spec, DEFAULT_SEED, known) for spec in specs]
    if seed == DEFAULT_SEED:
        return warmup, warmup
    return warmup, [suite_op(spec, seed, known) for spec in specs]


class Checker:
    """Counts attempted operations and those that miss their known answer.

    The first outcome of each op is checked against its known answer; every
    later outcome must equal the first.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[Op, tuple] = {}
        self._verdict: dict[Op, "str | None"] = {}

    def record(self, op: Op, outcome: tuple) -> None:
        self.attempted += 1
        first = self._first.setdefault(op, outcome)
        if outcome != first:
            problem = "output differs from the first pass"
        else:
            if op not in self._verdict:
                try:
                    self._verdict[op] = op.expect(outcome)
                except Exception as exc:  # a malformed output must count, not crash the run
                    self._verdict[op] = f"check raised {type(exc).__name__}: {exc}"
            problem = self._verdict[op]
        if problem:
            self.failures.append(f"{op.label}: {problem}")


def run_pass(ops: list, checker: Checker, speed=None) -> tuple[list, list]:
    """Run ``ops`` in order, one at a time; returns each op's latency in seconds,
    as (wall clock, reference speed).

    With a ``speed`` sampler, the reference-speed latency leaves out the time
    spent sampling and is scaled by the samples taken during the op (or the
    latest few, for an op too short to be sampled).  Without one, both lists
    hold the wall-clock latencies.
    """
    clock = time.perf_counter
    raw, latencies, outcomes = [], [], []
    for op in ops:
        start = clock()
        if speed:
            first, sampling = len(speed.samples), speed.spent
        try:
            outcome = op.call()
        except Exception as exc:  # an engine crash is a failed op, not a failed benchmark
            outcome = ("raised", f"{type(exc).__name__}: {exc}")
        latency = clock() - start
        raw.append(latency)
        if speed:
            latency = (latency - (speed.spent - sampling)) * speed.scale_since(first)
        latencies.append(latency)
        if op.after is not None:
            op.after(outcome)
        outcomes.append(outcome)
    for op, outcome in zip(ops, outcomes):
        checker.record(op, outcome)
    return raw, latencies
