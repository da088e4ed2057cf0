"""Tests of the benchmark itself: tiny passes are correct, and every kind of
known-answer check can fail."""

import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter

import pytest

import run

run.load_engine()

import micro  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import svlie  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Checker, Op, SuiteSpec, run_pass, suite_op  # noqa: E402


@pytest.fixture(scope="module")
def known():
    return run.known_answers()


def _failures(ops, passes=1):
    checker = Checker()
    for _ in range(passes):
        run_pass(ops, checker)
    return checker


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_of_each_workload_has_no_failures(name, tmp_path, known):
    warmup, ops = workloads.build(name, 1, str(tmp_path), known, tiny=True)
    checker = Checker()
    run_pass(warmup, checker)
    run_pass(ops, checker)
    run_pass(ops, checker)
    assert checker.attempted == len(warmup) + 2 * len(ops)
    assert checker.failures == []


def test_every_workload_suite_is_pinned(known):
    for specs in workloads.SUITE_WORKLOADS.values():
        for spec in specs:
            assert len(known["report_sha256"][spec.key]) == 64


def test_corrupted_pinned_hash_is_a_failure(known):
    spec = SuiteSpec("center", 3, 1)
    text = suite_op(spec, workloads.DEFAULT_SEED, known).call()[1]
    pinned = {**known, "report_sha256": {spec.key: workloads.sha256(text)}}
    assert _failures([suite_op(spec, workloads.DEFAULT_SEED, pinned)]).failures == []
    corrupted = {**known, "report_sha256": {spec.key: "0" * 64}}
    (failure,) = _failures([suite_op(spec, workloads.DEFAULT_SEED, corrupted)]).failures
    assert "pinned" in failure


def test_wrong_verdict_row_is_a_failure(known):
    wrong = {**known, "verdicts": {**known["verdicts"], "alpha": "AGREE"}}
    (failure,) = _failures([suite_op(SuiteSpec("lemma36-verdict", 3, 1), 1, wrong)]).failures
    assert "verdict table" in failure


def test_wrong_cli_exit_code_is_a_failure(tmp_path):
    ops = workloads.cli_ops(1, str(tmp_path), workloads.TINY_CLI_MIX)
    rejected = [op for op in ops if op.label.startswith(("malformed", "not-automorphism"))]
    assert rejected and _failures(rejected).failures == []
    accepted = [Op(op.label, lambda op=op: (0, op.call()[1]), op.expect) for op in rejected]
    assert len(_failures(accepted).failures) == len(rejected)


def test_cli_mix_runs_each_command_equally_and_checks_identities_after_inverts(tmp_path):
    ops = workloads.cli_ops(3, str(tmp_path))
    kinds = Counter(op.label.split(" #")[0] for op in ops)
    assert len(ops) == 300 and kinds["malformed"] == 30
    assert kinds["compose"] + kinds["compose-inverse"] == kinds["factorize"] + kinds["not-automorphism"] == 45
    assert kinds["bracket"] == kinds["exp-ad"] == kinds["apply-aut"] == kinds["invert"] == 45
    position = {op.label: k for k, op in enumerate(ops)}
    for label in position:
        if label.startswith("compose-inverse #"):
            assert position[label] > position["invert #" + label.split("#")[1]]


def test_a_pass_that_does_not_repeat_the_first_is_a_failure():
    outcomes = iter([(0, "L[0]\n"), (0, "L[1]\n")])
    op = Op("flaky", lambda: next(outcomes), lambda outcome: None)
    (failure,) = _failures([op], passes=2).failures
    assert "differs from the first pass" in failure


def test_oracle_matches_documented_brackets():
    lm3, l3 = {("L", -3): oracle.ONE}, {("L", 3): oracle.ONE}
    assert oracle.format_element(oracle.bracket(lm3, l3)) == "6*L[0] - 2*C"
    y1, y0 = {("Y", 1): oracle.ONE}, {("Y", 0): oracle.ONE}
    assert oracle.format_element(oracle.exp_ad(y1, y0)) == "Y[0] - M[1]"


def test_trace_counts_repeat_and_every_binding_is_restored(tmp_path, known):
    _, ops = workloads.build("structure", 2, str(tmp_path), known, tiny=True)
    run_pass(ops, Checker())
    bindings = lambda: (svlie.algebra.bracket, svlie.verify.apply, svlie.apply_automorphism,
                        vars(svlie.Scalar)["__mul__"])
    originals = bindings()
    tracer = tracing.Tracer()
    counts = []
    for _ in range(2):
        tracer.install()
        assert svlie.verify.apply is not originals[1] and svlie.apply_automorphism is not originals[2]
        try:
            run_pass(ops, Checker())
        finally:
            tracer.uninstall()
        counts.append(({name: s[0] for name, s in tracer.stats.items()}, tuple(tracer.nullspace)))
    assert counts[0] == counts[1]
    assert counts[0][0]["algebra.bracket"] > 0 and counts[0][0]["scalar.arith"] > 0
    assert bindings() == originals


def test_layer_sweep_calls_every_traced_layer():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        micro.sweep()
    finally:
        tracer.uninstall()
    assert [name for name, stat in tracer.stats.items() if not stat[0]] == []


def test_speedometer_samples_while_an_op_runs_and_then_stops():
    op = Op("busy", lambda: (0, str(sum(k * k for k in range(1_500_000)))), lambda outcome: None)
    with speed.Speedometer() as meter:
        (raw,), (latency,) = run_pass([op], Checker(), meter)
    assert len(meter.samples) >= 3 and meter.spent > 0 and raw > 0 and latency > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_an_engine_slowdown_comes_through_the_speed_scaling_at_full_size():
    pairs = [(svlie.Scalar(k, 1), svlie.Scalar(1, -k)) for k in range(1, 40)]

    def engine_work(rounds):
        total = svlie.Scalar(0)
        for _ in range(rounds * 150):
            for a, b in pairs:
                total = total + a * b
        return (0, str(total))

    base = Op("base", lambda: engine_work(1), lambda outcome: None)
    slowed = Op("slowed", lambda: engine_work(2), lambda outcome: None)
    with speed.Speedometer() as meter:
        _, scaled = run_pass([base, slowed] * 5, Checker(), meter)
    assert 1.7 < statistics.median(scaled[1::2]) / statistics.median(scaled[::2]) < 2.3


def test_setup_probe_reports_import_time_and_speed_scale():
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--setup-probe", "--workload", "-", "--seed", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, scale = map(float, done.stdout.split())
    assert 0 < seconds < 10 and scale > 0


def test_microbenchmarks_check_their_results():
    rates, failures = micro.measure(micro.build(1), 0.01)
    assert failures == []
    assert all(rate > 0 for rate in rates.values())


def test_run_fails_without_the_engine_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "structure", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
