import hashlib
import json
from pathlib import Path

import pytest

from svlie import algebra, verify
from svlie.algebra import L, M, Window, Y, jacobi_residual, single
from svlie.verify import SplitMix64, SUITES, render_text, run_suite


def test_splitmix_is_deterministic():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]
    assert SplitMix64(1).next() != SplitMix64(2).next()


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")
    with pytest.raises(ValueError):
        run_suite("jacobi", radius=0)
    with pytest.raises(ValueError):
        run_suite("jacobi", cases=0)


@pytest.mark.parametrize(
    "suite,kwargs",
    [
        ("jacobi", dict(radius=3)),
        ("center", dict(radius=4)),
        ("derivations", dict(radius=3, seed=2, cases=8)),
        ("hom-vanishing", dict(radius=3)),
        ("group-law", dict(radius=3, seed=5, cases=10)),
    ],
)
def test_suites_pass(suite, kwargs):
    report = run_suite(suite, **kwargs)
    assert report["passed"]
    assert report["violations"] == 0
    assert report["suite"] == suite


def test_reports_are_byte_identical():
    first = run_suite("group-law", radius=3, seed=9, cases=6)
    second = run_suite("group-law", radius=3, seed=9, cases=6)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    different = run_suite("group-law", radius=3, seed=10, cases=6)
    assert different["seed"] != first["seed"]


KNOWN_ANSWERS = Path(__file__).resolve().parents[1] / "bench" / "known_answers.json"
PINNED = json.loads(KNOWN_ANSWERS.read_text(encoding="utf-8"))["report_sha256"]


@pytest.mark.parametrize("key", sorted(PINNED))
def test_report_bytes_match_the_pinned_hash(key):
    suite, radius, cases = key.split("/")
    report = run_suite(suite, int(radius), 0, int(cases))
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[key]


def test_verdict_table_contents():
    report = run_suite("lemma36-verdict", radius=3, seed=0, cases=10)
    assert report["passed"]
    verdicts = {r["name"]: r["verdict"] for r in report["relations"]}
    assert verdicts == {
        "w": "AGREE",
        "i": "AGREE",
        "u": "AGREE",
        "gamma": "AGREE",
        "alpha": "DISAGREE",
        "beta": "DISAGREE",
        "b": "AGREE",
        "c": "AGREE",
        "delta-product": "DISAGREE",
    }
    for relation in report["relations"]:
        if relation["verdict"] == "DISAGREE":
            witness = relation["witness"]
            assert witness is not None
            assert witness["printed"] != witness["oracle"]
        else:
            assert relation["witness"] is None


def test_render_text_mentions_verdicts():
    report = run_suite("lemma36-verdict", radius=3, seed=0, cases=5)
    text = render_text(report)
    assert "ok" in text and "DISAGREE" in text and text.endswith("PASS")


def test_all_suites_named():
    assert set(SUITES) == {
        "jacobi",
        "center",
        "derivations",
        "hom-vanishing",
        "group-law",
        "lemma36-verdict",
        "all",
    }


def _brute_force_jacobi(radius):
    """The plain n**3 loop over ordered triples, as the report's reference."""
    elems = [single(bv) for bv in Window(radius).vectors()]
    witnesses = [
        f"({x}, {y}, {z})"
        for x in elems
        for y in elems
        for z in elems
        if not jacobi_residual(x, y, z).is_zero()
    ]
    return {"cases": len(elems) ** 3, "violations": len(witnesses), "witnesses": witnesses[:3]}


def _antisymmetric_corruption(a, b, table):
    if (a, b) == (L(1), Y(2)):
        return single(M(3))
    if (a, b) == (Y(2), L(1)):
        return -single(M(3))
    return table(a, b)


def _one_sided_corruption(a, b, table):
    if (a, b) == (Y(2), L(1)):
        return single(M(3), 5)
    return table(a, b)


@pytest.mark.parametrize("corruption", [_antisymmetric_corruption, _one_sided_corruption])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_jacobi_report_on_a_corrupted_table_matches_the_brute_force_loop(
    monkeypatch, corruption, radius
):
    table = algebra.bracket_basis
    monkeypatch.setattr(algebra, "bracket_basis", lambda a, b: corruption(a, b, table))
    [check] = run_suite("jacobi", radius)["checks"]
    expected = _brute_force_jacobi(radius)
    assert {key: check[key] for key in expected} == expected
    if radius > 1:
        assert expected["violations"] > 0


def test_jacobi_evaluates_one_residual_per_rotation_class(monkeypatch):
    calls = []

    def counted(x, y, z):
        calls.append((x, y, z))
        return jacobi_residual(x, y, z)

    monkeypatch.setattr(verify, "jacobi_residual", counted)
    [check] = run_suite("jacobi", 2)["checks"]
    n = len(Window(2).vectors())
    # n**3 ordered triples fall into n one-element classes and (n**3 - n) / 3 of three
    assert check["cases"] == n**3
    assert len(calls) == (n**3 + 2 * n) // 3
