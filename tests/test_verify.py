import hashlib
import json
from pathlib import Path

import pytest

from svlie import algebra, cli, derivations, verify
from svlie.algebra import C, L, M, Window, Y, jacobi_residual, single
from svlie.autgroup import AutomorphismParams, identity
from svlie.derivations import ClassifiedDerivation, WindowMap
from svlie.expr import params_to_json
from svlie.scalar import ONE, Scalar, ZERO, format_scalar
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
    assert SUITES == (
        "jacobi",
        "center",
        "derivations",
        "hom-vanishing",
        "group-law",
        "lemma36-verdict",
        "all",
    )


@pytest.mark.parametrize("radius", [1, 2])
def test_all_runs_each_suite_in_table_order(radius):
    everything = run_suite("all", radius, 7, 3)
    parts = {suite: run_suite(suite, radius, 7, 3) for suite in SUITES[:-1]}
    assert everything["checks"] == [check for part in parts.values() for check in part["checks"]]
    assert [suite for suite, part in parts.items() if "relations" in part] == ["lemma36-verdict"]
    assert everything["relations"] == parts["lemma36-verdict"]["relations"]


# sha256 of each report at radii 1 to 3, below and at the suites' smallest radii
# (hom-vanishing runs at 2 or more, lemma36-verdict at 3 or more), seed 7, 3 cases
SMALL_RADIUS_REPORT_SHA256 = {
    ("jacobi", 1): "87fabd91997d699f8b78fc1d1465f201ff5cd219621f75d2be599c084a8e35f7",
    ("jacobi", 2): "c9315a1b3fc44f1aefbcdf27ca4eef1679b3a5604b2c4745d81e6b49003b6f99",
    ("jacobi", 3): "8f422bde6674496340372c107872cf9e76545392216fec5675d04ae491a7ecde",
    ("center", 1): "bab83dee5419d5fef82a0df220037abb1790a713c7102d84b36f102812e628bc",
    ("center", 2): "93b6b9b8ddf9f8f624ea9fab6ce2666b52262a18c2233767cc301fbeac4d8f3f",
    ("center", 3): "ac3823fbbaabc4b003d9619f488287724b04a0a114d2eb3ac7d1a192e649e616",
    ("derivations", 1): "48acaa457c1feb930c5c91b2a9be3ff9757d855a59b9d3a4345f4a98294562ae",
    ("derivations", 2): "14e45a62dd70042955aab419d001e22081e4f29f9dc73a27be7daccaf01dc54b",
    ("derivations", 3): "16c4e714231857f6e51e6e143da04be9933b1fe3ce535293e8880906bc992f22",
    ("hom-vanishing", 1): "cf78bfa9bd70f485001d4211144f9f8176d15ae8f9f4ab4ad3ae521ad6b84873",
    ("hom-vanishing", 2): "5e18efa834ff0734471a361770677f1b7b9badc98ef9c0bedd8716937f47cb5d",
    ("hom-vanishing", 3): "7d0d91d858be5c9c69d30c939352b46232932fd5247028e5ff5a1402e3a088e6",
    ("group-law", 1): "c6ca98bf17324df6e01dc4db9516b6a00b99b670a000ae85110b157cf3d0cbcf",
    ("group-law", 2): "ed6ba2ac267c28abc7dd4a81a11b62f0bfcf82137bd949890b3685531bbacc54",
    ("group-law", 3): "1ba4961e579c297273e092645f8ac6a586a337585a9ff86b48dd07bbf04b77fb",
    ("lemma36-verdict", 1): "f1c5751b1ded24866e1d92c805d8091995d00a1e79ace819095c76c3dcb3c7b9",
    ("lemma36-verdict", 2): "b8029350fa165577000d960ab6a2e2aa07065ad7e91eb5171a698291eac36e85",
    ("lemma36-verdict", 3): "7d6ce1f27524634b9341d449200b830ee1324d96c700ad720fea541a7637abee",
    ("all", 1): "f422866b4d2d6ea4d14aa15cbbf51f8d38099082c48d8ccadf02a48fb44b2546",
    ("all", 2): "9fbf9402da7957137b159193a50a94f198c74f4fc7073c3a5cde101deeb3112d",
    ("all", 3): "4119977234058b817f91ddd8262f5d2b5376eb9cd47c9083a4722bcc6f0ba9de",
}


@pytest.mark.parametrize("suite, radius", sorted(SMALL_RADIUS_REPORT_SHA256))
def test_reports_at_small_radii_match_their_pinned_hash(suite, radius):
    report = run_suite(suite, radius, 7, 3)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SMALL_RADIUS_REPORT_SHA256[suite, radius]


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


def _diagonal_corruption(a, b, table):
    if (a, b) == (Y(1), Y(1)):
        return single(M(2))
    return table(a, b)


def _symmetric_corruption(a, b, table):
    if (a, b) in ((Y(1), M(1)), (M(1), Y(1))):
        return single(M(2))
    return table(a, b)


@pytest.mark.parametrize(
    "corruption",
    [_antisymmetric_corruption, _one_sided_corruption, _diagonal_corruption, _symmetric_corruption],
)
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


def test_jacobi_report_matches_the_brute_force_loop_on_random_single_pair_corruptions(monkeypatch):
    rng = SplitMix64(20)
    gens = Window(2).vectors()
    table = algebra.bracket_basis
    failed = 0
    for case in range(10):
        a, b = rng.choice(gens), rng.choice(gens)
        value = single(rng.choice(Window(3).vectors()), rng.randint(1, 3))
        for mirrored in (False, True):

            def corrupted(x, y, a=a, b=b, value=value, mirrored=mirrored):
                if (x, y) == (a, b):
                    return value
                if mirrored and (x, y) == (b, a):
                    return -value
                return table(x, y)

            monkeypatch.setattr(algebra, "bracket_basis", corrupted)
            [check] = run_suite("jacobi", 2)["checks"]
            expected = _brute_force_jacobi(2)
            got = {key: check[key] for key in expected}
            assert got == expected, f"case {case}: [{a}, {b}] = {value}, mirrored={mirrored}"
            failed += expected["violations"] > 0
    # most of the drawn corruptions break the Jacobi identity somewhere
    assert failed >= 10


def test_jacobi_evaluates_one_residual_per_set_of_three_generators(monkeypatch):
    calls = []

    def counted(x, y, z):
        calls.append((x, y, z))
        return jacobi_residual(x, y, z)

    monkeypatch.setattr(verify, "jacobi_residual", counted)
    [check] = run_suite("jacobi", 2)["checks"]
    n = len(Window(2).vectors())
    # on an antisymmetric table a repeated generator needs no residual, and
    # one residual decides the six orderings of three distinct generators
    assert check["cases"] == n**3
    assert len(calls) == n * (n - 1) * (n - 2) // 6 == 560

    # the multisets holding the one pair [Y[2], L[1]] that is not antisymmetric
    # evaluate each distinct ordering: six for each of the 14 other generators,
    # three for each of the two repeats; the other 546 sets keep one residual
    calls.clear()
    table = algebra.bracket_basis
    monkeypatch.setattr(algebra, "bracket_basis", lambda a, b: _one_sided_corruption(a, b, table))
    run_suite("jacobi", 2)
    assert len(calls) == (560 - 14) + 14 * 6 + 2 * 3 == 636


# One injected defect per suite check: each failure must reach the report and
# the text rendering with its name, violation count and witnesses.


def _failing_check(report, name, cases, witnesses, violations=None):
    [check] = [c for c in report["checks"] if c["name"] == name]
    violations = len(witnesses) if violations is None else violations
    assert check == {"name": name, "cases": cases, "violations": violations, "witnesses": witnesses}
    assert report["passed"] is False
    text = render_text(report)
    assert f"  [FAIL] {name}: {cases} cases, {violations} violations" in text
    for witness in witnesses:
        assert f"         witness: {witness}" in text
    assert text.endswith("\nFAIL")


def test_center_failure_names_the_basis_found(monkeypatch):
    monkeypatch.setattr(verify, "centralizer_window", lambda window: [single(M(0))])
    report = run_suite("center", radius=1)
    _failing_check(report, "centralizer-basis", 1, ["basis: M[0]"])


def test_outer_independence_failure_prints_each_bad_kernel_vector(monkeypatch):
    kernel = [
        (ZERO, ZERO, ZERO, single(M(0))),  # central: not a witness
        (ONE, ZERO, ZERO, single(C)),
        (ZERO, ZERO, ZERO, single(L(1), 2)),
    ]
    monkeypatch.setattr(verify, "outer_independence_kernel", lambda window: kernel)
    report = run_suite("derivations", radius=1, cases=1)
    _failing_check(report, "outer-independence", 3, ["c1=1 c2=0 c3=0 z=C", "c1=0 c2=0 c3=0 z=2*L[1]"])


def test_decompose_failure_carries_the_nested_classify_message(monkeypatch):
    def with_stray_term(wmap):
        images = dict(wmap.images)
        images[Y(2)] = images[Y(2)] + single(L(2))
        return derivations.decompose(WindowMap(wmap.window, images))

    monkeypatch.setattr(verify, "decompose", with_stray_term)
    report = run_suite("derivations", radius=3, cases=2)
    message = "residual not in classified span: not degree-0 into S: Y[2]"
    _failing_check(report, "decompose-roundtrip", 2, [f"case 0: {message}", f"case 1: {message}"])


def test_classify_roundtrip_failure_prints_the_fit_and_its_source(monkeypatch):
    fits = []

    def off_by_one(wmap):
        fitted = derivations.classify_degree0(wmap)
        fits.append((fitted.replace(c1=fitted.c1 + ONE), fitted))
        return fits[-1][0]

    monkeypatch.setattr(verify, "classify_degree0", off_by_one)
    report = run_suite("derivations", radius=3, cases=2)
    # the roundtrip fits first; the five y-family maps are rejected inside the real fit
    witnesses = [f"case {k}: fitted {bad} from {good}" for k, (bad, good) in enumerate(fits)]
    _failing_check(report, "classify-roundtrip", 2, witnesses)
    assert len(fits) == 2


def test_y_family_failure_names_the_accepted_coefficient(monkeypatch):
    accepted = []

    def accept_all(wmap):
        if wmap.image(L(1)).coeff(Y(1)):
            accepted.append(wmap.image(L(1)).coeff(Y(1)))
        return ClassifiedDerivation()

    monkeypatch.setattr(verify, "classify_degree0", accept_all)
    report = run_suite("derivations", radius=3, cases=1)
    assert len(accepted) == 5
    witnesses = [f"case {k}: accepted c1={format_scalar(c1)}" for k, c1 in enumerate(accepted[:3])]
    _failing_check(report, "classify-rejects-y-family", 5, witnesses, violations=5)


_FIXED = AutomorphismParams(b={1: ONE}, c={-2: ONE}, u=Scalar(3), w=Scalar(2), alpha=ONE)


def _shifted_gamma(real):
    def patched(p, q):
        r = real(p, q)
        return r.replace(gamma=r.gamma + ONE)

    return patched


def _with_extra(kinds, extra):
    real = verify.apply

    def patched(p, x):
        out = real(p, x)
        return out + single(extra) if any(bv.kind in kinds for bv in x.support()) else out

    return patched


def _action_with_extra(kinds, extra):
    patched = _with_extra(kinds, extra)
    return lambda p: lambda x: patched(p, x)


@pytest.mark.parametrize(
    "binding, defect, name, cases, witnesses",
    [
        ("compose", _shifted_gamma(verify.compose), "compose-matches-oracle-action", 2,
         ["case 0: differs on L[-1]", "case 1: differs on L[-1]"]),
        ("compose", _shifted_gamma(verify.compose), "associativity", 1, ["case 0"]),
        ("invert", lambda p: p, "inverse-roundtrip", 1, ["case 0"]),
        ("factorize", lambda wmap: identity(), "factorize-apply-identity", 1, ["case 0"]),
        ("apply", _with_extra("C", C), "central-character-and-ideals", 2,
         ["case 0: central character", "case 1: central character"]),
        ("action", _action_with_extra("YM", L(0)), "central-character-and-ideals", 2,
         ["case 0: L-term in image of Y[-1]", "case 1: L-term in image of Y[-1]"]),
        ("action", _action_with_extra("M", Y(0)), "central-character-and-ideals", 2,
         ["case 0: Y-term in image of M[-1]", "case 1: Y-term in image of M[-1]"]),
    ],
    ids=["action", "associativity", "inverse", "factorize", "central-character",
         "l-ideal", "y-ideal"],
)
def test_group_law_failure_names_the_case(monkeypatch, binding, defect, name, cases, witnesses):
    # every random automorphism is one fixed element with w^2 != 1, so each
    # defect shows in every case; the middle three checks run cases // 2 of them
    monkeypatch.setattr(verify, "random_params", lambda rng: _FIXED)
    monkeypatch.setattr(verify, binding, defect)
    report = run_suite("group-law", radius=1, cases=2)
    _failing_check(report, name, cases, witnesses)


def test_group_law_builds_three_actions_and_applies_once_per_case(monkeypatch):
    counts = {"action": 0, "apply": 0}

    def counted(name):
        real = getattr(verify, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(verify, name, counted(name))
    run_suite("group-law", 4, 0, 10)
    # action of compose(p, q), of p (reused by the ideal sweep) and of q; apply
    # only for the central character
    assert counts == {"action": 30, "apply": 10}


def test_lemma36_failure_prints_pairs_and_each_disagreeing_component(monkeypatch):
    real = verify.compose

    def wrong_oracle(p, q, radius):
        r = real(p, q)
        return r.replace(i=1 - r.i, b={**dict(r.b.items()), 9: ONE}, c={**dict(r.c.items()), 9: ONE})

    monkeypatch.setattr(verify, "compose_oracle", wrong_oracle)
    report = run_suite("lemma36-verdict", radius=1, cases=1)
    # every pair fails: the 87 curated ones, which start with (e, e), then one random
    e = identity()
    pairs = [(e, e), (e, AutomorphismParams(alpha=ONE)), (e, AutomorphismParams(beta=ONE))]
    witnesses = [f"p={params_to_json(p)} q={params_to_json(q)}" for p, q in pairs]
    _failing_check(report, "compose-matches-oracle-params", 88, witnesses, violations=88)

    relations = {r["name"]: r for r in report["relations"]}
    identity_json = params_to_json(e)
    text = render_text(report)
    for name, printed, oracle in [("i", "0", "1"), ("b", "{}", "{9: 1}"), ("c", "{}", "{9: 1}")]:
        assert relations[name]["verdict"] == "DISAGREE"
        assert relations[name]["witness"] == {
            "p": identity_json, "q": identity_json, "printed": printed, "oracle": oracle
        }
        assert f"  [DISAGREE] {name}: " in text
        assert f"         printed {printed}  oracle {oracle}" in text


# sha256 of `svlie verify --suite all --radius 4 --seed 0 --cases 100 --format json`
ALL_REPORT_SHA256 = "21b36018497f5081a067da51efad46dab82d7f2e100cedda72566ac9f9b6bcc5"


def test_the_all_report_matches_its_pinned_hash(capsys):
    code = cli.main(["verify", "--suite", "all", "--radius", "4", "--seed", "0", "--cases", "100",
                     "--format", "json"])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ALL_REPORT_SHA256
