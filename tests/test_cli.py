import json
import time

import pytest

from svlie import algebra, cli

from svlie.algebra import bracket
from svlie.autgroup import (
    AutomorphismParams,
    automorphism_window_map,
    identity,
)
from svlie.cli import _build_parser, main
from svlie.derivations import ClassifiedDerivation, classified_window_map
from svlie.expr import MAX_INDEX, classified_to_json, params_from_json, params_to_json, parse_element
from svlie.expr import window_map_to_json
from svlie.scalar import ONE, Scalar


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_text(capsys):
    code, out, _ = run(capsys, "bracket", "L[-3]", "L[3]")
    assert code == 0
    assert out.strip() == "6*L[0] - 2*C"


def test_bracket_json(capsys):
    code, out, _ = run(capsys, "bracket", "--format", "json", "L[2]", "L[-2]")
    assert code == 0
    assert json.loads(out) == {"result": "-4*L[0] + 1/2*C"}


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "bracket", "L[1", "C")
    assert code == 2
    assert "offset 3" in err


_LONG = "7" * 5000


@pytest.mark.parametrize(
    "text, offset",
    [
        ("L[\u00b2]", 2),
        ("\u00b2*L[1]", 0),
        (f"{_LONG}*L[1]", 0),
        (f"1/{_LONG}*L[1]", 2),
        (f"L[{_LONG}]", 2),
    ],
    ids=["superscript-index", "superscript-coefficient", "long-numerator",
         "long-denominator", "long-index"],
)
def test_hostile_numerals_exit_2(capsys, text, offset):
    # '\u00b2'.isdigit() is true but int() rejects it, and int() refuses a
    # 5000-digit string: both must be parse errors, caught before int() runs
    code, _, err = run(capsys, "bracket", text, "L[2]")
    assert code == 2
    assert f"syntax error at offset {offset}:" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bracket"])
    assert exc.value.code == 2


def test_exp_ad_command(capsys):
    code, out, _ = run(capsys, "exp-ad", "Y[1]", "Y[0]")
    assert code == 0
    assert out.strip() == "Y[0] - M[1]"
    code, _, err = run(capsys, "exp-ad", "L[1]", "Y[0]")
    assert code == 1
    assert "ad not nilpotent" in err


def test_apply_aut_and_compose_and_invert(tmp_path, capsys):
    p = AutomorphismParams(b={1: Scalar(1)}, i=1, u=Scalar(2), alpha=ONE)
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps(params_to_json(p)))

    code, out, _ = run(capsys, "apply-aut", "--params", str(p_file), "C")
    assert code == 0
    assert out.strip() == "-C"

    code, out, _ = run(capsys, "compose", "--format", "json", str(p_file), str(p_file))
    assert code == 0
    composed = params_from_json(json.loads(out))
    code, out, _ = run(capsys, "invert", "--format", "json", str(p_file))
    assert code == 0
    inverse = params_from_json(json.loads(out))
    from svlie.autgroup import compose

    assert compose(p, inverse) == identity()
    assert composed == compose(p, p)


def test_readme_params_example_loads(tmp_path, capsys):
    p_file = tmp_path / "p.json"
    p_file.write_text(
        '{"b": {"1": "1/2", "-2": "3"}, "c": {}, "i": 0, "u": "2", "w": "1/3",'
        ' "alpha": "1", "beta": "0", "gamma": "-2/5"}'
    )
    code, out, _ = run(capsys, "invert", "--format", "json", str(p_file))
    assert code == 0
    assert set(params_from_json(json.loads(out)).b) == {-2, 1}


@pytest.mark.parametrize(
    "key",
    ["1_0", "\uff11", " 1 ", "1" * 20, "9" * 19, "+1", "", "-"],
    ids=["underscore", "fullwidth", "spaces", "20-digits", "beyond-max-index",
         "plus-sign", "empty", "bare-minus"],
)
def test_hostile_position_keys_exit_2(tmp_path, capsys, key):
    # int() reads "1_0" as 10 and "\uff11" and " 1 " as 1
    data = params_to_json(identity())
    data["b"] = {key: "1"}
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "apply-aut", "--params", str(p_file), "L[0]")
    assert code == 2
    assert out == ""
    assert "syntax error at offset" in err


def test_oversized_power_exits_1_before_it_is_built(tmp_path, capsys):
    # degree_scale(2) sends L[n] to 2^n L[n]; 2^(2^63 - 1) must not be attempted
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps(params_to_json(AutomorphismParams(u=Scalar(2)))))
    code, out, err = run(capsys, "apply-aut", "--params", str(p_file), "L[9223372036854775807]")
    assert code == 1
    assert out == ""
    assert "scalar power too large" in err


def test_result_index_past_max_index_exits_1(capsys):
    # Y[n] and M[k] grow past the input limit; the engine computes them, the printer refuses
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "exp-ad", "--format", fmt, f"Y[{MAX_INDEX}]", f"L[{MAX_INDEX}]")
        assert code == 1
        assert out == ""
        assert err == (
            f"error: result index too large: {3 * MAX_INDEX} is past the input limit "
            f"+/-{MAX_INDEX}\n"
        )


def test_result_position_past_max_index_exits_1(tmp_path, capsys):
    # [Y[j], Y[k]] feeds c at j + k
    p_file, q_file = tmp_path / "p.json", tmp_path / "q.json"
    p_file.write_text(json.dumps({"b": {str(MAX_INDEX): "1"}, "u": "1", "w": "1"}))
    q_file.write_text(json.dumps({"b": {str(MAX_INDEX - 1): "1"}, "u": "1", "w": "1"}))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "compose", "--format", fmt, str(p_file), str(q_file))
        assert code == 1
        assert out == ""
        assert f"result index too large: {2 * MAX_INDEX - 1} is past the input limit" in err


def test_result_at_max_index_prints_and_parses_back(tmp_path, capsys):
    code, out, _ = run(capsys, "bracket", "L[0]", f"Y[{MAX_INDEX}]")
    assert code == 0
    assert parse_element(out) == bracket(parse_element("L[0]"), parse_element(f"Y[{MAX_INDEX}]"))
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps({"b": {str(-MAX_INDEX): "1"}, "u": "1", "w": "1"}))
    code, out, _ = run(capsys, "invert", str(p_file))
    assert code == 0
    assert params_from_json(json.loads(out)) == AutomorphismParams(b={-MAX_INDEX: -ONE})


def test_apply_der(tmp_path, capsys):
    deriv = ClassifiedDerivation(c1=ONE)
    d_file = tmp_path / "d.json"
    d_file.write_text(json.dumps(classified_to_json(deriv)))
    code, out, _ = run(capsys, "apply-der", "--params", str(d_file), "L[5]")
    assert code == 0
    assert out.strip() == "M[5]"


def test_factorize_roundtrip(tmp_path, capsys):
    p = AutomorphismParams(alpha=ONE, beta=Scalar(2), gamma=Scalar(3))
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps(window_map_to_json(automorphism_window_map(p, 3))))
    code, out, _ = run(capsys, "factorize", "--format", "json", str(m_file))
    assert code == 0
    assert params_from_json(json.loads(out)) == p


def test_factorize_rejects_non_automorphism(tmp_path, capsys):
    wmap = classified_window_map(ClassifiedDerivation(c1=ONE), 3)
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps(window_map_to_json(wmap)))
    code, _, err = run(capsys, "factorize", str(m_file))
    assert code == 1
    assert "not an automorphism" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "invert", str(bad))
    assert code == 2
    assert "invalid JSON" in err
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "invert", str(missing))
    assert code == 2


def test_boolean_parity_exits_2(tmp_path, capsys):
    data = params_to_json(AutomorphismParams(i=1))
    data["i"] = True
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "invert", "--format", "json", str(p_file))
    assert code == 2
    assert out == ""
    assert "parity" in err


def test_boolean_radius_exits_2(tmp_path, capsys):
    data = window_map_to_json(automorphism_window_map(identity(), 1))
    data["radius"] = True
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps(data))
    code, _, err = run(capsys, "factorize", str(m_file))
    assert code == 2
    assert "radius must be an integer" in err


def test_window_map_with_a_huge_radius_is_rejected_before_enumerating(tmp_path, capsys):
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps({"radius": 10**12, "images": {"C": "0"}}))
    code, out, err = run(capsys, "factorize", str(m_file))
    assert code == 2
    assert out == ""
    assert "window map must define exactly the in-window basis vectors" in err


@pytest.mark.parametrize("images", [[], "L[0]"])
def test_non_object_images_exit_2(tmp_path, capsys, images):
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps({"radius": 1, "images": images}))
    code, out, err = run(capsys, "factorize", str(m_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "images must be an object of basis vector -> element" in err


@pytest.mark.parametrize("content", ["[]", '"L[0]"', "3", "null"])
def test_a_file_that_is_not_a_json_object_exits_2(tmp_path, capsys, content):
    p_file = tmp_path / "p.json"
    p_file.write_text(content)
    code, out, err = run(capsys, "invert", str(p_file))
    assert code == 2
    assert out == ""
    assert err == f"error: {p_file}: expected a JSON object\n"


@pytest.mark.parametrize("field, value", [("b", []), ("c", "1"), ("b", None)])
def test_non_object_b_or_c_exits_2(tmp_path, capsys, field, value):
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps({field: value, "u": "1", "w": "1"}))
    code, out, err = run(capsys, "invert", str(p_file))
    assert code == 2
    assert out == ""
    assert err == f"error: {p_file}: {field} must be an object of position -> scalar\n"


@pytest.mark.parametrize(
    "argv",
    [("invert", "{path}"), ("factorize", "{path}"), ("apply-aut", "--params", "{path}", "L[0]")],
)
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    # far deeper than any recursion limit the decoder could be running under
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *(arg.format(path=deep) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "nested too deeply" in err


@pytest.mark.parametrize(
    "content",
    [b'{"u": ' + b"1" * 5000 + b', "w": "1"}', b'{"u": "1", "w": "1"}\xff'],
    ids=["integer-over-the-digit-limit", "not-utf-8"],
)
def test_undecodable_file_exits_2_and_names_it(tmp_path, capsys, content):
    p_file = tmp_path / "p.json"
    p_file.write_bytes(content)
    code, out, err = run(capsys, "invert", str(p_file))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {p_file}: invalid JSON: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (["invert"], '{"u": 1e999, "w": "1"}', "u: expected a scalar string, not float"),
        (["invert"], '{"u": NaN, "w": "1"}', "u: expected a scalar string, not float"),
        (["invert"], '{"u": 2, "w": "1"}', "u: expected a scalar string, not int"),
        (["apply-der", "L[0]", "--params"], '{"c1": 1, "c2": "0", "c3": "0", "inner": "0"}',
         "c1: expected a scalar string, not int"),
        (["factorize"], '{"radius": 1, "images": {"L[0]": 5}}',
         "images[L[0]]: expected an element string, not int"),
    ],
    ids=["u-infinity", "u-nan", "u-int", "c1-int", "image-int"],
)
def test_non_string_field_exits_2_and_names_it(tmp_path, capsys, argv, content, message):
    j_file = tmp_path / "f.json"
    j_file.write_text(content)
    code, out, err = run(capsys, *argv, str(j_file))
    assert code == 2
    assert out == ""
    assert err == f"error: {j_file}: {message}\n"


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (["invert"], '{"b": {"1": "1", "01": "5"}, "u": "1", "w": "1", "u": "2"}',
         "invalid JSON: repeated key 'u'"),
        (["invert"], '{"b": {"1": "1", "1": "5"}, "u": "1", "w": "1"}', "invalid JSON: repeated key '1'"),
        (["invert"], '{"b": {"1": "1", "01": "5"}, "u": "1", "w": "1"}', "b[01] repeats position 1"),
        (["invert"], '{"c": {"-2": "1", "-002": "5"}, "u": "1", "w": "1"}', "c[-002] repeats position -2"),
        (["factorize"], '{"radius": 1, "images": {"L[1]": "L[1]", "L[01]": "5*L[1]"}}',
         "images[L[01]] repeats L[1]"),
        (["factorize"], '{"radius": 1, "images": {"C": "C", "C": "C"}}', "invalid JSON: repeated key 'C'"),
    ],
    ids=["top-level-key", "b-key", "b-position", "c-position", "images-basis-vector", "images-key"],
)
def test_repeated_key_exits_2_and_names_it(tmp_path, capsys, argv, content, message):
    j_file = tmp_path / "f.json"
    j_file.write_text(content)
    code, out, err = run(capsys, *argv, str(j_file))
    assert code == 2
    assert out == ""
    assert err == f"error: {j_file}: {message}\n"


@pytest.mark.parametrize(
    "argv, content, field",
    [
        (["invert"], '{"u": "1"}', "w"),
        (["factorize"], '{"radius": 3}', "images"),
        (["apply-der", "L[0]", "--params"], '{"c1": "1"}', "c2"),
    ],
    ids=["invert-w", "factorize-images", "apply-der-c2"],
)
def test_missing_field_exits_2_and_names_it(tmp_path, capsys, argv, content, field):
    j_file = tmp_path / "f.json"
    j_file.write_text(content)
    code, out, err = run(capsys, *argv, str(j_file))
    assert code == 2
    assert out == ""
    assert err == f"error: {j_file}: missing field '{field}'\n"


@pytest.mark.parametrize(
    "argv, content, field",
    [
        (["apply-aut", "L[1]", "--params"], '{"u": "1", "w": "1", "gama": "1"}', "gama"),
        (["invert"], '{"B": {"1": "1"}, "u": "1", "w": "1"}', "B"),
        (["apply-der", "L[0]", "--params"], '{"c1": "1", "c2": "0", "c3": "0", "inner": "0", "c4": "1"}',
         "c4"),
        (["factorize"], '{"radius": 3, "radius2": 4, "images": {}}', "radius2"),
    ],
    ids=["params-gama", "params-B", "derivation-c4", "window-map-radius2"],
)
def test_unknown_field_exits_2_and_names_it(tmp_path, capsys, argv, content, field):
    j_file = tmp_path / "f.json"
    j_file.write_text(content)
    code, out, err = run(capsys, *argv, str(j_file))
    assert code == 2
    assert out == ""
    assert err == f"error: {j_file}: unknown field '{field}'\n"


def _sum_of_terms(n):
    return " + ".join(f"(1/{k + 1})*L[{k}]" for k in range(n))


def _refuse_work(*args):
    raise AssertionError("work started on an input over the term limit")


@pytest.mark.parametrize("where", ["x", "y"])
def test_element_over_256_terms_exits_2_before_any_bracket(capsys, monkeypatch, where):
    monkeypatch.setattr(cli, "bracket", _refuse_work)
    x = _sum_of_terms(257) if where == "x" else "L[1]"
    y = _sum_of_terms(257) if where == "y" else "L[1]"
    start = time.perf_counter()
    code, out, err = run(capsys, "bracket", x, y)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "expected end of element (at most 256 terms)" in err


def test_element_of_256_terms_is_accepted(capsys):
    code, out, _ = run(capsys, "bracket", _sum_of_terms(256), "M[0]")
    assert code == 0
    assert out.strip() == "0"
    # [L[1], L[k]] = (k - 1) L[k+1]: every term but k = 1 survives
    code, out, _ = run(capsys, "bracket", "L[1]", _sum_of_terms(256))
    assert code == 0
    assert out.count("L[") == 255


def test_exp_ad_over_its_work_budget_exits_1(capsys):
    # [x, t] has 128 * 128 - 1 terms, so [x, [x, t]] would need 2,097,024 basis brackets
    x = " + ".join(f"Y[{1000 * j + 1}]" for j in range(128))
    t = " + ".join(f"L[{k}]" for k in range(128))
    code, out, err = run(capsys, "exp-ad", "--", x, t)
    assert code == 1
    assert out == ""
    assert err == "error: exp_ad too large: [x, [x, t]] needs 2097024 basis brackets, over the limit of 65536\n"


def test_apply_aut_over_the_first_bracket_budget_exits_1_before_any_bracket(tmp_path, capsys, monkeypatch):
    # the inner exponent holds b and c, 512 terms, and the element 256, so
    # [x, t] would need 131,072 basis brackets
    data = params_to_json(identity())
    data["b"] = data["c"] = {str(k): "1/2" for k in range(1, 257)}
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps(data))
    calls = 0
    table = algebra.bracket_basis

    def counted(a, b):
        nonlocal calls
        calls += 1
        return table(a, b)

    monkeypatch.setattr(algebra, "bracket_basis", counted)
    code, out, err = run(capsys, "apply-aut", "--params", str(p_file), _sum_of_terms(256))
    assert (code, out) == (1, "")
    assert err == "error: exp_ad too large: [x, t] needs 131072 basis brackets, over the limit of 65536\n"
    assert calls == 0


def test_element_field_over_256_terms_exits_2(tmp_path, capsys):
    d_file = tmp_path / "d.json"
    d_file.write_text(json.dumps({"c1": "0", "c2": "0", "c3": "0", "inner": _sum_of_terms(257)}))
    code, out, err = run(capsys, "apply-der", "--params", str(d_file), "L[0]")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {d_file}: syntax error at offset ")
    assert "(at most 256 terms)" in err


def _params_with(field, n):
    data = params_to_json(identity())
    data[field] = {str(k): "1/2" for k in range(1, n + 1)}
    return data


@pytest.mark.parametrize("field", ["b", "c"])
def test_params_over_256_entries_exit_2_before_any_value_is_parsed(tmp_path, capsys, monkeypatch, field):
    monkeypatch.setattr(cli, "compose", _refuse_work)
    big, small = tmp_path / "big.json", tmp_path / "small.json"
    big.write_text(json.dumps(_params_with(field, 257)))
    small.write_text(json.dumps(_params_with(field, 1)))
    for pair in ((big, small), (small, big)):
        start = time.perf_counter()
        code, out, err = run(capsys, "compose", *map(str, pair))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == f"error: {big}: {field} has 257 entries, over the limit of 256\n"


@pytest.mark.parametrize("field", ["b", "c"])
def test_params_of_256_entries_are_accepted(tmp_path, capsys, field):
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps(_params_with(field, 256)))
    code, out, _ = run(capsys, "invert", "--format", "json", str(p_file))
    assert code == 0
    assert len(json.loads(out)[field]) == 256


def _stub(*args):
    raise ValueError("stub")


_ENGINE_CALLS = [
    ("bracket", ["bracket", "L[1]", "L[2]"]),
    ("apply_automorphism", ["apply-aut", "--params", "{p}", "L[1]"]),
    ("apply_classified", ["apply-der", "--params", "{d}", "L[1]"]),
    ("compose", ["compose", "{p}", "{p}"]),
    ("invert", ["invert", "{p}"]),
    ("factorize", ["factorize", "{m}"]),
    ("exp_ad", ["exp-ad", "Y[1]", "L[1]"]),
]


def test_every_table_command_has_an_engine_call_case():
    assert [argv[0] for _, argv in _ENGINE_CALLS] == list(cli._COMMANDS)


@pytest.mark.parametrize("binding, argv", _ENGINE_CALLS, ids=[a[0] for _, a in _ENGINE_CALLS])
def test_each_command_calls_the_engine_through_its_cli_binding(
    tmp_path, capsys, monkeypatch, binding, argv
):
    # bench/tracer.py times the engine by rebinding these module globals
    files = {"p": tmp_path / "p.json", "d": tmp_path / "d.json", "m": tmp_path / "m.json"}
    files["p"].write_text(json.dumps(params_to_json(identity())))
    files["d"].write_text(json.dumps(classified_to_json(ClassifiedDerivation(c1=ONE))))
    files["m"].write_text(json.dumps(window_map_to_json(automorphism_window_map(identity(), 2))))
    monkeypatch.setattr(cli, binding, _stub)
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert (code, out, err) == (1, "", "error: stub\n")


_TOP_HELP = """\
usage: svlie [-h]
             {bracket,apply-aut,apply-der,compose,invert,factorize,exp-ad,verify}
             ...

Exact computations in the twisted Schrodinger-Virasoro Lie algebra: brackets,
derivations, automorphisms, and verification suites.

positional arguments:
  {bracket,apply-aut,apply-der,compose,invert,factorize,exp-ad,verify}
    bracket             bracket of two elements
    apply-aut           apply an automorphism
    apply-der           apply a classified derivation
    compose             compose two automorphisms (left acts last)
    invert              invert an automorphism
    factorize           factor a window map into canonical parameters
    exp-ad              apply exp(ad x) for x in the Y/M span
    verify              run a verification suite

options:
  -h, --help            show this help message and exit
"""

_VERIFY_HELP = """\
usage: svlie verify [-h] [--format {text,json}]
                    [--suite {jacobi,center,derivations,hom-vanishing,group-law,lemma36-verdict,all}]
                    [--radius RADIUS] [--seed SEED] [--cases CASES]

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
  --suite {jacobi,center,derivations,hom-vanishing,group-law,lemma36-verdict,all}
  --radius RADIUS
  --seed SEED
  --cases CASES
"""


@pytest.mark.parametrize("argv, text", [(["--help"], _TOP_HELP), (["verify", "--help"], _VERIFY_HELP)])
def test_help_text_is_pinned(monkeypatch, capsys, argv, text):
    # argparse wraps to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out == text


def test_verify_exit_status_and_determinism(capsys):
    code, out1, _ = run(
        capsys, "verify", "--suite", "center", "--radius", "3", "--format", "json"
    )
    assert code == 0
    code, out2, _ = run(
        capsys, "verify", "--suite", "center", "--radius", "3", "--format", "json"
    )
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True


def test_verify_text_output(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "jacobi", "--radius", "2")
    assert code == 0
    assert out.strip().endswith("PASS")


@pytest.mark.parametrize(
    "option, value",
    [("--radius", "17"), ("--cases", "1001"), ("--cases", "0"), ("--radius", "1_6"),
     ("--cases", "\uff11"), ("--radius", " 4")],
)
def test_verify_ceilings_exit_2(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", option, value])
    assert exc.value.code == 2
    assert "must be an integer from 1 to" in capsys.readouterr().err


def test_verify_ceilings_admit_their_limits():
    args = _build_parser().parse_args(["verify", "--radius", "16", "--cases", "1000"])
    assert (args.radius, args.cases) == (16, 1000)


def test_verify_rejects_bad_radius(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--radius", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["1_0", " ７", "+1", "1" * 21, "", "-", "--1", "3 "])
def test_verify_seed_is_ascii_digits_only(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "center", "--radius", "1", f"--seed={value}"])
    assert exc.value.code == 2
    assert "--seed: must be an optional '-' and 1 to 20 ASCII digits" in capsys.readouterr().err


@pytest.mark.parametrize("value, seed", [("-3", -3), ("0", 0), ("9" * 20, 10**20 - 1)])
def test_verify_seed_admits_signed_ascii_digits(capsys, value, seed):
    code, out, _ = run(
        capsys, "verify", "--suite", "center", "--radius", "1", "--seed", value, "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["seed"] == seed


def test_sequential_main_calls_share_no_state(capsys):
    code, out, _ = run(capsys, "bracket", "--format", "json", "L[2]", "L[-2]")
    assert (code, json.loads(out)) == (0, {"result": "-4*L[0] + 1/2*C"})
    code, out, _ = run(capsys, "bracket", "L[2]", "L[-2]")
    assert (code, out) == (0, "-4*L[0] + 1/2*C\n")

    code, out, _ = run(capsys, "verify", "--suite", "center", "--radius", "3", "--format", "json")
    assert (code, json.loads(out)["radius"]) == (0, 3)
    code, out, _ = run(capsys, "verify", "--suite", "center", "--format", "json")
    report = json.loads(out)
    assert (code, report["radius"], report["seed"], report["cases"]) == (0, 4, 0, 100)

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--radius", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "bracket", "L[-3]", "L[3]")
    assert (code, out) == (0, "6*L[0] - 2*C\n")
