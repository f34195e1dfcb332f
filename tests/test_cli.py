import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fanotoric
from fanotoric import cli
from fanotoric.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FANS = Path(__file__).resolve().parent / "fans"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def write(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def hirzebruch_doc(n):
    return {
        "base": {"components": [{"letter": "A", "rank": 1}], "crossed": [1]},
        "zk_basis": [["-2"]],
        "fiber": {"kind": "projective_space", "dim": 1},
        "tau": [[n]],
    }


def test_check_hirzebruch_n1(capsys):
    report = run_json(capsys, "check", str(CONFIGS / "hirzebruch_n1.json"))
    assert report["verdict"]["is_fano"] is True
    assert report["tau_integrality"] is True
    values = sorted(e["value"] for e in report["margins"])
    assert values == ["1/4", "3/4"]


def test_check_hirzebruch_n2_zero_margin(capsys):
    report = run_json(capsys, "check", str(CONFIGS / "hirzebruch_n2.json"))
    assert report["verdict"]["is_fano"] is False
    assert any(e["value"] == "0" for e in report["violations"])


def test_check_exit_zero_even_when_not_fano(capsys):
    code, out, err = run(capsys, "check", str(CONFIGS / "hirzebruch_n2.json"))
    assert code == 0
    assert "is fano: no" in out


def test_check_so20_true_so16_false(capsys):
    r20 = run_json(capsys, "check", str(CONFIGS / "so20.json"))
    assert r20["verdict"]["is_fano"] is True
    assert any(e["value"] == "1/18" for e in r20["margins"])
    r16 = run_json(capsys, "check", str(CONFIGS / "so16.json"))
    assert r16["verdict"]["is_fano"] is False
    assert any(e["value"] == "0" for e in r16["violations"])


def test_human_and_json_agree_on_rationals(capsys):
    report = run_json(capsys, "check", str(CONFIGS / "so20.json"))
    code, human, _ = run(capsys, "check", str(CONFIGS / "so20.json"))
    assert code == 0
    for entry in report["margins"]:
        assert f"-> {entry['value']}" in human


def test_reports_are_byte_identical(capsys):
    first = run(capsys, "check", str(CONFIGS / "hirzebruch_n1.json"), "--json")
    second = run(capsys, "check", str(CONFIGS / "hirzebruch_n1.json"), "--json")
    assert first == second
    h1 = run(capsys, "check", str(CONFIGS / "hirzebruch_n1.json"))
    h2 = run(capsys, "check", str(CONFIGS / "hirzebruch_n1.json"))
    assert h1 == h2


def test_flag_info_so20(capsys):
    report = run_json(capsys, "flag-info", str(CONFIGS / "so20.json"))
    assert report["flag"]["r_m_plus_count"] == 70
    assert report["flag"]["in_chamber"] is True


def test_flag_info_empty_crossed_warns(capsys, tmp_path):
    doc = {"base": {"components": [{"letter": "A", "rank": 2}], "crossed": []}}
    report = run_json(capsys, "flag-info", write(tmp_path, doc))
    assert any("no bundle possible" in w for w in report["warnings"])


def test_polytope_cp2(capsys, tmp_path):
    doc = {"fiber": {"kind": "projective_space", "dim": 2}}
    report = run_json(capsys, "polytope", write(tmp_path, doc))
    assert report["fiber"]["polytope_vertices"] == [
        ["-1", "-1"],
        ["2", "-1"],
        ["-1", "2"],
    ]


def test_polytope_cp1xcp1(capsys):
    report = run_json(capsys, "polytope", str(CONFIGS / "cp1xcp1_polytope.json"))
    assert sorted(tuple(v) for v in report["fiber"]["polytope_vertices"]) == [
        ("-1", "-1"),
        ("-1", "1"),
        ("1", "-1"),
        ("1", "1"),
    ]


def test_polytope_f2_warns_not_fano(capsys, tmp_path):
    doc = {
        "fiber": {
            "kind": "fan",
            "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
        }
    }
    report = run_json(capsys, "polytope", write(tmp_path, doc))
    assert report["fiber"]["fano"] is False
    assert any("not Fano" in w for w in report["warnings"])
    assert len(report["fiber"]["polytope_vertices"]) == 4


@pytest.mark.parametrize("name", ["winding", "folding"])
def test_overlapping_fans_exit_2(capsys, name):
    code, out, err = run(capsys, "check", str(FANS / f"{name}.json"))
    assert (code, out) == (2, "")
    assert err == "error: fan is not complete\n"
    code, _, err = run(capsys, "polytope", str(FANS / f"{name}.json"))
    assert code == 2 and "not smooth and complete" in err


def test_degenerate_cone_fan_exits_2_without_traceback(capsys, tmp_path):
    # Cone 2 holds two opposite rays: its determinant is 0, yet every facet
    # lies in two cones.  The facet test refuses it before the cover test.
    doc = a3_p2_doc({"kind": "scale", "range": [0, 2]})
    doc["fiber"] = {
        "kind": "fan",
        "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [0, 2]],
    }
    path = write(tmp_path, doc)
    not_smooth = "error: fan is not smooth: non-unimodular cones (2,)\n"
    assert run(capsys, "check", path) == (2, "", not_smooth)
    assert run(capsys, "scan", path) == (2, "", not_smooth)
    assert run(capsys, "polytope", path) == (
        2,
        "",
        "error: fan is not smooth and complete; no canonical polytope\n",
    )


def _config(name):
    return cli.Config(json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", ["hirzebruch_n2", "so16"])
def test_margin_table_has_a_row_per_vertex_and_a_column_per_root(name):
    cfg = _config(name)
    flag = cli._build_flag(cfg)
    fan = cli._build_fan(cfg.fiber_spec, "fiber")
    verdict = cli.fano_check(flag, fan, cli._build_tau(cfg))
    assert len(verdict.margins) == len(verdict.fiber.polytope.vertices) > 0
    assert all(len(row) == len(flag.r_m_plus) for row in verdict.margins)


@pytest.mark.parametrize("name", ["hirzebruch_n2", "so16"])
def test_check_report_shares_one_list_per_root_and_per_vertex(name):
    # _json_text writes a shared list once; copies would only cost time.
    report = cli.cmd_check(_config(name), False)
    vertices = report["fiber"]["polytope_vertices"]
    roots = {}
    for entry in report["margins"]:
        assert entry["vertex"] is vertices[entry["vertex_index"]]
        assert roots.setdefault(tuple(entry["root"]), entry["root"]) is entry["root"]
    assert len(roots) == report["flag"]["r_m_plus_count"]


def test_check_f2_bundle_not_fano(capsys):
    report = run_json(capsys, "check", str(CONFIGS / "f2_bundle.json"))
    assert report["verdict"]["fiber_fano"] is False
    assert report["verdict"]["is_fano"] is False


def test_scan_hirzebruch(capsys):
    report = run_json(capsys, "scan", str(CONFIGS / "hirzebruch_scan.json"))
    entries = report["scan"]["entries"]
    fano_set = [e["k"] for e in entries if e["is_fano"]]
    assert fano_set == [0, 1]
    assert report["scan"]["summary"] == {"fano": 2, "not_fano": 4, "skipped": 0}


def test_scan_box_mode(capsys, tmp_path):
    doc = hirzebruch_doc(1)
    doc["scan"] = {"kind": "box", "bound": 3}
    report = run_json(capsys, "scan", write(tmp_path, doc))
    entries = report["scan"]["entries"]
    assert len(entries) == 7
    fano = sorted(e["tau"][0][0] for e in entries if e["is_fano"])
    assert fano == ["-1", "0", "1"]
    taus = [e["tau"] for e in entries]
    assert taus == sorted(taus, key=lambda t: int(t[0][0]))


def test_scan_empty_range(capsys, tmp_path):
    doc = hirzebruch_doc(1)
    doc["scan"] = {"kind": "scale", "range": [3, 2]}
    report = run_json(capsys, "scan", write(tmp_path, doc))
    assert report["scan"]["entries"] == []


def a3_p2_doc(scan):
    return {
        "base": {"components": [{"letter": "A", "rank": 3}], "crossed": [1, 3]},
        "fiber": {"kind": "projective_space", "dim": 2},
        "tau": [[1, 0], [0, 1]],
        "scan": scan,
    }


DEPENDENT = {"zk_basis": [[1, 0, 0], [2, 0, 0]]}
EMPTY_RANGE = {"scan": {"kind": "scale", "range": [3, 1]}}
ONE_ROW = {"tau": [[1, 0]]}
NON_SMOOTH = {
    "kind": "fan",
    "rays": [[1, 0], [0, 1], [-1, -2]],
    "max_cones": [[0, 1], [1, 2], [2, 0]],
}


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param(
            {**DEPENDENT, "scan": {"kind": "scale", "range": [0, 5]}},
            "declared basis is dependent",
            id="dependent-basis",
        ),
        pytest.param(
            {**DEPENDENT, **EMPTY_RANGE},
            "declared basis is dependent",
            id="dependent-basis-empty-range",
        ),
        pytest.param(
            {"tau": [[1, 0, 0], [0, 1, 0]], **EMPTY_RANGE},
            "tau matrix has 3 columns, expected 2",
            id="tau-width-empty-range",
        ),
        pytest.param(
            {"fiber": NON_SMOOTH, **EMPTY_RANGE},
            "fan is not smooth: non-unimodular cones (2,)",
            id="non-smooth-fiber-empty-range",
        ),
        pytest.param(
            {**ONE_ROW, "scan": {"kind": "box", "bound": 1}},
            "fan dimension 2 does not match tau rows 1",
            id="tau-rows-box",
        ),
        pytest.param(
            {**ONE_ROW, "scan": {"kind": "scale", "range": [0, 2]}},
            "fan dimension 2 does not match tau rows 1",
            id="tau-rows-scale",
        ),
    ],
)
def test_scan_config_error_exits_2_like_check(capsys, tmp_path, change, message):
    path = write(tmp_path, {**a3_p2_doc(None), **change})
    check = run(capsys, "check", path)
    scan = run(capsys, "scan", path)
    assert check == scan == (2, "", f"error: {message}\n")


def test_scan_explosion_guard(capsys, tmp_path):
    doc = hirzebruch_doc(1)
    doc["scan"] = {"kind": "scale", "range": [0, 50]}
    code, out, err = run(capsys, "scan", write(tmp_path, doc), "--max", "10")
    assert code == 2
    assert "cap" in err
    # 121^4 (about 2.1e8) box matrices: refused before any is enumerated.
    start = time.perf_counter()
    path = write(tmp_path, a3_p2_doc({"kind": "box", "bound": 60}))
    code, out, err = run(capsys, "scan", path)
    assert (code, out) == (2, "")
    assert err == (
        "error: scan would enumerate 214358881 instances, over the cap 10000; "
        "raise it with --max\n"
    )
    assert time.perf_counter() - start < 5.0


def test_scan_box_bound_past_every_range_exits_2(capsys, tmp_path):
    # (2 * 10^800 + 1)^6 has more digits than str may print, and no range
    # of 2 * 10^800 + 1 ints has a length: both wait for the cap check.
    doc = {
        "base": {"components": [{"letter": "A", "rank": 2}], "crossed": [1, 2]},
        "fiber": {"kind": "projective_space", "dim": 3},
        "tau": [[1, 0], [0, 1], [1, 1]],
        "scan": {"kind": "box", "bound": 10**800},
    }
    code, out, err = run(capsys, "scan", write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == (
        f"error: scan would enumerate at least 10^{sys.get_int_max_str_digits()} "
        "instances, over the cap 10000; raise it with --max\n"
    )


@pytest.mark.parametrize(
    "scan, extra, message",
    [
        pytest.param(
            {"kind": "scale", "range": [1, 3], "cap": -1}, [], "scan.cap", id="cap"
        ),
        pytest.param({"kind": "box", "bound": -1}, [], "scan.bound", id="bound"),
        pytest.param(
            {"kind": "scale", "range": [1, 3]}, ["--max", "-1"], "--max", id="max"
        ),
    ],
)
def test_negative_scan_limits_exit_2_naming_the_field(
    capsys, tmp_path, scan, extra, message
):
    path = write(tmp_path, {**hirzebruch_doc(1), "scan": scan})
    expected = (2, "", f"error: {message}: must be >= 0\n")
    assert run(capsys, "scan", path, *extra) == expected


def test_oracle_flag(capsys):
    report = run_json(capsys, "check", str(CONFIGS / "hirzebruch_n1.json"), "--oracle")
    oracle = report["oracle"]
    assert oracle["fixed_point_exact_match"] is True
    assert oracle["fs_fixed_point_max_error"] < 1e-8
    assert oracle["samples_in_polytope"] is True
    assert oracle["barycenter_norm"] < 1e-4


def test_oracle_flag_warns_for_fan_fiber(capsys):
    report = run_json(capsys, "check", str(CONFIGS / "f2_bundle.json"), "--oracle")
    assert report["oracle"] is None
    assert any("oracle" in w for w in report["warnings"])


def projective_doc(dim):
    return {
        "base": {"components": [{"letter": "A", "rank": 1}], "crossed": [1]},
        "fiber": {"kind": "projective_space", "dim": dim},
        "tau": [[1]] * dim,
    }


@pytest.mark.parametrize("command", ["check", "polytope"])
@pytest.mark.parametrize("dim", [6, 7, 8])
def test_oracle_skips_the_quadrature_above_dim_6(capsys, tmp_path, monkeypatch, command, dim):
    # 12^m quadrature nodes: about 600 MB at m = 6, 7 GB at 7, 85 GB at 8.
    from fanotoric import numcheck

    calls = []
    monkeypatch.setattr(
        numcheck, "barycenter_integral", lambda m, n: calls.append(n) or (0.0,) * m
    )
    report = run_json(capsys, command, write(tmp_path, projective_doc(dim)), "--oracle")
    warning = "oracle: comparison available only up to projective_space dim 6"
    if dim <= cli.MAX_ORACLE_DIM:
        assert (calls, report["oracle"]["fiber_dim"]) == ([12**dim], dim)
        assert warning not in report["warnings"]
    else:
        assert (calls, report["oracle"]) == ([], None)
        assert warning in report["warnings"]


@pytest.mark.parametrize(
    "fields, unknown",
    [
        ({"zk_bases": [["-2"]]}, "zk_bases"),
        ({"cocharacter": [["-2"]]}, "cocharacter"),
        ({"zz": 1, "aa": 2}, "zz"),
        ({"base": {"components": [{"letter": "A", "rank": 1}], "crossed": [1],
                   "painting": [1]}}, "base.painting"),
        ({"base": {"components": [{"letter": "A", "ranks": 1, "rank": 1}], "crossed": [1]}},
         "base.components[0].ranks"),
        ({"fiber": {"kind": "projective_space", "dim": 1, "rays": []}}, "fiber.rays"),
        ({"fiber": {"kind": "fan", "rays": [[1], [-1]], "max_cones": [[0], [1]],
                    "cones": []}}, "fiber.cones"),
        ({"fiber": {"kind": "product", "dim": 1,
                    "parts": [{"kind": "projective_space", "dim": 1}]}}, "fiber.dim"),
        ({"fiber": {"kind": "product",
                    "parts": [{"kind": "projective_space", "dim": 1, "size": 2}]}},
         "fiber.parts[0].size"),
        ({"scan": {"kind": "scale", "range": [1, 2], "bound": 1}}, "scan.bound"),
        ({"scan": {"kind": "box", "bound": 1, "range": [1, 2]}}, "scan.range"),
    ],
    ids=["top", "top-cocharacter", "top-first-in-order", "base", "component",
         "fiber-projective", "fiber-fan", "fiber-product", "fiber-part", "scan-scale",
         "scan-box"],
)
def test_unknown_config_field_exits_2_naming_it(capsys, tmp_path, fields, unknown):
    doc = {**json.loads((CONFIGS / "hirzebruch_n1.json").read_text()), **fields}
    for command in ("check", "scan"):
        code, out, err = run(capsys, command, write(tmp_path, doc))
        assert (code, out, err) == (2, "", f"error: {unknown}: unknown field\n")


def test_bad_crossed_index_names_field(capsys, tmp_path):
    doc = hirzebruch_doc(1)
    doc["base"]["crossed"] = [3]
    code, out, err = run(capsys, "check", write(tmp_path, doc))
    assert code == 2
    assert "base.crossed[0]" in err


def test_repeated_crossed_node_names_field(capsys, tmp_path):
    # Without the check the duplicate was dropped and this two-column tau
    # failed on its width instead.
    doc = hirzebruch_doc(1)
    doc["base"]["crossed"] = [1, 1]
    doc["tau"] = [[1, 1]]
    code, out, err = run(capsys, "check", write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == "error: base.crossed[1]: node 1 repeated\n"


def test_bad_rational_names_field(capsys, tmp_path):
    doc = hirzebruch_doc(1)
    doc["tau"] = [["1/0"]]
    code, out, err = run(capsys, "check", write(tmp_path, doc))
    assert code == 2
    assert "tau[0][0]" in err


@pytest.mark.parametrize("letter", ["AB", "EF", ""])
def test_dynkin_letter_of_two_characters_or_none_exits_2(capsys, tmp_path, letter):
    doc = hirzebruch_doc(1)
    doc["base"]["components"] = [{"letter": letter, "rank": 6}]
    code, out, err = run(capsys, "check", write(tmp_path, doc))
    assert code == 2
    assert "base.components[0]" in err


@pytest.mark.parametrize(
    "text",
    ["1e5000", "1e10000000", "0.5", " 1/2", "1/2 ", "1_000", "\u0663"],
    ids=["exponent", "huge-exponent", "decimal", "leading-space", "trailing-space",
         "underscore", "arabic-indic-digit"],
)
def test_rational_strings_outside_integer_or_p_q_rejected(capsys, tmp_path, text):
    doc = hirzebruch_doc(1)
    doc["tau"] = [[text]]
    code, out, err = run(capsys, "check", write(tmp_path, doc))
    assert code == 2
    assert err == f"error: tau[0][0]: invalid rational {text!r}\n"


def test_signed_rational_strings_accepted(capsys, tmp_path):
    doc = hirzebruch_doc(1)
    doc["tau"] = [["+2/2"]]
    assert run_json(capsys, "check", write(tmp_path, doc))["config"]["tau"] == [["1"]]


def test_integer_literal_over_the_digit_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "big.json"
    text = json.dumps(hirzebruch_doc(1)).replace("[[1]]", "[[1" + "0" * 5000 + "]]")
    assert len(text) > 5000
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert err.startswith("error: config is not valid JSON: ")


def _a1_p1_doc(tau, **extra):
    return {
        "base": {"components": [{"letter": "A", "rank": 1}], "crossed": [1]},
        "fiber": {"kind": "projective_space", "dim": 1},
        "tau": tau,
        **extra,
    }


@pytest.mark.parametrize(
    "command, doc",
    [
        ("check", _a1_p1_doc([["1/" + "3" * 2500]], zk_basis=[["7" * 2500]])),
        ("scan", _a1_p1_doc([["3" * 4000]], scan={"kind": "scale", "range": [10**4000] * 2})),
    ],
    ids=["check-margin", "scan-scaled-tau"],
)
def test_report_value_over_the_digit_limit_exits_2(capsys, tmp_path, command, doc):
    # Every config field is under the limit; only a computed value is over it.
    code, out, err = run(capsys, command, write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == (
        f"error: a report value has more than {sys.get_int_max_str_digits()} digits, "
        "the limit for integer strings\n"
    )


@pytest.mark.parametrize(
    "base, extra, message",
    [
        ((2, []), {"tau": [[]], "cocharacter_basis": [[0, 0]]}, "empty basis"),
        (
            (2, [1]),
            {"tau": [[1]], "cocharacter_basis": [[0, 1]]},
            "h is outside the span of the basis",
        ),
        (
            (3, [1, 3]),
            {"tau": [[1, 0]], "zk_basis": [[1, 0, 0], [2, 0, 0]]},
            "declared basis is dependent",
        ),
    ],
    ids=["empty-basis", "generator-off-zk", "dependent-zk-basis"],
)
def test_integrality_and_basis_errors_exit_2(capsys, tmp_path, base, extra, message):
    rank, crossed = base
    doc = {
        "base": {"components": [{"letter": "A", "rank": rank}], "crossed": crossed},
        "fiber": {"kind": "projective_space", "dim": 1},
        **extra,
    }
    code, out, err = run(capsys, "check", write(tmp_path, doc))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_float_rational_rejected(capsys, tmp_path):
    doc = hirzebruch_doc(1)
    doc["tau"] = [[0.5]]
    code, out, err = run(capsys, "check", write(tmp_path, doc))
    assert code == 2
    assert "tau[0][0]" in err


def test_nonprimitive_ray_rejected(capsys, tmp_path):
    doc = {
        "fiber": {
            "kind": "fan",
            "rays": [[2, 0], [0, 1]],
            "max_cones": [[0, 1]],
        }
    }
    code, out, err = run(capsys, "polytope", write(tmp_path, doc))
    assert code == 2
    assert "fiber" in err and "primitive" in err


def test_missing_config_file(capsys):
    code, out, err = run(capsys, "check", "/nonexistent/config.json")
    assert code == 2
    assert "cannot read config" in err


def test_invalid_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_deeply_nested_config_exits_2(capsys, tmp_path):
    # Built as text: json.dumps would itself exceed the recursion limit.
    depth = 1200
    text = '{"fiber": ' + '{"kind": "product", "parts": [' * depth + "]}" * depth + "}"
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "polytope", str(path))
    assert code == 2
    assert err.startswith("error: config is not valid JSON: ")


def test_unknown_fiber_kind(capsys, tmp_path):
    doc = {"fiber": {"kind": "mystery"}}
    code, out, err = run(capsys, "polytope", write(tmp_path, doc))
    assert code == 2
    assert "fiber.kind" in err


def test_degenerate_tau_warns_in_check(capsys, tmp_path):
    report = run_json(capsys, "check", write(tmp_path, hirzebruch_doc(0)))
    assert report["verdict"]["is_fano"] is True
    assert any("surjective" in w for w in report["warnings"])


def test_check_without_oracle_leaves_numpy_unloaded():
    src = str(Path(fanotoric.__file__).resolve().parent.parent)
    code = (
        "import sys, fanotoric.cli\n"
        f"assert fanotoric.cli.main(['check', {str(CONFIGS / 'so20.json')!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def nested_product_doc(depth):
    spec = {"kind": "projective_space", "dim": 1}
    for _ in range(depth):
        spec = {"kind": "product", "parts": [spec]}
    return {"fiber": spec}


def test_fiber_nesting_limit_names_the_path(capsys, tmp_path):
    limit = cli.MAX_FIBER_DEPTH
    code, out, err = run(capsys, "polytope", write(tmp_path, nested_product_doc(limit)))
    assert code == 0, err
    code, out, err = run(
        capsys, "polytope", write(tmp_path, nested_product_doc(limit + 1))
    )
    assert code == 2
    assert err.startswith("error: fiber" + ".parts[0]" * limit + ": ")


def _refuse(*args):
    raise AssertionError("built a config over the size bounds")


def p1_product_doc(parts):
    p1 = {"kind": "projective_space", "dim": 1}
    return {"fiber": {"kind": "product", "parts": [p1] * parts}}


@pytest.mark.parametrize(
    "command, doc, prefix",
    [
        ("flag-info", {"base": {"components": [{"letter": "A", "rank": 10**5}], "crossed": [1]}},
         "base.components: total rank 100000"),
        ("flag-info", {"base": {"components": [{"letter": "A", "rank": 60},
                                               {"letter": "D", "rank": 41}], "crossed": [1]}},
         "base.components: total rank 101"),
        ("polytope", {"fiber": {"kind": "projective_space", "dim": 10**5}},
         "fiber: total dimension 100000"),
        ("polytope", {"fiber": {"kind": "fan", "dim": 10**5, "rays": [], "max_cones": []}},
         "fiber: total dimension 100000"),
        ("polytope", p1_product_doc(cli.MAX_FIBER_DIM + 1), "fiber: total dimension 13"),
    ],
)
def test_size_bounds_exit_2_before_building(capsys, tmp_path, monkeypatch, command, doc, prefix):
    monkeypatch.setattr(cli, "build_root_system", _refuse)
    monkeypatch.setattr(cli, "projective_space", _refuse)
    monkeypatch.setattr(cli, "Fan", _refuse)
    code, out, err = run(capsys, command, write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {prefix} is over "), err


def test_size_bounds_admit_their_limits():
    ones = [{"letter": "A", "rank": 1}] * cli.MAX_BASE_RANK
    doc = {"base": {"components": ones, "crossed": []}, **p1_product_doc(cli.MAX_FIBER_DIM)}
    assert cli.Config(doc).total_rank == cli.MAX_BASE_RANK


def test_deep_product_fibers_exit_2_through_main(capsys, tmp_path):
    # Depths on both sides of what json.loads can parse: each must exit 2,
    # by the nesting limit or as invalid JSON, never with a traceback.
    path = tmp_path / "deep.json"
    for depth in range(400, 521):
        text = '{"fiber": ' + '{"kind": "product", "parts": [' * depth + "]}" * depth + "}"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "polytope", str(path))
        assert code == 2, depth
        assert err.startswith(
            ("error: fiber.parts[0].parts[0]", "error: config is not valid JSON: ")
        ), depth


def so16_doc():
    doc = json.loads((CONFIGS / "so16.json").read_text(encoding="utf-8"))
    return {**doc, "tau": [[1, 0], [0, 1]]}


@pytest.mark.parametrize(
    "doc, scale_range, zero_at",
    [
        pytest.param(hirzebruch_doc(2), [-3, 3], 1, id="hirzebruch-n2"),
        pytest.param(so16_doc(), [8, 13], 12, id="so16"),
    ],
)
def test_boundary_scans_agree_with_check(
    capsys, tmp_path, doc, scale_range, zero_at
):
    scan_path = write(tmp_path, {**doc, "scan": {"kind": "scale", "range": scale_range}})
    entries = run_json(capsys, "scan", scan_path)["scan"]["entries"]
    assert [e["k"] for e in entries] == list(range(scale_range[0], scale_range[1] + 1))
    for entry in entries:
        check = run_json(capsys, "check", write(tmp_path, {**doc, "tau": entry["tau"]}))
        assert entry["is_fano"] == check["verdict"]["is_fano"], entry["k"]
        if entry["k"] == zero_at:
            assert not check["verdict"]["is_fano"]
            assert any(e["value"] == "0" for e in check["margins"])


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


# Quotes, backslashes, control characters, non-ASCII (a lone surrogate
# too), commas and brackets, beside whatever else hypothesis draws.
_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\n\t,[]{}: \xe9\u20ac\U0001f600\ud800'),
        st.characters(),
    ),
    max_size=6,
)
_LEAF_LISTS = st.one_of(
    st.lists(st.sampled_from([True, False, 0, 1]), max_size=4),
    st.lists(st.integers(0, 1), max_size=3),
    st.lists(st.booleans(), max_size=3),
    st.lists(_TEXT, max_size=3),
    st.lists(st.sampled_from([0.0, -0.0, 1e300, math.nan, -math.inf]), max_size=3),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf]),
    _TEXT,
    _LEAF_LISTS,
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(_TEXT, children, max_size=4)
    ),
    max_leaves=16,
)


@st.composite
def _json_values(draw):
    """A value beside one leaf list met again at several depths, nested five
    to eight levels deep, both as the same object and as a copy."""
    shared = draw(_LEAF_LISTS)
    nested = draw(_VALUES)
    for level in range(draw(st.integers(5, 8))):
        nested = {"copy": list(shared), "in": nested} if level % 2 else [shared, nested]
    return [shared, nested, {"copy": list(shared), "empty": [{}, []]}]


@settings(max_examples=300, deadline=None)
@given(_json_values())
@example([[1], [True], {"a": [1], "b": [True, 1]}, [[True]], [[1]], [[1, True]]])
@example([[0.0], [-0.0], [[0.0]], [[-0.0]], [{}], {"": []}])
def test_json_writer_equals_json_dumps(value):
    assert cli._json_text(value) == _dumps(value)


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["plain", "oracle"])
@pytest.mark.parametrize("command", ["check", "polytope", "flag-info", "scan"])
@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_json_stdout_is_json_dumps_of_the_report(
    capsys, monkeypatch, config, command, oracle
):
    reports = []
    writer = cli._json_text

    def spy(report):
        reports.append(report)
        return writer(report)

    monkeypatch.setattr(cli, "_json_text", spy)
    code, out, _ = run(capsys, command, str(config), "--json", *oracle)
    if code == 0:
        assert out == _dumps(reports[0]) + "\n"
    else:
        assert (code, out, reports) == (2, "", [])
