import json
import subprocess
import sys
from pathlib import Path

import fanotoric
from fanotoric.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def test_scan_config_error_exits_2_like_check(capsys, tmp_path):
    doc = {
        "base": {"components": [{"letter": "A", "rank": 3}], "crossed": [1, 3]},
        "zk_basis": [[1, 0, 0], [2, 0, 0]],
        "fiber": {"kind": "projective_space", "dim": 2},
        "tau": [[1, 0], [0, 1]],
        "scan": {"kind": "scale", "range": [0, 5]},
    }
    path = write(tmp_path, doc)
    check = run(capsys, "check", path)
    scan = run(capsys, "scan", path)
    assert check == scan == (2, "", "error: declared basis is dependent\n")


def test_scan_explosion_guard(capsys, tmp_path):
    doc = hirzebruch_doc(1)
    doc["scan"] = {"kind": "scale", "range": [0, 50]}
    code, out, err = run(capsys, "scan", write(tmp_path, doc), "--max", "10")
    assert code == 2
    assert "cap" in err


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


def test_bad_crossed_index_names_field(capsys, tmp_path):
    doc = hirzebruch_doc(1)
    doc["base"]["crossed"] = [3]
    code, out, err = run(capsys, "check", write(tmp_path, doc))
    assert code == 2
    assert "base.crossed[0]" in err


def test_bad_rational_names_field(capsys, tmp_path):
    doc = hirzebruch_doc(1)
    doc["tau"] = [["1/0"]]
    code, out, err = run(capsys, "check", write(tmp_path, doc))
    assert code == 2
    assert "tau[0][0]" in err


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
