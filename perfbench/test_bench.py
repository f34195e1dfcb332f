"""Tests of the benchmark's own parts: tracer, generator, parser and gate.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import fanotoric.cli  # noqa: E402
import fanotoric.fanobundle  # noqa: E402
import fanotoric.toricfiber  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

CONFIG = {
    "base": {"components": [{"letter": "A", "rank": 3}], "crossed": [1, 3]},
    "fiber": {"kind": "projective_space", "dim": 2},
    "tau": [[1, 0], [0, 1]],
}


def _main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert fanotoric.cli.main(argv) == 0
    return buf.getvalue()


def test_one_check_yields_the_known_call_counts(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(CONFIG))
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            _main(["check", str(path)])
    finally:
        tracer.uninstall()
    calls = {name: row[0] for name, row in summarize(tracer)["names"].items()}
    # fano_check runs is_fano and canonical_polytope, and so does the
    # fiber report in cli; each of the four validates the fan, as does
    # the fiber report itself.  P2 has 3 cones, each with one determinant.
    assert calls["toricfiber.validate_fan"] == 5
    assert calls["toricfiber.is_fano"] == 2
    assert calls["toricfiber.canonical_polytope"] == 2
    assert calls["linalg.determinant"] == 15
    assert calls["fanobundle.fano_check"] == 1
    assert calls["fanobundle.fano_margins"] == 1
    assert calls["fanobundle.pullback_point"] == 3
    assert calls["cli.Config"] == 1
    assert calls["cli.cmd_check"] == 1
    assert calls["cli.main"] == 1
    # R_m+ of A3 crossed at both ends has 5 roots: 3 vertices x 5 entries.
    assert tracer.counters["fanobundle.margin_entries"] == 15
    assert tracer.counters["fanobundle.entries_shown"] == 15


def test_wrappers_reach_names_bound_by_from_import():
    originals = (fanotoric.cli.fano_check, fanotoric.cli.validate_fan,
                 fanotoric.fanobundle.is_fano, fanotoric.toricfiber.is_fano)
    tracer = Tracer()
    tracer.install()
    try:
        assert fanotoric.cli.fano_check is fanotoric.fanobundle.fano_check
        assert fanotoric.cli.validate_fan is fanotoric.toricfiber.validate_fan
        assert fanotoric.fanobundle.is_fano is fanotoric.toricfiber.is_fano
        assert fanotoric.cli.fano_check is not originals[0]
        assert fanotoric.fanobundle.is_fano.__wrapped__ is originals[2]
    finally:
        tracer.uninstall()
    assert (fanotoric.cli.fano_check, fanotoric.cli.validate_fan,
            fanotoric.fanobundle.is_fano, fanotoric.toricfiber.is_fano) == originals


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    outer, inner = tracer.name_id("a.outer"), tracer.name_id("b.inner")
    with tracer.op(0):
        tracer.begin(outer)
        tracer.begin(inner)
        tracer.end()
        tracer.end()
    spans = tracer.spans
    summary = summarize(tracer)
    outer_total = spans[1][2] - spans[1][1]
    inner_total = spans[2][2] - spans[2][1]
    assert summary["names"]["a.outer"][1] == outer_total - inner_total
    assert summary["names"]["b.inner"][1] == inner_total


def test_same_seed_gives_byte_identical_files(tmp_path):
    def files(seed, where):
        gen.scan_box(seed, where)
        return {p.relative_to(where): p.read_bytes() for p in sorted(where.rglob("*.json"))}

    first = files(7, tmp_path / "a")
    assert first == files(7, tmp_path / "b")
    assert first != files(8, tmp_path / "c")


def test_every_seed_holds_the_boundary_cases(tmp_path):
    labels = {op.label for op in gen.check_mix(3, tmp_path).cycles[0]}
    assert {"hirzebruch-n2", "so16-scale12"} <= labels


def test_human_and_json_reports_parse_alike(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(dict(CONFIG, tau=[[9, 0], [0, 9]])))
    human = verify.parse(_main(["check", str(path), "--oracle"]), False)
    as_json = verify.parse(_main(["check", str(path), "--oracle", "--json"]), True)
    assert verify.comparable(human) == verify.comparable(as_json)


def test_gate_passes_a_true_report_and_catches_a_false_one(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(CONFIG))
    report = verify.parse(_main(["check", str(path), "--json"]), True)
    gate = verify.Gate(oracles)
    expect = {"rank": 3, "fiber": "P2"}
    assert gate.check(report, expect) == []
    report["verdict"]["is_fano"] = not report["verdict"]["is_fano"]
    assert gate.check(report, expect)
    report["verdict"]["is_fano"] = not report["verdict"]["is_fano"]
    report["margins"][0]["value"] = "1/7"
    assert gate.check(report, expect)


def _canned(base, texts):
    """A workload of the given class whose ops print the texts given."""
    outputs = iter(texts)

    class Canned(base):
        def execute(self, op, tracer, op_id):
            return 0, next(outputs), 0.01, 0.0, ""

        in_children = False

    wl = Canned("canned", 0)
    wl.calibrations = [run.calibrate()]
    return wl


def test_a_report_missing_a_field_fails_the_op_and_the_run_goes_on(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(CONFIG))
    good = _main(["check", str(path), "--json"])
    broken = json.loads(good)
    del broken["fiber"]
    wl = _canned(run.CheckMix, [json.dumps(broken), good])
    stats = run.new_stats(False)
    op = gen.Op("a3", ["check", str(path), "--json"], {"rank": 3, "fiber": "P2"})
    wl.run_op(op, 0, stats, None)
    wl.run_op(op, 0, stats, None)
    assert (stats["ops"], stats["failed"]) == (2, 1)
    assert "KeyError" in stats["problems"][0]


def test_a_disagreeing_human_and_json_pair_fails_each_run_once(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(CONFIG))
    b.write_text(json.dumps(dict(CONFIG, tau=[[9, 0], [0, 9]])))
    wl = _canned(run.CliCold, [_main(["check", str(a)]), _main(["check", str(b), "--json"])])
    wl.pending = {}
    stats = run.new_stats(False)
    for argv in (["check", str(a)], ["check", str(a), "--json"]):
        wl.run_op(gen.Op("a3", argv, {"rank": 3, "fiber": "P2"}, pair=0), 0, stats, None)
    assert (stats["ops"], stats["failed"]) == (2, 2)
    assert all("disagrees" in p for p in stats["problems"])
