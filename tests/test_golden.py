"""Every report for the shipped configs matches a recorded sha256.

golden_reports.json maps "<subcommand> <config>[ --json]" to the sha256 of
stdout, for every subcommand each config in configs/ supports (exits 0),
without --oracle.  Regenerate it only when a report is meant to change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from fanotoric.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
SUBCOMMANDS = ("check", "polytope", "flag-info", "scan")


def _digest(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _cases() -> dict[str, list[str]]:
    cases = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        rel = path.relative_to(ROOT).as_posix()
        for sub in SUBCOMMANDS:
            for extra in ([], ["--json"]):
                cases[" ".join([sub, rel, *extra])] = [sub, str(path), *extra]
    return cases


def _expected() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_config_has_a_golden_report():
    configs = {key.split()[1] for key in _expected()}
    assert configs == {
        p.relative_to(ROOT).as_posix() for p in (ROOT / "configs").glob("*.json")
    }


@pytest.mark.parametrize("key", sorted(_cases()))
def test_report_matches_golden(key):
    code, digest = _digest(_cases()[key])
    expected = _expected()
    if key in expected:
        assert (code, digest) == (0, expected[key])
    else:
        assert code == 2


if __name__ == "__main__":
    table = {}
    for key, argv in _cases().items():
        code, digest = _digest(argv)
        if code == 0:
            table[key] = digest
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
