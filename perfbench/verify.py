"""Correctness gate for benchmark outputs, independent of the timed code.

Reports are read back from the text the CLI printed (human or --json) and
checked against facts the engine does not supply itself: the fan rays the
generator wrote, the brute-force halfspace-vertex oracle of the test
suite, linearity of the margins in the polytope vertex, convexity of the
Fano set in tau-space, and the paper's exactly known boundary cases.
Every check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from gen import FIBERS, box_taus

_YES = {"yes": True, "no": False}


def parse_human(text: str) -> dict:
    """Rebuild the report dict from the human-readable rendering."""
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            current = line[3:-3]
            sections[current] = []
        elif current is None:
            raise ValueError(f"text before the first section: {line!r}")
        else:
            sections[current].append(line)
    report: dict = {"config": json.loads(sections["config"][0])}
    if "flag" in sections:
        report["flag"] = _parse_flag(sections["flag"])
    if "fiber" in sections:
        report["fiber"] = _parse_fiber(sections["fiber"])
    if "verdict" in sections:
        report.update(_parse_verdict(sections["verdict"]))
    if "scan" in sections:
        report["scan"] = _parse_scan(sections["scan"])
    if "oracle" in sections:
        report["oracle"] = _parse_oracle(sections["oracle"])
    warn = [w.strip() for w in sections["warnings"]]
    report["warnings"] = [] if warn == ["(none)"] else warn
    return report


def _field(line: str, key: str) -> str:
    prefix = f"{key}: "
    if not line.startswith(prefix):
        raise ValueError(f"expected {key!r}, got {line!r}")
    return line[len(prefix):]


def _vector(text: str) -> list[str]:
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a vector: {text!r}")
    inner = text[1:-1]
    return inner.split(", ") if inner else []


def _parse_flag(lines: list[str]) -> dict:
    flag = {
        "r_m_plus_count": int(_field(lines[0], "R_m+ count")),
        "h_v": _vector(_field(lines[1], "h_V")),
        "in_chamber": _YES[_field(lines[2], "in chamber")],
        "h_v_margins": [],
    }
    for line in lines[4:]:
        root, value = line.strip()[len("root "):].split(" -> ")
        flag["h_v_margins"].append({"root": json.loads(root), "value": value})
    return flag


def _parse_fiber(lines: list[str]) -> dict:
    fiber: dict = {"dim": int(_field(lines[0], "dim"))}
    for line, key in zip(lines[1:4], ("smooth", "complete", "effective")):
        fiber[key] = _YES[_field(line, key)]
    if len(lines) > 4:
        fiber["fano"] = _YES[_field(lines[4], "fano")]
        fiber["polytope_vertices"] = [_vector(v.strip()) for v in lines[6:]]
    return fiber


def _margin_line(line: str) -> dict:
    head, value = line.strip()[len("vertex "):].split(" -> ")
    index, rest = head.split(" ", 1)
    vertex, root = rest.split("] root ")
    return {
        "vertex_index": int(index),
        "vertex": _vector(vertex + "]"),
        "root": json.loads(root),
        "value": value,
    }


def _parse_verdict(lines: list[str]) -> dict:
    out: dict = {
        "verdict": {
            "fiber_fano": _YES[_field(lines[0], "fiber fano")],
            "is_fano": _YES[_field(lines[1], "is fano")],
        },
        "margins": [],
        "violations": [],
    }
    target = None
    for line in lines[2:]:
        if line == "margins:":
            target = out["margins"]
        elif line == "violations:":
            target = out["violations"]
        elif line in ("violations: (none)", "  (none)"):
            target = None
        elif line.startswith("tau integrality: "):
            text = _field(line, "tau integrality")
            out["tau_integrality"] = text if text == "not checked" else _YES[text]
        else:
            target.append(_margin_line(line))
    return out


def _parse_scan(lines: list[str]) -> dict:
    entries = []
    for line in lines[:-1]:
        head, verdict = line.split(" -> ")
        entry: dict = {}
        if head.startswith("k="):
            k, head = head.split(" ", 1)
            entry["k"] = int(k[2:])
        entry["tau"] = json.loads(head[len("tau "):])
        entry["is_fano"] = {"fano": True, "not fano": False}.get(verdict)
        entries.append(entry)
    counts = dict(part.split("=") for part in _field(lines[-1], "summary").split())
    return {"entries": entries, "summary": {k: int(v) for k, v in counts.items()}}


def _parse_oracle(lines: list[str]) -> dict:
    samples_key, inside = lines[2].split("): ")
    return {
        "fixed_point_exact_match": _YES[_field(lines[0], "fixed-point exact match")],
        "fs_fixed_point_max_error": float(_field(lines[1], "fs fixed-point max error")),
        "samples": int(samples_key[len("samples in polytope ("):]),
        "samples_in_polytope": _YES[inside],
        "barycenter_norm": float(_field(lines[3], "barycenter norm")),
    }


def parse(text: str, as_json: bool) -> dict:
    return json.loads(text) if as_json else parse_human(text)


def comparable(report: dict) -> dict:
    """The fields both renderings carry, for the human/--json agreement check."""
    out = {k: report[k] for k in ("config", "flag", "fiber", "verdict", "margins", "violations",
                                  "tau_integrality", "warnings") if k in report}
    if "scan" in report:
        out["scan"] = {"entries": report["scan"]["entries"], "summary": report["scan"]["summary"]}
    if report.get("oracle"):
        out["oracle"] = {k: report["oracle"][k] for k in (
            "fixed_point_exact_match", "fs_fixed_point_max_error", "samples",
            "samples_in_polytope", "barycenter_norm")}
    return out


class Gate:
    """Checks one parsed report against what the generator knows."""

    def __init__(self, oracles) -> None:
        self._halfspace = oracles.halfspace_vertices
        self._vertex_cache: dict[str, frozenset] = {}

    def _oracle_vertices(self, fiber: str) -> frozenset:
        if fiber not in self._vertex_cache:
            f = FIBERS[fiber]
            self._vertex_cache[fiber] = self._halfspace(f.rays, f.dim)
        return self._vertex_cache[fiber]

    def check(self, report: dict, expect: dict) -> list[str]:
        problems: list[str] = []
        if "flag" in report:
            problems += self._flag(report["flag"], expect)
        if "fiber" in report:
            problems += self._fiber(report["fiber"], expect)
        if "verdict" in report:
            problems += self._verdict(report, expect)
        if "scan" in report:
            problems += self._scan(report["scan"], expect)
        if report.get("oracle"):
            problems += self._oracle(report["oracle"])
        return problems

    def _flag(self, flag: dict, expect: dict) -> list[str]:
        values = [Fraction(e["value"]) for e in flag["h_v_margins"]]
        problems = []
        if flag["r_m_plus_count"] != len(values):
            problems.append("R_m+ count differs from the h_V margin list")
        if "rank" in expect and len(flag["h_v"]) != expect["rank"]:
            problems.append("h_V has the wrong length")
        # h_V realizes the Kaehler-Einstein form: strictly inside the chamber.
        if not (flag["in_chamber"] and all(v > 0 for v in values)):
            problems.append("h_V is not strictly inside the chamber")
        return problems

    def _fiber(self, fiber: dict, expect: dict) -> list[str]:
        if "fiber" not in expect:
            return []
        f = FIBERS[expect["fiber"]]
        problems = []
        if fiber["dim"] != f.dim or not (fiber["smooth"] and fiber["complete"] and fiber["effective"]):
            problems.append("fiber is not the smooth complete effective fan written")
        if fiber.get("fano") != f.fano:
            problems.append(f"fiber fano is {fiber.get('fano')}, expected {f.fano}")
        vertices = [tuple(Fraction(x) for x in v) for v in fiber.get("polytope_vertices", [])]
        if len(vertices) != f.cones:
            problems.append("polytope has the wrong vertex count")
        if f.fano and frozenset(vertices) != self._oracle_vertices(expect["fiber"]):
            problems.append("polytope vertices differ from the halfspace oracle")
        return problems

    def _verdict(self, report: dict, expect: dict) -> list[str]:
        problems = []
        verdict, fiber, flag = report["verdict"], report["fiber"], report["flag"]
        margins = report["margins"]
        values = [Fraction(e["value"]) for e in margins]
        vertices = fiber["polytope_vertices"]
        roots = [e["root"] for e in flag["h_v_margins"]]
        if verdict["fiber_fano"] != fiber["fano"]:
            problems.append("verdict fiber_fano differs from the fiber section")
        if verdict["is_fano"] != (verdict["fiber_fano"] and all(v > 0 for v in values)):
            problems.append("is_fano differs from fiber_fano and all margins > 0")
        expected_cells = [(i, r) for i in range(len(vertices)) for r in roots]
        if [(e["vertex_index"], e["root"]) for e in margins] != expected_cells:
            problems.append("margin table does not cover vertices x R_m+ in order")
        elif any(e["vertex"] != vertices[e["vertex_index"]] for e in margins):
            problems.append("margin vertex differs from the polytope vertex")
        if report["violations"] != [e for e, v in zip(margins, values) if v <= 0]:
            problems.append("violations are not the nonpositive margins")
        problems += self._linear(margins, values, vertices, flag)
        if "is_fano" in expect and verdict["is_fano"] != expect["is_fano"]:
            problems.append(f"known verdict is_fano={expect['is_fano']} not reproduced")
        if expect.get("zero_margin") and 0 not in values:
            problems.append("known boundary case lacks an exact-zero margin")
        if "tau_integrality" in expect and report.get("tau_integrality") != expect["tau_integrality"]:
            problems.append("tau integrality differs from the integrality of tau")
        return problems

    @staticmethod
    def _linear(margins, values, vertices, flag) -> list[str]:
        """Margins are affine in the vertex Q with constant term alpha(h_V).

        So when the vertices sum to zero, each root's margins average to
        its h_V margin.
        """
        if not margins or not vertices:
            return []
        qs = [[Fraction(x) for x in v] for v in vertices]
        if any(sum(col) != 0 for col in zip(*qs)):
            return []
        n = len(vertices)
        h_v = [Fraction(e["value"]) for e in flag["h_v_margins"]]
        sums = [Fraction(0)] * len(h_v)
        for i, v in enumerate(values):
            sums[i % len(h_v)] += v
        if any(s != n * h for s, h in zip(sums, h_v)):
            return ["margins are not affine in the vertex around alpha(h_V)"]
        return []

    def _scan(self, scan: dict, expect: dict) -> list[str]:
        problems = []
        entries = scan["entries"]
        verdicts = [e["is_fano"] for e in entries]
        tally = {
            "fano": verdicts.count(True),
            "not_fano": verdicts.count(False),
            "skipped": verdicts.count(None),
        }
        if scan["summary"] != tally:
            problems.append("scan summary differs from the tally of its entries")
        if tally["skipped"]:
            problems.append("valid tau reported as skipped")
        taus = [[[Fraction(x) for x in row] for row in e["tau"]] for e in entries]
        if "box" in expect:
            f = FIBERS[expect["fiber"]]
            k = len(expect["tau"][0])
            if taus != box_taus(f.dim, k, expect["box"]):
                problems.append("box scan did not enumerate the box in order")
            else:
                problems += _convex(taus, verdicts)
        if "scale" in expect:
            lo, hi = expect["scale"]
            ks = list(range(lo, hi + 1))
            want = [[[k * x for x in row] for row in expect["tau"]] for k in ks]
            if taus != want or [e.get("k") for e in entries] != ks:
                problems.append("scale scan did not enumerate k * tau in order")
            else:
                problems += _interval(ks, verdicts, expect.get("fano_rule"))
        return problems

    @staticmethod
    def _oracle(oracle: dict) -> list[str]:
        if not (oracle["fixed_point_exact_match"] and oracle["samples_in_polytope"]):
            return ["numerical oracle disagrees with the exact polytope"]
        if oracle["fs_fixed_point_max_error"] > 1e-9 or oracle["barycenter_norm"] > 1e-2:
            return ["numerical oracle error above its tolerance"]
        return []


def _convex(taus, verdicts) -> list[str]:
    """Margins are linear in tau, so the Fano set is convex in tau-space.

    An integral midpoint of two Fano tau must be Fano; tau = 0 is Fano.
    Two integer points have an integral midpoint exactly when their
    entries agree in parity, so only pairs within a parity class count.
    """
    key = [tuple(x for row in t for x in row) for t in taus]
    fano = {k for k, v in zip(key, verdicts) if v}
    if tuple(Fraction(0) for _ in key[0]) not in fano:
        return ["tau = 0 is not Fano although h_V is in the chamber"]
    classes: dict[tuple, list] = {}
    for k in fano:
        classes.setdefault(tuple(x.numerator % 2 for x in k), []).append(k)
    for members in classes.values():
        for a, b in combinations(members, 2):
            if tuple((x + y) / 2 for x, y in zip(a, b)) not in fano:
                return ["Fano set of the box scan is not convex"]
    return []


def _interval(ks, verdicts, rule) -> list[str]:
    """Along a ray the Fano set is an interval; it holds 0 when in range."""
    fano = [k for k, v in zip(ks, verdicts) if v]
    if fano and fano != list(range(fano[0], fano[-1] + 1)):
        return ["Fano values of a scale scan are not an interval"]
    if 0 in ks and 0 not in fano:
        return ["scale 0 is not Fano although h_V is in the chamber"]
    if rule == "abs<=1" and fano != [k for k in ks if abs(k) <= 1]:
        return ["known Hirzebruch range (|k| <= 1) not reproduced"]
    if rule == "12 not fano" and 12 in fano:
        return ["SO(16) at scale 12 reported Fano"]
    return []
