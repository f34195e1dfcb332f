"""Command line interface: config ingestion, reports, tau-space scans.

Configs are single JSON documents.  Rationals are written exactly, as bare
integers or "p/q" strings; Dynkin node indices are 1-based to match the
usual tables, ray indices inside cones are 0-based.  Verdicts are report
data, never exit codes; a nonzero exit signals an input or validation
problem.  Identical config bytes produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import chain, product as iter_product, tee
from pathlib import Path
from typing import Any, Iterator

from .errors import DomainError, InputError
from .fanobundle import TauMap, fano_check, fano_scan
from .flagbase import FlagManifold, Painting, build_flag, chamber_margins, in_chamber
from .rootsys import SimpleType, VectorH, build_root_system
from .toricfiber import (
    Fan,
    FanDiagnostics,
    Polytope,
    point_fan,
    product,
    projective_space,
    validate_fan,
)

DEFAULT_SCAN_CAP = 10000
# Deepest product nesting a fiber may have; deeper configs exit 2 before
# any recursion over them can reach the interpreter's limit.
MAX_FIBER_DEPTH = 32
# Largest total base rank and fiber dimension a config may ask for; on a
# 2-core Xeon VM, flag-info on A100 takes 1.4 s and polytope on (P1)^12 11 s.
MAX_BASE_RANK = 100
MAX_FIBER_DIM = 12
# Largest projective_space fiber --oracle compares: the barycenter quadrature
# takes 12^m nodes, about 600 MB at m = 6 and twelve times that per dimension.
MAX_ORACLE_DIM = 6
# The documented rational strings: an integer or p/q, with an optional sign.
# Fraction alone would also take decimals, exponents, underscores, non-ASCII
# digits and surrounding whitespace; "1e10000000" takes seconds to parse.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class ConfigError(InputError):
    """Input error with the config field path that caused it."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _get(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise ConfigError(_join(path, key), "missing required field")
    return doc[key]


def _require_known(doc: dict, fields: tuple[str, ...], path: str) -> None:
    """Reject the first key of doc, in document order, that is not a field."""
    for key in doc:
        if key not in fields:
            raise ConfigError(_join(path, key), "unknown field")


def _expect_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected an array, got {type(value).__name__}")
    return value


def _parse_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _parse_rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if _RATIONAL.fullmatch(value):
                return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
        raise ConfigError(path, f"invalid rational {value!r}")
    raise ConfigError(
        path, f"expected an integer or 'p/q' string, got {type(value).__name__}"
    )


def _parse_vector(value: Any, path: str, length: int) -> VectorH:
    arr = _expect_list(value, path)
    if len(arr) != length:
        raise ConfigError(path, f"expected {length} entries, got {len(arr)}")
    return VectorH(
        tuple(_parse_rational(x, f"{path}[{i}]") for i, x in enumerate(arr))
    )


def _rat(x: Fraction) -> str:
    # str raises ValueError past the interpreter's integer string digit limit,
    # which a report value can reach from config fields that are all under it.
    try:
        return str(x)
    except ValueError:
        raise DomainError(
            f"a report value has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for integer strings"
        ) from None


def _vec(xs) -> list[str]:
    return [_rat(Fraction(x)) for x in xs]


class Config:
    """Parsed config with a canonical echo of every recognized section."""

    def __init__(self, doc: Any) -> None:
        doc = _expect_dict(doc, "config")
        _require_known(
            doc, ("base", "zk_basis", "fiber", "tau", "cocharacter_basis", "scan"), ""
        )
        self.components: list[SimpleType] | None = None
        self.crossed: list[int] | None = None
        self.zk_basis: list[VectorH] | None = None
        self.fiber_spec: dict | None = None
        self.tau_rows: list[list[Fraction]] | None = None
        self.cocharacter_basis: list[VectorH] | None = None
        self.scan: dict | None = None
        self.echo: dict = {}
        self._fiber_dim = 0  # summed over the parts of a product
        if "base" in doc:
            self._parse_base(_expect_dict(doc["base"], "base"))
        if "zk_basis" in doc:
            self.zk_basis = self._parse_basis(doc["zk_basis"], "zk_basis")
        if "fiber" in doc:
            self.fiber_spec = self._parse_fiber(doc["fiber"], "fiber")
            if self._fiber_dim > MAX_FIBER_DIM:
                raise ConfigError(
                    "fiber", f"total dimension {self._fiber_dim} is over {MAX_FIBER_DIM}"
                )
            self.echo["fiber"] = self.fiber_spec
        if "tau" in doc:
            self._parse_tau(doc["tau"])
        if "cocharacter_basis" in doc:
            self.cocharacter_basis = self._parse_basis(
                doc["cocharacter_basis"], "cocharacter_basis"
            )
        if "scan" in doc:
            self._parse_scan(_expect_dict(doc["scan"], "scan"))

    @property
    def total_rank(self) -> int:
        if self.components is None:
            raise ConfigError("base", "missing required field")
        return sum(t.rank for t in self.components)

    def _parse_base(self, base: dict) -> None:
        _require_known(base, ("components", "crossed"), "base")
        comps = []
        for i, item in enumerate(
            _expect_list(_get(base, "components", "base"), "base.components")
        ):
            path = f"base.components[{i}]"
            item = _expect_dict(item, path)
            _require_known(item, ("letter", "rank"), path)
            letter = _get(item, "letter", path)
            rank = _parse_int(_get(item, "rank", path), _join(path, "rank"))
            if not isinstance(letter, str):
                raise ConfigError(_join(path, "letter"), f"expected a string, got {letter!r}")
            try:
                comps.append(SimpleType(letter, rank))
            except InputError as exc:
                raise ConfigError(path, str(exc)) from None
        if not comps:
            raise ConfigError("base.components", "must not be empty")
        self.components = comps
        total = sum(t.rank for t in comps)
        if total > MAX_BASE_RANK:
            raise ConfigError("base.components", f"total rank {total} is over {MAX_BASE_RANK}")
        crossed = []
        for i, idx in enumerate(
            _expect_list(_get(base, "crossed", "base"), "base.crossed")
        ):
            path = f"base.crossed[{i}]"
            idx = _parse_int(idx, path)
            if not 1 <= idx <= total:
                raise ConfigError(
                    path, f"node index {idx} out of range 1..{total}"
                )
            if idx - 1 in crossed:
                raise ConfigError(path, f"node {idx} repeated")
            crossed.append(idx - 1)
        self.crossed = crossed
        self.echo["base"] = {
            "components": [
                {"letter": t.letter, "rank": t.rank} for t in comps
            ],
            "crossed": sorted(i + 1 for i in crossed),
        }

    def _parse_basis(self, value: Any, path: str) -> list[VectorH]:
        arr = _expect_list(value, path)
        vectors = [
            _parse_vector(v, f"{path}[{i}]", self.total_rank)
            for i, v in enumerate(arr)
        ]
        self.echo[path] = [_vec(v.coords) for v in vectors]
        return vectors

    def _parse_fiber(self, spec: Any, path: str) -> dict:
        spec = _expect_dict(spec, path)
        kind = _get(spec, "kind", path)
        if kind == "projective_space":
            _require_known(spec, ("kind", "dim"), path)
            dim = _parse_int(_get(spec, "dim", path), _join(path, "dim"))
            if dim < 1:
                raise ConfigError(_join(path, "dim"), "must be >= 1")
            self._fiber_dim += dim
            return {"kind": kind, "dim": dim}
        if kind == "fan":
            _require_known(spec, ("kind", "dim", "rays", "max_cones"), path)
            rays_raw = _expect_list(_get(spec, "rays", path), _join(path, "rays"))
            rays = []
            for i, ray in enumerate(rays_raw):
                ray = _expect_list(ray, f"{path}.rays[{i}]")
                rays.append(
                    [_parse_int(c, f"{path}.rays[{i}][{j}]") for j, c in enumerate(ray)]
                )
            if "dim" in spec:
                dim = _parse_int(spec["dim"], _join(path, "dim"))
            elif rays:
                dim = len(rays[0])
            else:
                raise ConfigError(
                    _join(path, "dim"), "required when no rays are given"
                )
            self._fiber_dim += max(dim, 0)  # Fan rejects a negative dim
            cones_raw = _expect_list(
                _get(spec, "max_cones", path), _join(path, "max_cones")
            )
            cones = []
            for i, cone in enumerate(cones_raw):
                cone = _expect_list(cone, f"{path}.max_cones[{i}]")
                cones.append(
                    [
                        _parse_int(c, f"{path}.max_cones[{i}][{j}]")
                        for j, c in enumerate(cone)
                    ]
                )
            return {"kind": kind, "dim": dim, "rays": rays, "max_cones": cones}
        if kind == "product":
            _require_known(spec, ("kind", "parts"), path)
            # Only product nesting appends ".parts[i]" to the path.
            if path.count(".parts[") >= MAX_FIBER_DEPTH:
                raise ConfigError(
                    path, f"product nesting deeper than {MAX_FIBER_DEPTH} levels"
                )
            parts = _expect_list(_get(spec, "parts", path), _join(path, "parts"))
            return {
                "kind": kind,
                "parts": [
                    self._parse_fiber(p, f"{path}.parts[{i}]")
                    for i, p in enumerate(parts)
                ],
            }
        raise ConfigError(
            _join(path, "kind"),
            f"unknown fiber kind {kind!r} (projective_space, fan, product)",
        )

    def _parse_tau(self, value: Any) -> None:
        rows_raw = _expect_list(value, "tau")
        rows = []
        for i, row in enumerate(rows_raw):
            row = _expect_list(row, f"tau[{i}]")
            rows.append(
                [_parse_rational(x, f"tau[{i}][{j}]") for j, x in enumerate(row)]
            )
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ConfigError("tau", "rows have inconsistent lengths")
        self.tau_rows = rows
        self.echo["tau"] = [[_rat(x) for x in row] for row in rows]

    def _parse_scan(self, spec: dict) -> None:
        kind = _get(spec, "kind", "scan")
        out: dict = {"kind": kind}
        if kind == "scale":
            _require_known(spec, ("kind", "range", "cap"), "scan")
            rng = _expect_list(_get(spec, "range", "scan"), "scan.range")
            if len(rng) != 2:
                raise ConfigError("scan.range", "expected [lo, hi]")
            lo = _parse_int(rng[0], "scan.range[0]")
            hi = _parse_int(rng[1], "scan.range[1]")
            out["range"] = [lo, hi]
        elif kind == "box":
            _require_known(spec, ("kind", "bound", "cap"), "scan")
            out["bound"] = _parse_int(_get(spec, "bound", "scan"), "scan.bound")
            if out["bound"] < 0:
                raise ConfigError("scan.bound", "must be >= 0")
        else:
            raise ConfigError("scan.kind", f"unknown scan kind {kind!r} (scale, box)")
        if "cap" in spec:
            out["cap"] = _parse_int(spec["cap"], "scan.cap")
            if out["cap"] < 0:
                raise ConfigError("scan.cap", "must be >= 0")
        self.scan = out
        self.echo["scan"] = out


def _build_fan(spec: dict | None, path: str) -> Fan:
    if spec is None:
        raise ConfigError(path, "missing required field")
    try:
        if spec["kind"] == "projective_space":
            return projective_space(spec["dim"])
        if spec["kind"] == "fan":
            return Fan(
                dim=spec["dim"],
                rays=tuple(tuple(r) for r in spec["rays"]),
                max_cones=tuple(tuple(c) for c in spec["max_cones"]),
            )
        fans = [
            _build_fan(p, f"{path}.parts[{i}]")
            for i, p in enumerate(spec["parts"])
        ]
        out = point_fan()
        for f in fans:
            out = product(out, f)
        return out
    except InputError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(path, str(exc)) from None


def _build_flag(cfg: Config) -> FlagManifold:
    if cfg.components is None:
        raise ConfigError("base", "missing required field")
    rs = build_root_system(cfg.components)
    return build_flag(rs, Painting(tuple(cfg.crossed or ())))


def _build_tau(cfg: Config) -> TauMap:
    if cfg.tau_rows is None:
        raise ConfigError("tau", "missing required field")
    basis = tuple(cfg.zk_basis) if cfg.zk_basis is not None else None
    return TauMap(tuple(tuple(row) for row in cfg.tau_rows), basis)


def _flag_report(flag: FlagManifold) -> dict:
    margins = chamber_margins(flag, flag.h_V)
    return {
        "r_m_plus_count": len(flag.r_m_plus),
        "h_v": _vec(flag.h_V.coords),
        "h_v_margins": [
            {"root": list(root), "value": _rat(value)} for root, value in margins
        ],
        "in_chamber": in_chamber(flag, flag.h_V),
    }


def _fiber_report(fan: Fan, diag: FanDiagnostics) -> dict:
    return {
        "dim": fan.dim,
        "smooth": diag.smooth,
        "complete": diag.complete,
        # Reports are built for smooth complete fans only, and the rays of a
        # unimodular cone are a lattice basis: the rays span the lattice.
        "effective": True,
        "fano": diag.fano,
        "polytope_vertices": [_vec(v) for v in diag.polytope.vertices],
    }


def _margins_json(table, r_m_plus, vertices: list[list[str]]) -> list[dict]:
    """The margin table as report dicts, vertex-major in R_m+ order.

    vertices[i] is vertex i, rendered once; each root of R_m+ shares one
    list and each distinct value one string.  Values are keyed by numerator
    and denominator: hashing a Fraction costs more than writing it.
    """
    roots = [list(root) for root in r_m_plus]
    values: dict[tuple[int, int], str] = {}
    out = []
    for i, row in enumerate(table):
        for root, value in zip(roots, row):
            key = (value.numerator, value.denominator)
            text = values.get(key)
            if text is None:
                text = values[key] = _rat(value)
            out.append(
                {"vertex_index": i, "vertex": vertices[i], "root": root, "value": text}
            )
    return out


def _oracle_report(
    cfg: Config, fan: Fan, poly: Polytope, warnings: list[str]
) -> dict | None:
    if cfg.fiber_spec is None or cfg.fiber_spec.get("kind") != "projective_space":
        warnings.append("oracle: comparison available only for projective_space fibers")
        return None
    m = fan.dim
    if m > MAX_ORACLE_DIM:
        warnings.append(
            f"oracle: comparison available only up to projective_space dim {MAX_ORACLE_DIM}"
        )
        return None
    from . import numcheck  # numpy is loaded only when a comparison runs
    exact_match = all(
        numcheck.fixed_point_delta(m, i) == poly.vertices[i]
        for i in range(m + 1)
    )
    fs_err = 0.0
    for i in range(m + 1):
        point = numcheck.SamplePoint(
            tuple(1.0 + 0j if k == i else 0j for k in range(m + 1))
        )
        delta = numcheck.fs_delta(m, point)
        fs_err = max(
            fs_err,
            max(abs(d - float(v)) for d, v in zip(delta, poly.vertices[i])),
        )
    samples = numcheck.random_points(m, 200, seed=0)
    slack = 1e-6
    inside = all(
        sum(d * c for d, c in zip(numcheck.fs_delta(m, p), ray)) >= -1 - slack
        for p in samples
        for ray in fan.rays
    )
    resolution = {1: 10**4, 2: 10**5}.get(m, 12**m)
    bary = numcheck.barycenter_integral(m, resolution)
    norm = sum(b * b for b in bary) ** 0.5
    return {
        "fiber_dim": m,
        "fixed_point_exact_match": exact_match,
        "fs_fixed_point_max_error": fs_err,
        "samples": len(samples),
        "samples_in_polytope": inside,
        "barycenter_resolution": resolution,
        "barycenter": list(bary),
        "barycenter_norm": norm,
    }


def _margin_lines(entries: list[dict], heads: list[str]) -> list[str]:
    """One line per entry; heads[i] is the text before vertex i's roots."""
    return [
        f"{heads[e['vertex_index']]}{e['root']} -> {e['value']}"
        for e in entries
    ]


def _human_lines(report: dict) -> list[str]:
    lines = ["== config =="]
    lines.append(json.dumps(report["config"], sort_keys=True))
    if "flag" in report:
        f = report["flag"]
        lines.append("== flag ==")
        lines.append(f"R_m+ count: {f['r_m_plus_count']}")
        lines.append(f"h_V: [{', '.join(f['h_v'])}]")
        lines.append(f"in chamber: {'yes' if f['in_chamber'] else 'no'}")
        lines.append("margins of h_V:")
        for entry in f["h_v_margins"]:
            lines.append(f"  root {entry['root']} -> {entry['value']}")
    if "fiber" in report:
        f = report["fiber"]
        lines.append("== fiber ==")
        lines.append(f"dim: {f['dim']}")
        for key in ("smooth", "complete", "effective", "fano"):
            lines.append(f"{key}: {'yes' if f[key] else 'no'}")
        lines.append("polytope vertices:")
        for v in f["polytope_vertices"]:
            lines.append(f"  [{', '.join(v)}]")
    if "verdict" in report:
        v = report["verdict"]
        lines.append("== verdict ==")
        lines.append(f"fiber fano: {'yes' if v['fiber_fano'] else 'no'}")
        lines.append(f"is fano: {'yes' if v['is_fano'] else 'no'}")
        # Each vertex is joined once; entries name it by vertex_index.
        heads = [
            f"  vertex {i} [{', '.join(q)}] root "
            for i, q in enumerate(report["fiber"]["polytope_vertices"])
        ]
        lines.append("margins:")
        lines.extend(_margin_lines(report["margins"], heads) or ["  (none)"])
        lines.append("violations:" if report["violations"] else "violations: (none)")
        lines.extend(_margin_lines(report["violations"], heads))
        if "tau_integrality" in report:
            value = report["tau_integrality"]
            text = "not checked" if value == "not checked" else ("yes" if value else "no")
            lines.append(f"tau integrality: {text}")
    if "scan" in report:
        s = report["scan"]
        lines.append("== scan ==")
        for entry in s["entries"]:
            label = f"k={entry['k']} " if "k" in entry else ""
            tau_txt = json.dumps(entry["tau"], separators=(",", ":"))
            verdict = "fano" if entry["is_fano"] else "not fano"
            lines.append(f"{label}tau {tau_txt} -> {verdict}")
        c = s["summary"]
        lines.append(
            f"summary: fano={c['fano']} not_fano={c['not_fano']} skipped={c['skipped']}"
        )
    if "oracle" in report and report["oracle"] is not None:
        o = report["oracle"]
        lines.append("== oracle ==")
        lines.append(
            f"fixed-point exact match: {'yes' if o['fixed_point_exact_match'] else 'no'}"
        )
        lines.append(f"fs fixed-point max error: {o['fs_fixed_point_max_error']!r}")
        lines.append(
            f"samples in polytope ({o['samples']}): "
            f"{'yes' if o['samples_in_polytope'] else 'no'}"
        )
        lines.append(f"barycenter norm: {o['barycenter_norm']!r}")
    lines.append("== warnings ==")
    if report.get("warnings"):
        for w in report["warnings"]:
            lines.append(f"  {w}")
    else:
        lines.append("  (none)")
    return lines


def cmd_check(cfg: Config, oracle: bool) -> dict:
    flag = _build_flag(cfg)
    fan = _build_fan(cfg.fiber_spec, "fiber")
    tau = _build_tau(cfg)
    warnings: list[str] = []
    verdict = fano_check(flag, fan, tau)
    integrality = verdict.integrality(cfg.cocharacter_basis)
    fiber = _fiber_report(fan, verdict.fiber)
    margins = _margins_json(verdict.margins, flag.r_m_plus, fiber["polytope_vertices"])
    report = {
        "config": cfg.echo,
        "flag": _flag_report(flag),
        "fiber": fiber,
        "verdict": {
            "fiber_fano": verdict.fiber.fano,
            "is_fano": verdict.is_fano,
        },
        "margins": margins,
        # The denominator is positive: the numerator carries the sign.
        "violations": [
            d
            for d, value in zip(margins, chain.from_iterable(verdict.margins))
            if value.numerator <= 0
        ],
        "tau_integrality": "not checked" if integrality is None else integrality,
        "warnings": warnings,
    }
    if not verdict.fiber.fano:
        warnings.append("fiber fan is not Fano")
    if not verdict.surjective:
        warnings.append(
            "tau is not surjective at Lie-algebra level; "
            "the bundle degenerates to a product"
        )
    if oracle:
        report["oracle"] = _oracle_report(cfg, fan, verdict.fiber.polytope, warnings)
    return report


def cmd_polytope(cfg: Config, oracle: bool) -> dict:
    fan = _build_fan(cfg.fiber_spec, "fiber")
    warnings: list[str] = []
    diag = validate_fan(fan)
    if diag.polytope is None:
        raise DomainError("fan is not smooth and complete; no canonical polytope")
    if not diag.fano:
        warnings.append("fan is not Fano")
    fiber = _fiber_report(fan, diag)
    report = {"config": cfg.echo, "fiber": fiber, "warnings": warnings}
    if oracle:
        report["oracle"] = _oracle_report(cfg, fan, diag.polytope, warnings)
    return report


def cmd_flag_info(cfg: Config) -> dict:
    flag = _build_flag(cfg)
    warnings: list[str] = []
    if not flag.painting.crossed:
        warnings.append("no bundle possible (m>0): painting has no crossed nodes")
    return {"config": cfg.echo, "flag": _flag_report(flag), "warnings": warnings}


def _count(n: int) -> str:
    # A box count can pass the interpreter's integer string digit limit,
    # past which str raises ValueError; n >= 10^limit exactly then.
    try:
        return str(n)
    except ValueError:
        return f"at least 10^{sys.get_int_max_str_digits()}"


def _box(bound: int, m: int, k: int) -> Iterator[tuple[dict, list]]:
    """Every m x k integer matrix with entries in [-bound, bound], unlabelled.

    A generator function, so nothing runs before the first read: product
    takes in its whole range at once, which must wait for the cap check.
    """
    for flat in iter_product(range(-bound, bound + 1), repeat=m * k):
        yield {}, [flat[i * k : (i + 1) * k] for i in range(m)]


def cmd_scan(cfg: Config, cap_override: int | None) -> dict:
    flag = _build_flag(cfg)
    fan = _build_fan(cfg.fiber_spec, "fiber")
    base_tau = _build_tau(cfg)
    if cfg.scan is None:
        raise ConfigError("scan", "missing required field")
    if cap_override is not None and cap_override < 0:
        raise ConfigError("--max", "must be >= 0")
    cap = cap_override if cap_override is not None else cfg.scan.get("cap", DEFAULT_SCAN_CAP)
    if cfg.scan["kind"] == "scale":
        lo, hi = cfg.scan["range"]
        count = max(0, hi - lo + 1)
        family = (({"k": k}, base_tau.scaled(k).matrix) for k in range(lo, hi + 1))
    else:
        bound = cfg.scan["bound"]
        k_dim = len(base_tau.matrix[0]) if base_tau.matrix else 0
        count = (2 * bound + 1) ** (fan.dim * k_dim)
        family = _box(bound, fan.dim, k_dim)
    # fano_scan validates the config now; no tau is built before the cap check.
    labelled, matrices = tee(family)
    verdicts = fano_scan(flag, fan, base_tau, (rows for _, rows in matrices))
    if count > cap:
        raise InputError(
            f"scan would enumerate {_count(count)} instances, over the cap {cap}; "
            f"raise it with --max"
        )
    entries = [
        {**label, "tau": [_vec(row) for row in rows], "is_fano": verdict.is_fano}
        for (label, rows), verdict in zip(labelled, verdicts)
    ]
    fano = sum(1 for e in entries if e["is_fano"])
    summary = {"fano": fano, "not_fano": len(entries) - fano, "skipped": 0}
    return {
        "config": cfg.echo,
        "scan": {"mode": cfg.scan["kind"], "entries": entries, "summary": summary},
        "warnings": [],
    }


# json's string encoder under its default ensure_ascii=True.
_json_str = json.encoder.encode_basestring_ascii
# The text json writes for each leaf type a report holds, floats aside.
# bool is its own type here, so True and 1 never share a memo key.
_LEAF_TEXT = {
    str: _json_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(report: Any) -> str:
    """json.dumps(report, sort_keys=True, indent=2), byte for byte.

    With indent set, json gives up its C encoder for a Python one. This
    writer keeps json's text for dicts with str keys, lists, str, bool, int,
    None and float, and writes each list of leaves of one type once per
    object and depth: a report shares one list per root and per vertex.
    Floats and any other leaf go to json itself, so NaN, Infinity and -0.0
    stay json's own.
    """
    out: list[str] = []
    # A list met again as the same object reuses its text; the entry holds
    # the list, so its id cannot pass to another object meanwhile.
    by_object: dict[tuple[int, int], tuple[list, str]] = {}

    def write(v: Any, depth: int) -> None:
        leaf = _LEAF_TEXT.get(type(v))
        if leaf is not None:
            out.append(leaf(v))
        elif isinstance(v, dict):
            if not v:
                out.append("{}")
                return
            inner = "\n" + "  " * (depth + 1)
            head = "{" + inner
            for key in sorted(v):
                out.append(head + _json_str(key) + ": ")
                write(v[key], depth + 1)
                head = "," + inner
            out.append("\n" + "  " * depth + "}")
        elif isinstance(v, (list, tuple)):
            if not v:
                out.append("[]")
                return
            seen = by_object.get((id(v), depth))
            if seen is not None and seen[0] is v:
                out.append(seen[1])
                return
            inner = "\n" + "  " * (depth + 1)
            close = "\n" + "  " * depth + "]"
            kind = type(v[0])
            leaf = _LEAF_TEXT.get(kind)
            if leaf is not None and all(type(x) is kind for x in v):
                text = "[" + inner + ("," + inner).join(map(leaf, v)) + close
                by_object[id(v), depth] = (v, text)
                out.append(text)
                return
            head = "[" + inner
            for x in v:
                out.append(head)
                write(x, depth + 1)
                head = "," + inner
            out.append(close)
        else:
            out.append(json.dumps(v))

    write(report, 0)
    return "".join(out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanotoric",
        description="Exact Fano criterion for homogeneous toric bundles.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to a JSON config file")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--oracle",
        action="store_true",
        help="run the numerical comparisons (projective-space fibers)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[common], help="full positivity verdict")
    sub.add_parser("polytope", parents=[common], help="canonical polytope of the fiber")
    sub.add_parser("flag-info", parents=[common], help="flag manifold summary")
    scan = sub.add_parser("scan", parents=[common], help="classify a family of tau maps")
    scan.add_argument(
        "--max", type=int, default=None, help="enumeration cap (explosion guard)"
    )
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    # ValueError covers JSONDecodeError and integer literals longer than the
    # interpreter's digit limit.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = Config(doc)
        if args.command == "check":
            report = cmd_check(cfg, args.oracle)
        elif args.command == "polytope":
            report = cmd_polytope(cfg, args.oracle)
        elif args.command == "flag-info":
            report = cmd_flag_info(cfg)
            if args.oracle:
                report["warnings"].append("oracle: not applicable to flag-info")
        else:
            report = cmd_scan(cfg, args.max)
            if args.oracle:
                report["warnings"].append("oracle: not applicable to scan")
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json_text(report))
    else:
        print("\n".join(_human_lines(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
