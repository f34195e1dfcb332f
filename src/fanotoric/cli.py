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
import sys
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path
from typing import Any

from .errors import DomainError, InputError
from .fanobundle import (
    TauMap,
    check_tau_integrality,
    fano_check,
    tau_is_surjective,
)
from .flagbase import FlagManifold, Painting, build_flag, chamber_margins
from .rootsys import SimpleType, VectorH, build_root_system
from .toricfiber import (
    Fan,
    canonical_polytope,
    point_fan,
    product,
    projective_space,
    validate_fan,
)

DEFAULT_SCAN_CAP = 10000


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
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(path, f"invalid rational {value!r}") from None
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
    return str(x)


def _vec(xs) -> list[str]:
    return [_rat(Fraction(x)) for x in xs]


class Config:
    """Parsed config with a canonical echo of every recognized section."""

    def __init__(self, doc: Any) -> None:
        doc = _expect_dict(doc, "config")
        self.components: list[SimpleType] | None = None
        self.crossed: list[int] | None = None
        self.zk_basis: list[VectorH] | None = None
        self.fiber_spec: dict | None = None
        self.tau_rows: list[list[Fraction]] | None = None
        self.cocharacter_basis: list[VectorH] | None = None
        self.scan: dict | None = None
        self.echo: dict = {}
        if "base" in doc:
            self._parse_base(_expect_dict(doc["base"], "base"))
        if "zk_basis" in doc:
            self._parse_basis(doc["zk_basis"], "zk_basis")
        if "fiber" in doc:
            self.fiber_spec = self._parse_fiber(doc["fiber"], "fiber")
            self.echo["fiber"] = self.fiber_spec
        if "tau" in doc:
            self._parse_tau(doc["tau"])
        if "cocharacter_basis" in doc:
            self._parse_cochar(doc["cocharacter_basis"])
        if "scan" in doc:
            self._parse_scan(_expect_dict(doc["scan"], "scan"))

    @property
    def total_rank(self) -> int:
        if self.components is None:
            raise ConfigError("base", "missing required field")
        return sum(t.rank for t in self.components)

    def _parse_base(self, base: dict) -> None:
        comps = []
        for i, item in enumerate(
            _expect_list(_get(base, "components", "base"), "base.components")
        ):
            path = f"base.components[{i}]"
            item = _expect_dict(item, path)
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
            crossed.append(idx - 1)
        self.crossed = crossed
        self.echo["base"] = {
            "components": [
                {"letter": t.letter, "rank": t.rank} for t in comps
            ],
            "crossed": sorted(i + 1 for i in crossed),
        }

    def _parse_basis(self, value: Any, path: str) -> None:
        arr = _expect_list(value, path)
        vectors = [
            _parse_vector(v, f"{path}[{i}]", self.total_rank)
            for i, v in enumerate(arr)
        ]
        self.zk_basis = vectors
        self.echo[path] = [_vec(v.coords) for v in vectors]

    def _parse_cochar(self, value: Any) -> None:
        arr = _expect_list(value, "cocharacter_basis")
        vectors = [
            _parse_vector(v, f"cocharacter_basis[{i}]", self.total_rank)
            for i, v in enumerate(arr)
        ]
        self.cocharacter_basis = vectors
        self.echo["cocharacter_basis"] = [_vec(v.coords) for v in vectors]

    def _parse_fiber(self, spec: Any, path: str) -> dict:
        spec = _expect_dict(spec, path)
        kind = _get(spec, "kind", path)
        if kind == "projective_space":
            dim = _parse_int(_get(spec, "dim", path), _join(path, "dim"))
            if dim < 1:
                raise ConfigError(_join(path, "dim"), "must be >= 1")
            return {"kind": kind, "dim": dim}
        if kind == "fan":
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
            rng = _expect_list(_get(spec, "range", "scan"), "scan.range")
            if len(rng) != 2:
                raise ConfigError("scan.range", "expected [lo, hi]")
            lo = _parse_int(rng[0], "scan.range[0]")
            hi = _parse_int(rng[1], "scan.range[1]")
            out["range"] = [lo, hi]
        elif kind == "box":
            out["bound"] = _parse_int(_get(spec, "bound", "scan"), "scan.bound")
            if out["bound"] < 0:
                raise ConfigError("scan.bound", "must be >= 0")
        else:
            raise ConfigError("scan.kind", f"unknown scan kind {kind!r} (scale, box)")
        if "cap" in spec:
            out["cap"] = _parse_int(spec["cap"], "scan.cap")
        self.scan = out
        self.echo["scan"] = out


def _build_fan(spec: dict, path: str) -> Fan:
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
        "in_chamber": all(value > 0 for _, value in margins),
    }


def _fiber_report(fan: Fan) -> dict:
    diag = validate_fan(fan)
    rep: dict = {
        "dim": fan.dim,
        "smooth": diag.smooth,
        "complete": diag.complete,
        "effective": diag.effective,
    }
    if diag.polytope is not None:
        rep["fano"] = diag.fano
        rep["polytope_vertices"] = [_vec(v) for v in diag.polytope.vertices]
    return rep


def _margins_json(entries) -> list[dict]:
    return [
        {
            "vertex_index": e.vertex_index,
            "vertex": _vec(e.vertex),
            "root": list(e.root),
            "value": _rat(e.value),
        }
        for e in entries
    ]


def _oracle_report(cfg: Config, fan: Fan, warnings: list[str]) -> dict | None:
    from . import numcheck  # numpy is loaded only when --oracle asks for it

    if cfg.fiber_spec is None or cfg.fiber_spec.get("kind") != "projective_space":
        warnings.append("oracle: comparison available only for projective_space fibers")
        return None
    m = fan.dim
    poly = canonical_polytope(fan)
    exact_match = all(
        tuple(numcheck.fixed_point_delta(m, i).values) == poly.vertices[i]
        for i in range(m + 1)
    )
    fs_err = 0.0
    for i in range(m + 1):
        point = numcheck.SamplePoint(
            tuple(1.0 + 0j if k == i else 0j for k in range(m + 1))
        )
        delta = numcheck.fs_delta(m, point).values
        fs_err = max(
            fs_err,
            max(abs(d - float(v)) for d, v in zip(delta, poly.vertices[i])),
        )
    samples = numcheck.random_points(m, 200, seed=0)
    slack = 1e-6
    inside = all(
        sum(d * c for d, c in zip(numcheck.fs_delta(m, p).values, ray)) >= -1 - slack
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
        for key in ("smooth", "complete", "effective"):
            lines.append(f"{key}: {'yes' if f[key] else 'no'}")
        if "fano" in f:
            lines.append(f"fano: {'yes' if f['fano'] else 'no'}")
            lines.append("polytope vertices:")
            for v in f["polytope_vertices"]:
                lines.append(f"  [{', '.join(v)}]")
    if "verdict" in report:
        v = report["verdict"]
        lines.append("== verdict ==")
        lines.append(f"fiber fano: {'yes' if v['fiber_fano'] else 'no'}")
        lines.append(f"is fano: {'yes' if v['is_fano'] else 'no'}")
        lines.append("margins:")
        if not report["margins"]:
            lines.append("  (none)")
        for e in report["margins"]:
            lines.append(
                f"  vertex {e['vertex_index']} [{', '.join(e['vertex'])}] "
                f"root {e['root']} -> {e['value']}"
            )
        if report["violations"]:
            lines.append("violations:")
            for e in report["violations"]:
                lines.append(
                    f"  vertex {e['vertex_index']} [{', '.join(e['vertex'])}] "
                    f"root {e['root']} -> {e['value']}"
                )
        else:
            lines.append("violations: (none)")
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
    if cfg.fiber_spec is None:
        raise ConfigError("fiber", "missing required field")
    fan = _build_fan(cfg.fiber_spec, "fiber")
    tau = _build_tau(cfg)
    warnings: list[str] = []
    verdict = fano_check(flag, fan, tau)
    integrality = check_tau_integrality(flag, tau, cfg.cocharacter_basis)
    report = {
        "config": cfg.echo,
        "flag": _flag_report(flag),
        "fiber": _fiber_report(fan),
        "verdict": {
            "fiber_fano": verdict.fiber_fano,
            "is_fano": verdict.is_fano,
        },
        "margins": _margins_json(verdict.margins),
        "violations": _margins_json(verdict.violations),
        "tau_integrality": "not checked" if integrality is None else integrality,
        "warnings": warnings,
    }
    if not verdict.fiber_fano:
        warnings.append("fiber fan is not Fano")
    if not tau_is_surjective(flag, tau):
        warnings.append(
            "tau is not surjective at Lie-algebra level; "
            "the bundle degenerates to a product"
        )
    if oracle:
        report["oracle"] = _oracle_report(cfg, fan, warnings)
    return report


def cmd_polytope(cfg: Config, oracle: bool) -> dict:
    if cfg.fiber_spec is None:
        raise ConfigError("fiber", "missing required field")
    fan = _build_fan(cfg.fiber_spec, "fiber")
    warnings: list[str] = []
    fiber = _fiber_report(fan)
    if "fano" not in fiber:
        raise DomainError("fan is not smooth and complete; no canonical polytope")
    if not fiber["fano"]:
        warnings.append("fan is not Fano")
    report = {"config": cfg.echo, "fiber": fiber, "warnings": warnings}
    if oracle:
        report["oracle"] = _oracle_report(cfg, fan, warnings)
    return report


def cmd_flag_info(cfg: Config) -> dict:
    flag = _build_flag(cfg)
    warnings: list[str] = []
    if not flag.painting.crossed:
        warnings.append("no bundle possible (m>0): painting has no crossed nodes")
    return {"config": cfg.echo, "flag": _flag_report(flag), "warnings": warnings}


def cmd_scan(cfg: Config, cap_override: int | None) -> dict:
    flag = _build_flag(cfg)
    if cfg.fiber_spec is None:
        raise ConfigError("fiber", "missing required field")
    fan = _build_fan(cfg.fiber_spec, "fiber")
    base_tau = _build_tau(cfg)
    if cfg.scan is None:
        raise ConfigError("scan", "missing required field")
    cap = cap_override if cap_override is not None else cfg.scan.get("cap", DEFAULT_SCAN_CAP)
    entries: list[dict] = []
    if cfg.scan["kind"] == "scale":
        lo, hi = cfg.scan["range"]
        count = max(0, hi - lo + 1)
        if count > cap:
            raise InputError(
                f"scan would enumerate {count} instances, over the cap {cap}; "
                f"raise it with --max"
            )
        for k in range(lo, hi + 1):
            tau = base_tau.scaled(k)
            entries.append(
                {
                    "k": k,
                    "tau": [[_rat(x) for x in row] for row in tau.matrix],
                    "is_fano": fano_check(flag, fan, tau).is_fano,
                }
            )
    else:
        bound = cfg.scan["bound"]
        m = fan.dim
        k_dim = len(base_tau.matrix[0]) if base_tau.matrix else 0
        cells = m * k_dim
        count = (2 * bound + 1) ** cells if cells else 1
        if count > cap:
            raise InputError(
                f"scan would enumerate {count} instances, over the cap {cap}; "
                f"raise it with --max"
            )
        for flat in iter_product(range(-bound, bound + 1), repeat=cells):
            rows = tuple(
                tuple(Fraction(x) for x in flat[i * k_dim : (i + 1) * k_dim])
                for i in range(m)
            )
            tau = TauMap(rows, base_tau.basis)
            entries.append(
                {
                    "tau": [[_rat(x) for x in row] for row in tau.matrix],
                    "is_fano": fano_check(flag, fan, tau).is_fano,
                }
            )
    fano = sum(1 for e in entries if e["is_fano"])
    summary = {"fano": fano, "not_fano": len(entries) - fano, "skipped": 0}
    return {
        "config": cfg.echo,
        "scan": {"mode": cfg.scan["kind"], "entries": entries, "summary": summary},
        "warnings": [],
    }


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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = Config(doc)
        if args.command == "check":
            report = cmd_check(cfg, args.oracle)
        elif args.command == "polytope":
            report = cmd_polytope(cfg, args.oracle)
        elif args.command == "flag-info":
            if args.oracle:
                report = cmd_flag_info(cfg)
                report["warnings"].append("oracle: not applicable to flag-info")
            else:
                report = cmd_flag_info(cfg)
        else:
            report = cmd_scan(cfg, args.max)
            if args.oracle:
                report["warnings"].append("oracle: not applicable to scan")
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print("\n".join(_human_lines(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
