"""Seeded config files for the three benchmark workloads.

Each workload is a fixed cycle of input *shapes* (simple type, painting,
fiber, subcommand, output mode).  The seed varies the values inside each
shape: which of two diagram-symmetric paintings is used, the declared
z(k) basis (a unimodular change of the crossed-node basis), and the entries
of tau.  Two seeds therefore give different files but the same amount of
work, which keeps run-to-run spread small enough to resolve a regression.

Every seed also contains the paper's two boundary cases, whose verdict is
known exactly: the Hirzebruch bundle at n = 2 and SO(16)/U(4)xU(4) with a
projective-plane fiber at scale 12.  Both have an exact-zero margin and
are not Fano.

The generator knows the fans it writes, so it also records their rays;
the correctness gate compares the reported polytope against a brute-force
halfspace-vertex oracle on those rays.  Only the written files reach the
program.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

# Distinct seeded variants generated per workload; runs that need more
# cycles than this reuse them in order.
CYCLES = 16

# tau = t * M with M a random small integer matrix.  t far below the
# margin scale keeps h_Q next to h_V (Fano); t far above it pushes some
# margin negative (not Fano), since the canonical polytope of a Fano fan
# has 0 in its interior.  Both values were checked on every shape below.
TAU_IN = Fraction(1, 10000)
TAU_OUT = Fraction(10000)


@dataclass(frozen=True)
class Fiber:
    spec: dict
    rays: tuple[tuple[int, ...], ...]
    dim: int
    cones: int
    fano: bool


def _pm(m: int) -> Fiber:
    rays = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    rays.append(tuple(-1 for _ in range(m)))
    return Fiber({"kind": "projective_space", "dim": m}, tuple(rays), m, m + 1, True)


def _times(a: Fiber, b: Fiber) -> Fiber:
    rays = tuple(r + (0,) * b.dim for r in a.rays) + tuple(
        (0,) * a.dim + r for r in b.rays
    )
    spec = {"kind": "product", "parts": [a.spec, b.spec]}
    return Fiber(spec, rays, a.dim + b.dim, a.cones * b.cones, a.fano and b.fano)


def _hirzebruch(n: int) -> Fiber:
    rays = ((1, 0), (0, 1), (-1, n), (0, -1))
    spec = {
        "kind": "fan",
        "rays": [list(r) for r in rays],
        "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
    }
    return Fiber(spec, rays, 2, 4, n <= 1)


FIBERS = {
    "P1": _pm(1),
    "P2": _pm(2),
    "P3": _pm(3),
    "P1xP1": _times(_pm(1), _pm(1)),
    "P2xP2": _times(_pm(2), _pm(2)),
    "P3xP3": _times(_pm(3), _pm(3)),
    "F1": _hirzebruch(1),
    "F2": _hirzebruch(2),
}


@dataclass(frozen=True)
class Shape:
    """One base-and-fiber combination; crossed nodes are 1-based."""

    letter: str
    rank: int
    crossed: tuple[int, ...]
    fiber: str
    regime: str = "in"  # "in": tau near 0; "out": tau far outside
    declare_basis: bool = False
    basis_scale: Fraction = Fraction(1)
    cochar: bool = False


@dataclass
class Op:
    """One invocation of the CLI and what the gate knows about its answer."""

    label: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    pair: int | None = None  # cli-cold: human/--json runs of one config


@dataclass
class Workload:
    name: str
    cycles: list[list[Op]]
    settings: dict


# check-mix: costs here range from a few ms (G2) to a few hundred (D20
# with P3xP3), so the latency percentiles see both ends.  --json on every
# other position.
CHECK_SHAPES = (
    Shape("A", 5, (2, 4), "P2"),
    Shape("A", 12, (4, 9), "P1xP1", "out", declare_basis=True),
    Shape("A", 20, (1, 10, 20), "P3"),
    Shape("B", 12, (3, 12), "P2", "out"),
    Shape("B", 12, (1,), "P3", declare_basis=True, cochar=True),
    Shape("C", 8, (2, 8), "P1xP1", "out"),
    Shape("C", 20, (20,), "P1"),
    Shape("D", 10, (5, 10), "P2", declare_basis=True, cochar=True),
    Shape("D", 20, (1, 20), "P3xP3"),
    Shape("D", 20, (10, 20), "P2", "out"),
    Shape("D", 14, (1, 2, 14), "P3", declare_basis=True),
    Shape("E", 6, (1, 6), "F1", "out"),
    Shape("E", 7, (7,), "F2"),
    Shape("E", 8, (1,), "P1", "out", cochar=True),
    Shape("E", 8, (1, 8), "P2xP2"),
    Shape("F", 4, (1, 4), "P2", "out", declare_basis=True),
    Shape("G", 2, (1, 2), "P1xP1"),
    Shape("G", 2, (2,), "P3", "out"),
    Shape("A", 8, (3,), "F1", declare_basis=True),
    Shape("B", 20, (1, 2), "P2xP2", "out"),
)

# scan-box: one base per line, box bound 1 over m*k = 4 cells (81 tau).
# A scan is timed as one call, and the machine's speed is sampled only
# around each call (see run.py), so a call must be short next to the
# seconds a speed state lasts; a 625-tau box (bound 2) takes 3 to 5 s.
# basis_scale puts the box across the Fano boundary for that painting.
SCAN_SHAPES = (
    Shape("D", 10, (5, 10), "P2", basis_scale=Fraction(1, 8)),
    Shape("D", 14, (1, 2), "P2", basis_scale=Fraction(2)),
    Shape("E", 7, (1, 7), "P2", basis_scale=Fraction(1, 6)),
    Shape("B", 8, (1, 8), "P1xP1", basis_scale=Fraction(1, 4)),
)
SCAN_BOUND = 1
SCALE_RANGE = (-10, 10)
# Scale scans through the boundary cases, with what is known exactly:
# the Hirzebruch surface F_k is Fano iff |k| <= 1; SO(16) at scale 12 is
# not Fano (its margins include exact zeros at the vertex Q_o).
BOUNDARY_SCANS = {"hirzebruch-n2": (-3, 3, "abs<=1"), "so16-scale12": (8, 13, "12 not fano")}

# cli-cold: the repo's own configs cover all four subcommands; two small
# seeded checks with projective-space fibers run with --oracle.
COLD_SHAPES = (
    Shape("A", 3, (1, 3), "P2"),
    Shape("C", 3, (2,), "P1", "out", declare_basis=True),
)
REPO_CONFIGS = (
    ("check", "hirzebruch_n1", {"rank": 1, "fiber": "P1", "is_fano": True, "tau_integrality": True}),
    ("check", "hirzebruch_n2", {"rank": 1, "fiber": "P1", "is_fano": False, "zero_margin": True, "tau_integrality": True}),
    ("check", "so16", {"rank": 8, "fiber": "P2", "is_fano": False, "zero_margin": True}),
    ("polytope", "cp1xcp1_polytope", {"fiber": "P1xP1"}),
    ("flag-info", "so20", {"rank": 10}),
    ("scan", "hirzebruch_scan", {"rank": 1, "tau": [[Fraction(1)]], "scale": [0, 5], "fano_rule": "abs<=1"}),
)


def _rat(x: Fraction) -> int | str:
    return x.numerator if x.denominator == 1 else str(x)


def _write(path: Path, doc: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _symmetric_painting(shape: Shape, rnd: random.Random) -> tuple[int, ...]:
    """The painting or its image under a diagram symmetry of equal cost."""
    r = shape.rank
    flip = rnd.random() < 0.5
    if not flip:
        return shape.crossed
    if shape.letter == "A":
        image = {i: r + 1 - i for i in range(1, r + 1)}
    elif shape.letter == "E" and r == 6:
        image = {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4}
    elif shape.letter == "D":
        image = {i: i for i in range(1, r + 1)}
        image[r - 1], image[r] = r, r - 1
    else:
        return shape.crossed
    return tuple(sorted(image[i] for i in shape.crossed))


def _basis(shape: Shape, crossed: tuple[int, ...], rnd: random.Random) -> list[list]:
    """A unimodular change of the crossed-node unit basis, times basis_scale."""
    k = len(crossed)
    u = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for i in range(k):
        u[i][i] = Fraction(rnd.choice((-1, 1)))
        for j in range(i + 1, k):
            u[i][j] = Fraction(rnd.choice((-1, 0, 1)))
    if rnd.random() < 0.5:
        u = [list(col) for col in zip(*u)]
    vectors = []
    for j in range(k):
        v = [Fraction(0)] * shape.rank
        for i, node in enumerate(crossed):
            v[node - 1] = u[i][j] * shape.basis_scale
        vectors.append([_rat(x) for x in v])
    return vectors


def _tau(m: int, k: int, scale: Fraction, rnd: random.Random) -> list[list[Fraction]]:
    rows = [[Fraction(rnd.randint(-3, 3)) for _ in range(k)] for _ in range(m)]
    for row in rows:
        if not any(row):
            row[rnd.randrange(k)] = Fraction(rnd.choice((-2, -1, 1, 2)))
    return [[scale * x for x in row] for row in rows]


def _bundle_doc(shape: Shape, rnd: random.Random, tau_scale: Fraction) -> tuple[dict, dict]:
    fiber = FIBERS[shape.fiber]
    crossed = _symmetric_painting(shape, rnd)
    doc: dict = {
        "base": {
            "components": [{"letter": shape.letter, "rank": shape.rank}],
            "crossed": list(crossed),
        }
    }
    basis = None
    if shape.declare_basis or shape.basis_scale != 1:
        basis = _basis(shape, crossed, rnd)
        doc["zk_basis"] = basis
    doc["fiber"] = fiber.spec
    tau = _tau(fiber.dim, len(crossed), tau_scale, rnd)
    doc["tau"] = [[_rat(x) for x in row] for row in tau]
    expect = {
        "rank": shape.rank,
        "fiber": shape.fiber,
        "tau": tau,
    }
    if shape.cochar:
        if basis is None:
            basis = [
                [int(i + 1 == node) for i in range(shape.rank)] for node in crossed
            ]
        # The generators are the basis itself, so tau maps them to its own
        # columns: integral exactly when every tau entry is an integer.
        doc["cocharacter_basis"] = basis
        expect["tau_integrality"] = all(x.denominator == 1 for row in tau for x in row)
    return doc, expect


def _boundary_docs() -> list[tuple[str, dict, dict]]:
    """Hirzebruch n = 2 and SO(16) at scale 12: exact-zero, not Fano."""
    hirz = {
        "base": {"components": [{"letter": "A", "rank": 1}], "crossed": [1]},
        "zk_basis": [["-2"]],
        "fiber": FIBERS["P1"].spec,
        "tau": [[2]],
        "cocharacter_basis": [["-2"]],
    }
    e1 = [0, 0, 0, 1, 0, 0, 0, 0]
    e2 = [0, 0, 0, -1, 0, 0, 0, 2]
    so16 = {
        "base": {"components": [{"letter": "D", "rank": 8}], "crossed": [4, 8]},
        "zk_basis": [e1, e2],
        "fiber": FIBERS["P2"].spec,
        "tau": [[12, 0], [0, 12]],
    }
    known = {"is_fano": False, "zero_margin": True}
    return [
        ("hirzebruch-n2", hirz, dict(known, rank=1, fiber="P1", tau_integrality=True)),
        ("so16-scale12", so16, dict(known, rank=8, fiber="P2")),
    ]


def check_mix(seed: int, out: Path) -> Workload:
    cycles = []
    for c in range(CYCLES):
        rnd = random.Random(f"check-mix:{seed}:{c}")
        ops = []
        entries = [
            (f"{s.letter}{s.rank}-{s.fiber}", s) for s in CHECK_SHAPES
        ] + [(label, (doc, exp)) for label, doc, exp in _boundary_docs()]
        for i, (label, item) in enumerate(entries):
            if isinstance(item, Shape):
                scale = TAU_IN if item.regime == "in" else TAU_OUT
                doc, expect = _bundle_doc(item, rnd, scale)
            else:
                doc, expect = item
            path = _write(out / f"c{c:02d}" / f"{i:02d}-{label}.json", doc)
            argv = ["check", path] + (["--json"] if i % 2 else [])
            ops.append(Op(label, argv, dict(expect)))
        cycles.append(ops)
    settings = {
        "cycles": CYCLES,
        "shapes": [f"{s.letter}{s.rank}{list(s.crossed)}-{s.fiber}-{s.regime}" for s in CHECK_SHAPES],
        "boundary_cases": ["hirzebruch-n2", "so16-scale12"],
        "tau_scales": {"in": str(TAU_IN), "out": str(TAU_OUT)},
        "json_share": "every other op",
    }
    return Workload("check-mix", cycles, settings)


def box_taus(m: int, k: int, bound: int) -> list[list[list[Fraction]]]:
    """Every integer m x k matrix with entries in [-bound, bound], in CLI order."""
    return [
        [[Fraction(x) for x in flat[i * k : (i + 1) * k]] for i in range(m)]
        for flat in iter_product(range(-bound, bound + 1), repeat=m * k)
    ]


def scan_box(seed: int, out: Path) -> Workload:
    cycles = []
    for c in range(CYCLES):
        rnd = random.Random(f"scan-box:{seed}:{c}")
        ops = []
        for i, shape in enumerate(SCAN_SHAPES):
            label = f"{shape.letter}{shape.rank}-{shape.fiber}"
            doc, expect = _bundle_doc(shape, rnd, Fraction(1))
            box = dict(doc, scan={"kind": "box", "bound": SCAN_BOUND})
            path = _write(out / f"c{c:02d}" / f"{i}-{label}-box.json", box)
            ops.append(Op(f"{label}-box", ["scan", path, "--json"], dict(expect, box=SCAN_BOUND)))
            # tau = 2 * M with M in [-3, 3]: k in SCALE_RANGE reaches well
            # past the box, which the basis scale already puts across the
            # boundary, so the scan crosses it too.
            tau = _tau(FIBERS[shape.fiber].dim, len(shape.crossed), Fraction(2), rnd)
            lo, hi = SCALE_RANGE
            scale = dict(doc, tau=[[_rat(x) for x in row] for row in tau],
                         scan={"kind": "scale", "range": [lo, hi]})
            path = _write(out / f"c{c:02d}" / f"{i}-{label}-scale.json", scale)
            ops.append(Op(f"{label}-scale", ["scan", path, "--json"],
                          dict(expect, tau=tau, scale=[lo, hi])))
        for label, doc, expect in _boundary_docs():
            lo, hi, rule = BOUNDARY_SCANS[label]
            unit = [[Fraction(x) / doc["tau"][0][0] for x in row] for row in doc["tau"]]
            scan_doc = dict(doc, tau=[[_rat(x) for x in row] for row in unit],
                            scan={"kind": "scale", "range": [lo, hi]})
            scan_doc.pop("cocharacter_basis", None)
            path = _write(out / f"c{c:02d}" / f"{label}-scale.json", scan_doc)
            ops.append(Op(f"{label}-scale", ["scan", path, "--json"],
                          {"rank": expect["rank"], "fiber": expect["fiber"], "tau": unit,
                           "scale": [lo, hi], "fano_rule": rule}))
        cycles.append(ops)
    settings = {
        "cycles": CYCLES,
        "bases": [f"{s.letter}{s.rank}{list(s.crossed)}-{s.fiber} basis x{s.basis_scale}" for s in SCAN_SHAPES],
        "box_bound": SCAN_BOUND,
        "scale_range": list(SCALE_RANGE),
        "boundary_scans": {k: f"k in [{lo}, {hi}], {rule}" for k, (lo, hi, rule) in BOUNDARY_SCANS.items()},
    }
    return Workload("scan-box", cycles, settings)


def cli_cold(seed: int, out: Path, configs: Path) -> Workload:
    """Pairs of child runs of one config: human output, then --json.

    A cycle has 8 pairs; the 2 seeded ones use --oracle, a quarter of runs.
    """
    cycles = []
    for c in range(CYCLES):
        rnd = random.Random(f"cli-cold:{seed}:{c}")
        jobs = [
            (name, sub, str(configs / f"{name}.json"), expect, [])
            for sub, name, expect in REPO_CONFIGS
        ]
        for i, shape in enumerate(COLD_SHAPES):
            scale = TAU_IN if shape.regime == "in" else TAU_OUT
            doc, expect = _bundle_doc(shape, rnd, scale)
            label = f"{shape.letter}{shape.rank}-{shape.fiber}"
            path = _write(out / f"c{c:02d}" / f"{i}-{label}.json", doc)
            jobs.append((label, "check", path, expect, ["--oracle"]))
        ops = []
        for pair, (label, sub, path, expect, extra) in enumerate(jobs):
            for mode in ([], ["--json"]):
                ops.append(Op(label, [sub, path] + mode + extra, dict(expect), pair))
        cycles.append(ops)
    settings = {
        "cycles": CYCLES,
        "repo_configs": [f"{sub} {name}" for sub, name, _ in REPO_CONFIGS],
        "seeded_shapes": [f"{s.letter}{s.rank}{list(s.crossed)}-{s.fiber}-{s.regime} --oracle" for s in COLD_SHAPES],
        "tau_scales": {"in": str(TAU_IN), "out": str(TAU_OUT)},
        "runs_per_cycle": 2 * len(jobs),
    }
    return Workload("cli-cold", cycles, settings)
