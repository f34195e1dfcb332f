"""Benchmark of the fanotoric CLI on three seeded workloads.

    python3 perfbench/run.py --workload check-mix|scan-box|cli-cold|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs building.  The load
is a closed loop with one client: each op starts when the previous one has
finished, in-process through fanotoric.cli.main for check-mix and scan-box,
and as one child process at a time for cli-cold.  A workload is a fixed
cycle of seeded configs (see gen.py); the timed loop runs the whole number
of cycles (at least one) whose busy time is nearest to S seconds, so every
run measures the same mix.  Every output is checked (see verify.py) between
ops, outside the timed intervals; a failed check counts the op as failed
and is never retried.

The speed of this shared machine changes by up to 1.8x for seconds to
minutes at a time, so a fixed calibration is timed between ops, and every
time is reported at a reference speed: multiplied by the calibration's
reference time over the median of the calibrations nearest to it.  The
calibration is a piece of Fraction arithmetic for in-process ops and a
child that imports numpy for child processes.

With --trace 0 the last line reports the end-to-end metrics.  With
--trace 1 every op runs twice in a row, untraced and with every public
function of the engine wrapped (see tracer.py), for S seconds in all, and
the last line reports the per-layer metrics and the tracing overhead.  The
line before the last holds the run metadata; everything is also written to
.bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("check-mix", "scan-box", "cli-cold")
SETUP_REPEATS = 7
# Fraction calibrations before and after each set-up; a child one costs
# twenty times as much, so there is one on either side.
SETUP_CALIBRATIONS = 2
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 60
# Scan entries re-run as `check` per box scan and per scale scan.
CROSS_CHECKS = {"box": 2, "scale": 1}
# Times are reported as they would read at the speed where calibrate()
# takes CALIBRATION_REF_S, about the fast state of a 2.1 GHz Xeon vCPU.
CALIBRATION_STEPS = 1500
CALIBRATION_REF_S = 0.005
# The same for child_start(), which takes about 100 ms there.
CHILD_REF_S = 0.100
CALIBRATION_WINDOW = 8  # calibrations on either side of an op

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "rootsys.build_root_system.self_ms": "ms/op",
    "rootsys.killing_form.calls": "calls/op",
    "flagbase.build_flag.self_ms": "ms/op",
    "flagbase.chamber_margins.self_ms": "ms/op",
    "toricfiber.validate_fan.calls": "calls/op",
    "toricfiber.validate_fan.self_ms": "ms/op",
    "toricfiber.is_fano.self_ms": "ms/op",
    "toricfiber.canonical_polytope.calls": "calls/op",
    "toricfiber.canonical_polytope.self_ms": "ms/op",
    "fanobundle.fano_check.self_ms": "ms/op",
    "fanobundle.fano_margins.self_ms": "ms/op",
    "fanobundle.tau_is_surjective.self_ms": "ms/op",
    "fanobundle.pullback_point.calls": "calls/op",
    "fanobundle.margin_entries": "entries/op",
    "fanobundle.zero_margins": "entries/op",
    "fanobundle.entries_shown_ratio": "ratio",
    "linalg.solve_square.calls": "calls/op",
    "linalg.solve_consistent.calls": "calls/op",
    "linalg.matrix_rank.calls": "calls/op",
    "linalg.determinant.calls": "calls/op",
    "linalg.self_ms": "ms/op",
    "cli.Config.self_ms": "ms/op",
    "cli.cmd_check.self_ms": "ms/op",
    "cli.cmd_scan.self_ms": "ms/op",
    "cli.main.self_ms": "ms/op",
    "cli.output_bytes": "bytes/op",
    "numcheck.barycenter_integral.self_ms": "ms/op",
    "numcheck.random_points.self_ms": "ms/op",
    "numcheck.fs_delta.calls": "calls/op",
    "import.fanotoric_cli_ms": "ms",
    "import.numpy_ms": "ms",
    "import.largest_other_ms": "ms",
    "process.bare_python_ms": "ms",
    "rootsys.self_share": "ratio",
    "flagbase.self_share": "ratio",
    "toricfiber.self_share": "ratio",
    "fanobundle.self_share": "ratio",
    "linalg.self_share": "ratio",
    "cli.self_share": "ratio",
    "numcheck.self_share": "ratio",
    "import.self_share": "ratio",
    "trace.overhead_ops_per_s": "1/s",
    "trace.overhead_share": "ratio",
}


class Fail(Exception):
    """The checkout cannot run the benchmark."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(cmd: list[str], out: Path, err: Path) -> tuple[int, float, float]:
    """Run one child to completion: exit code, wall seconds, peak RSS in MB."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_maxrss / 1024


def git_sha() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (no .git in checkout)"


def calibrate() -> float:
    """Seconds taken by a fixed piece of Fraction arithmetic, like the engine's."""
    t0 = perf_counter()
    x, a, b = Fraction(0), Fraction(3, 7), Fraction(-5, 11)
    for i in range(CALIBRATION_STEPS):
        x = x * a + b if i % 3 else x - a * b
        if x.denominator > 10**30:
            x = Fraction(i, 7)
    return perf_counter() - t0


def child_start(where: Path) -> float:
    """Seconds a child takes to start and import numpy: the calibration for
    children.  numpy is the program's one third-party dependency and most
    of its import time, and loading it is work of the same kind."""
    return run_child([sys.executable, "-c", "import numpy"], where / "cal.out", where / "cal.err")[1]


def speed(before: float, after: float) -> float:
    """Factor from wall time to reference time, given the calibrations around it."""
    return 2 * CALIBRATION_REF_S / (before + after)


def importtime(text: str) -> tuple[float, dict[str, float]]:
    """Cumulative ms of fanotoric.cli and of each top-level package, from
    the stderr of `python -X importtime`."""
    cli_ms, top = 0.0, {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        ms = int(cumulative) / 1000
        package = name.strip().split(".")[0]
        top[package] = max(top.get(package, 0.0), ms)
        if name.strip() == "fanotoric.cli":
            cli_ms = ms
    return cli_ms, top


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


# -- workloads -----------------------------------------------------------


def new_stats(traced: bool) -> dict:
    return {"traced": traced, "ops": 0, "failed": 0, "busy": 0.0, "scaled_busy": 0.0,
            "timed": [], "latency": [], "kinds": {}, "speed": {}, "failed_units": {},
            "fano": 0, "verdicts": 0, "zero_margins": 0, "out_bytes": 0,
            "problems": [], "peak_child_rss_mb": 0.0}


class Workload:
    """Generated inputs, the loop that runs them and the per-op checks."""

    unit_name = "op"
    # Ops that run as child processes are calibrated by child_start: most
    # of a child's time is start-up and loading modules, whose speed at
    # times changes when the Fraction loop's does not (over 303 cli-cold
    # ops, the scaled times of 32-op blocks varied by 0.08 with the loop
    # or a bare `python -c pass`, and by 0.03 with child_start).
    in_children = False

    def calibrate(self) -> float:
        return child_start(self.dir) if self.in_children else calibrate()

    @property
    def calibration_ref_s(self) -> float:
        return CHILD_REF_S if self.in_children else CALIBRATION_REF_S

    def __init__(self, name: str, seed: int) -> None:
        self.name, self.seed = name, seed
        self.dir = WORK / name / f"seed{seed}"
        import gen
        import oracles
        import verify

        self.gen, self.verify = gen, verify
        self.gate = verify.Gate(oracles)
        self.spec = None

    def generate(self):
        raise NotImplementedError

    def execute(self, op, tracer, op_id: int) -> tuple[int | None, str, float, float, str]:
        """Run one op: exit code, stdout, wall seconds, child RSS in MB, error."""
        raise NotImplementedError

    def setup_once(self) -> float:
        """One set-up, in seconds at the reference speed.

        It is the import of fanotoric.cli as a fresh interpreter times it
        itself (-X importtime, so process start is left out), then input
        generation in this process and one warm-up op.  Each part is
        scaled by the calibration of where it ran, child or this process;
        there are few set-ups, so by the median of several calibrations
        around it, which one stray calibration cannot move.
        """
        out, err = self.dir.parent / "probe.out", self.dir.parent / "probe.err"
        here = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        children = [child_start(self.dir)]
        code, _, _ = run_child(
            [sys.executable, "-X", "importtime", "-c",
             "import fanotoric.cli, sys; sys.stdout.write(fanotoric.cli.__file__)"], out, err)
        src = out.read_text()
        if code != 0 or not Path(src).resolve().is_relative_to(ROOT / "src"):
            raise Fail(f"a child process imports fanotoric from {src or 'nowhere'}, not {ROOT / 'src'}")
        import_s = importtime(err.read_text())[0] / 1000
        t0 = perf_counter()
        self.spec = self.generate()
        t1 = perf_counter()
        self.execute(self.warm_up_op(), None, 0)
        t2 = perf_counter()
        here += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        children.append(child_start(self.dir))
        in_here = CALIBRATION_REF_S / statistics.median(here)
        in_child = CHILD_REF_S / statistics.median(children)
        warm_up = in_child if self.in_children else in_here
        return import_s * in_child + (t1 - t0) * in_here + (t2 - t1) * warm_up

    def warm_up_op(self):
        return self.spec.cycles[0][0]

    def loop(self, seconds: float, tracer=None) -> tuple[dict, dict | None]:
        """Run whole cycles, as many as brings the busy time nearest to seconds.

        With a tracer every op runs twice in a row, untraced and traced,
        the order alternating by cycle, so both sides see the same load
        on the machine and their difference is the tracing overhead.
        """
        self.calibrations = [self.calibrate()]
        plain = new_stats(False)
        traced = new_stats(True) if tracer is not None else None
        cycles = self.spec.cycles
        start = perf_counter()
        c = 0
        while True:
            for op in cycles[c % len(cycles)]:
                sides = [(plain, None)] if traced is None else [(plain, None), (traced, tracer)]
                for stats, tr in sides[:: 1 if c % 2 == 0 else -1]:
                    self.run_op(op, c, stats, tr)
            c += 1
            busy = plain["busy"] + (traced["busy"] if traced else 0.0)
            if busy + busy / c / 2 >= seconds:
                break
        for stats in (plain, traced):
            if stats is not None:
                stats.update(cycles=c, wall=perf_counter() - start)
                self.scale(stats)
        self.finish(plain)
        return plain, traced

    def run_op(self, op, cycle: int, stats: dict, tracer) -> None:
        op_id = stats["ops"]
        code, text, wall, rss, error = self.execute(op, tracer, op_id)
        self.calibrations.append(self.calibrate())
        units = self.units(op)
        stats["busy"] += wall
        stats["ops"] += units
        # A kind is one config position of the cycle; output mode aside.
        kind = " ".join([op.argv[0], op.label, *(a for a in op.argv[2:] if a != "--json")])
        stats["timed"].append((op_id, wall, units, kind, len(self.calibrations) - 2))
        stats["out_bytes"] += len(text.encode())
        stats["peak_child_rss_mb"] = max(stats["peak_child_rss_mb"], rss)
        if code != 0:
            self.fail(stats, op, op_id, error or f"exit status {code}", units)
            return
        # Any exception here, a KeyError on a report missing a field too,
        # is a program defect: it fails this op and the run goes on.
        try:
            report = self.verify.parse(text, "--json" in op.argv)
            problems = self.gate.check(report, op.expect)
            if not problems:
                self.tally(stats, report)
                self.after(op, op_id, cycle, report, stats)
        except Exception as exc:
            problems = [f"output fails the gate: {type(exc).__name__}: {exc}"]
        if problems:
            self.fail(stats, op, op_id, "; ".join(problems), units)

    def scale(self, stats: dict) -> None:
        """Bring each op's wall time to the reference speed.

        The factor is the calibration's reference time over the median of
        the CALIBRATION_WINDOW calibrations on either side of the op: one
        calibration is short and jitters by about 10%, while the machine's
        speed changes over seconds.
        """
        cals = self.calibrations
        for op_id, wall, units, kind, before in stats["timed"]:
            near = cals[max(0, before + 1 - CALIBRATION_WINDOW):before + 1 + CALIBRATION_WINDOW]
            factor = self.calibration_ref_s / statistics.median(near)
            ms = wall * factor * 1000 / units
            stats["speed"][op_id] = factor
            stats["scaled_busy"] += wall * factor
            stats["latency"].append((ms, units))
            stats["kinds"].setdefault(kind, []).append(ms)

    def units(self, op) -> int:
        return 1

    def after(self, op, op_id: int, cycle: int, report: dict, stats: dict) -> None:
        pass

    def finish(self, stats: dict) -> None:
        pass

    def fail(self, stats: dict, op, op_id: int, message: str, count: int = 1) -> None:
        """Count up to count units of the op as failed, never more than it has."""
        done = stats["failed_units"].get(op_id, 0)
        count = min(count, self.units(op) - done)
        stats["failed_units"][op_id] = done + count
        stats["failed"] += count
        if len(stats["problems"]) < 20:
            stats["problems"].append(f"{op.label} {' '.join(op.argv[:1] + op.argv[2:])}: {message}")

    @staticmethod
    def tally(stats: dict, report: dict) -> None:
        if "verdict" in report:
            stats["verdicts"] += 1
            stats["fano"] += report["verdict"]["is_fano"]
            stats["zero_margins"] += sum(1 for e in report["margins"] if e["value"] == "0")
        if "scan" in report:
            entries = report["scan"]["entries"]
            stats["verdicts"] += len(entries)
            stats["fano"] += sum(1 for e in entries if e["is_fano"])


class InProcess(Workload):
    """Ops are calls of fanotoric.cli.main in this process."""

    def execute(self, op, tracer, op_id: int) -> tuple[int | None, str, float, float, str]:
        import fanotoric.cli as cli

        buf = io.StringIO()
        error = ""
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    if tracer is None:
                        code = cli.main(op.argv)
                    else:
                        with tracer.op(op_id):
                            code = cli.main(op.argv)
            except (Exception, SystemExit) as exc:  # counted as a failed op
                code, error = None, f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        return code, buf.getvalue(), wall, 0.0, error


class CheckMix(InProcess):
    def generate(self):
        return self.gen.check_mix(self.seed, self.dir)


class ScanBox(InProcess):
    """One op is one tau classified; a scan's latency is spread over its tau."""

    unit_name = "tau"

    def generate(self):
        self.samples = []
        return self.gen.scan_box(self.seed, self.dir)

    def warm_up_op(self):
        return self.spec.cycles[0][-1]

    def units(self, op) -> int:
        if "box" in op.expect:
            return (2 * op.expect["box"] + 1) ** (len(op.expect["tau"]) * len(op.expect["tau"][0]))
        lo, hi = op.expect["scale"]
        return hi - lo + 1

    def after(self, op, op_id: int, cycle: int, report: dict, stats: dict) -> None:
        if stats["traced"] or cycle > 0:
            return
        rnd = random.Random(f"cross-check:{self.seed}:{op.argv[1]}")
        n = CROSS_CHECKS["box" if "box" in op.expect else "scale"]
        for entry in rnd.sample(report["scan"]["entries"], n):
            self.samples.append((op, op_id, entry))

    def finish(self, stats: dict) -> None:
        """Re-run sampled scan entries as `check` on the same tau; a
        disagreement fails that tau of the scan."""
        for i, (op, op_id, entry) in enumerate(self.samples):
            doc = json.loads(Path(op.argv[1]).read_text())
            doc.pop("scan")
            doc["tau"] = entry["tau"]
            path = self.dir / "cross-check" / f"{i:03d}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc) + "\n")
            code, text, _, _, error = self.execute(
                type(op)(op.label, ["check", str(path), "--json"]), None, 0)
            try:
                verdict = json.loads(text)["verdict"]["is_fano"] if code == 0 else error
            except (ValueError, KeyError, TypeError) as exc:
                verdict = repr(exc)
            if verdict != entry["is_fano"]:
                self.fail(stats, op, op_id, f"check on tau {entry['tau']} gives {verdict}, the scan "
                          f"{entry['is_fano']}")
        self.samples.clear()


class CliCold(Workload):
    """One op is one `python -m fanotoric.cli` child process."""

    unit_name = "process"
    in_children = True

    def generate(self):
        self.pending: dict = {}
        return self.gen.cli_cold(self.seed, self.dir, ROOT / "configs")

    def execute(self, op, tracer, op_id: int) -> tuple[int | None, str, float, float, str]:
        out, err = self.dir / "child.out", self.dir / "child.err"
        if tracer is None:
            cmd = [sys.executable, "-m", "fanotoric.cli", *op.argv]
        else:
            spans = self.dir / "child.spans"
            cmd = [sys.executable, str(HERE / "launch.py"), str(spans), *op.argv]
        t0 = perf_counter()
        code, wall, rss = run_child(cmd, out, err)
        if tracer is not None:
            root = len(tracer.spans)
            tracer.spans.append([tracer.name_id("process"), t0, t0 + wall, -1, op_id])
            if code == 0:
                data = json.loads(spans.read_text())
                tracer.absorb(data["spans"], data["counters"], op_id, root)
        return code, out.read_text(encoding="utf-8"), wall, rss, ""

    def after(self, op, op_id: int, cycle: int, report: dict, stats: dict) -> None:
        """The --json run of a pair must agree with the human run before it.

        Only ops that passed the gate get here, so a disagreement fails
        both runs of the pair and counts no op twice.
        """
        key = (cycle, op.pair, stats["traced"])
        if "--json" not in op.argv:
            self.pending[key] = (op, op_id, self.verify.comparable(report))
        elif key in self.pending:
            human, human_id, seen = self.pending.pop(key)
            if seen != self.verify.comparable(report):
                self.fail(stats, human, human_id, "human report disagrees with the --json run")
                self.fail(stats, op, op_id, "--json report disagrees with the human run")


RUNNERS = {"check-mix": CheckMix, "scan-box": ScanBox, "cli-cold": CliCold}


# -- metrics ---------------------------------------------------------------


def weighted_percentile(values: list[float], weights: list[int], q: int) -> float:
    samples = [x for x, w in zip(values, weights) for _ in range(w)]
    return percentile(samples, q)


def ops_per_s(stats: dict) -> float:
    return stats["ops"] / stats["scaled_busy"]


def end_to_end(stats: dict, setups: list[float]) -> dict:
    """Latency percentiles are over the scaled wall time of every op of the
    run; a scan counts once for each of its tau, at its time per tau."""
    rss = stats["peak_child_rss_mb"] or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat, w = zip(*stats["latency"])
    return {
        "ops_per_s": ops_per_s(stats),
        "latency_p50_ms": weighted_percentile(lat, w, 50),
        "latency_p90_ms": weighted_percentile(lat, w, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }


def import_probes(wl: Workload) -> dict:
    """-X importtime of fanotoric.cli and the bare interpreter, medians.

    Each probe is scaled to the reference speed like an op.
    """
    cli_ms, numpy_ms, other_ms, bare_ms = [], [], [], []
    out, err = wl.dir.parent / "probe.out", wl.dir.parent / "probe.err"
    before = calibrate()
    for _ in range(PROBE_REPEATS):
        run_child([sys.executable, "-X", "importtime", "-c", "import fanotoric.cli"], out, err)
        after = calibrate()
        factor = speed(before, after)
        cli, top = importtime(err.read_text())
        cli_ms.append(cli * factor)
        numpy_ms.append(top.get("numpy", 0.0) * factor)
        other_ms.append(max(v for k, v in top.items() if k not in ("numpy", "fanotoric")) * factor)
        _, wall, _ = run_child([sys.executable, "-c", "pass"], out, err)
        before = calibrate()
        bare_ms.append(wall * speed(after, before) * 1000)
    return {
        "import.fanotoric_cli_ms": statistics.median(cli_ms),
        "import.numpy_ms": statistics.median(numpy_ms),
        "import.largest_other_ms": statistics.median(other_ms),
        "process.bare_python_ms": statistics.median(bare_ms),
    }


def per_layer(tracer, traced: dict, untraced: dict, probes: dict) -> dict:
    from tracer import summarize

    summary = summarize(tracer, traced["speed"])
    names, layers = summary["names"], summary["layers"]
    ops = traced["ops"]
    roots = sum(names.get(n, [0, 0.0, 0.0])[2] for n in ("harness.op", "process"))
    counters = tracer.counters
    out = {}
    for metric in PER_LAYER:
        layer, rest = metric.split(".", 1)
        if rest.endswith(".self_ms") or rest.endswith(".calls"):
            name, kind = f"{layer}.{rest.rsplit('.', 1)[0]}", rest.rsplit(".", 1)[1]
            row = names.get(name, [0, 0.0, 0.0])
            out[metric] = row[0] / ops if kind == "calls" else row[1] * 1000 / ops
        elif rest == "self_ms":
            out[metric] = layers.get(layer, 0.0) * 1000 / ops
        elif rest == "self_share":
            out[metric] = layers.get(layer, 0.0) / roots
    out["fanobundle.margin_entries"] = counters["fanobundle.margin_entries"] / ops
    out["fanobundle.zero_margins"] = counters["fanobundle.zero_margins"] / ops
    computed = counters["fanobundle.margin_entries"]
    out["fanobundle.entries_shown_ratio"] = counters["fanobundle.entries_shown"] / computed if computed else 0.0
    out["cli.output_bytes"] = traced["out_bytes"] / ops
    out.update(probes)
    fast, slow = ops_per_s(untraced), ops_per_s(traced)
    out["trace.overhead_ops_per_s"] = fast - slow
    out["trace.overhead_share"] = 1 - slow / fast
    return out


# -- entry points ---------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = RUNNERS[name](name, seed)
    wl.dir.mkdir(parents=True, exist_ok=True)
    for _ in range(3):  # the interpreter specializes the loop on its first runs
        calibrate()
    setups = [wl.setup_once() for _ in range(1 if trace else SETUP_REPEATS)]
    meta = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "run_seconds": seconds,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "generator": wl.spec.settings,
        "op": wl.unit_name,
        "load": "closed loop, one client",
        "setup_s_samples": setups,
    }
    if not trace:
        plain, _ = wl.loop(seconds)
        metrics = end_to_end(plain, setups)
        units = END_TO_END
        runs = [plain]
    else:
        from tracer import Tracer

        tracer = Tracer()
        plain, traced = wl.loop(seconds, tracer)
        tracer.dump(wl.dir / "spans.csv.gz")
        metrics = per_layer(tracer, traced, plain, import_probes(wl))
        units = PER_LAYER
        runs = [plain, traced]
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    verdicts = sum(r["verdicts"] for r in runs)
    meta.update({
        "runs": [{k: r[k] for k in ("traced", "ops", "cycles", "busy", "wall", "failed")}
                 for r in runs],
        "latency_samples": len(runs[0]["latency"]),
        "latency_kinds": len(runs[0]["kinds"]),
        "unscaled": {"ops_per_s": runs[0]["ops"] / runs[0]["busy"],
                     "speed_quartiles": statistics.quantiles(runs[0]["speed"].values(), n=4)},
        "fail_ratio": failed / attempted,
        "fano_share": sum(r["fano"] for r in runs) / verdicts if verdicts else None,
        "zero_margins_reported": sum(r["zero_margins"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]][:20],
        "median_ms_by_kind": {k: statistics.median(v) for k, v in runs[0]["kinds"].items()},
        "units": units,
    })
    return {
        "meta": meta,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def report_lines(out: dict) -> list[str]:
    meta, result = out["meta"], out["result"]
    lines = [f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']} "
             f"python={meta['python']} nproc={meta['nproc']} sha={meta['git_sha']}"]
    for name, m in result["metrics"].items():
        lines.append(f"{meta['workload']:10s} {name:40s} {m['value']:14.6g} {m['unit']}")
    lines.append(f"{meta['workload']:10s} {'fail_ratio':40s} {meta['fail_ratio']:14.6g} "
                 f"({result['failed']} failed of {result['attempted']}; one op = one {meta['op']})")
    lines.append(f"{meta['workload']:10s} {'fano_share':40s} {meta['fano_share']!s:>14} "
                 f"zero_margins_reported={meta['zero_margins_reported']} "
                 f"latency samples={meta['latency_samples']} in {meta['latency_kinds']} op kinds")
    lines += [f"FAILED {p}" for p in meta["problems"]]
    return lines


def run_all(args) -> int:
    """Every workload in its own process, then the design checks."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-2]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(lines[-1])
    metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    if args.trace:
        share = {w: {k.split(".")[0]: v["value"] for k, v in r["metrics"].items()
                     if k.endswith(".self_share")} for w, r in results.items()}
        base = {w: s["rootsys"] + s["flagbase"] for w, s in share.items()}
        imports = results["cli-cold"]["metrics"]
        checks = {
            "rootsys+flagbase share larger on check-mix than scan-box":
                base["check-mix"] > base["scan-box"],
            "fanobundle is the largest self-time share on scan-box":
                max(share["scan-box"], key=share["scan-box"].get) == "fanobundle",
            "numpy is the largest single import on cli-cold":
                imports["import.numpy_ms"]["value"] > imports["import.largest_other_ms"]["value"],
        }
        for text, ok in checks.items():
            print(f"design check: {text}: {'yes' if ok else 'NO'}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/fanotoric/cli.py", "tests/oracles.py", "configs/so16.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a fanotoric source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "tests")]
    if args.workload == "all":
        return run_all(args)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Fail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps(out, indent=1) + "\n")
    print("\n".join(report_lines(out)))
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
