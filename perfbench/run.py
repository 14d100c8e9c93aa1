"""cohgeom benchmark: CLI jobs end to end, library stages per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --sweep

A closed loop with one client: the driver starts one ``python -m cohgeom.cli``
child at a time and starts the next when it exits.  Children keep their
default ``--threads`` and get an absolute ``PYTHONPATH`` to ``src``, so the
run does not depend on the working directory.  ``--seed`` generates each
workload's job list (levels, channel kind, p, (r, s)); the program sees only
the generated argv, which is printed so any job can be replayed by hand.

A run repeats passes over its job list until ``--seconds`` have elapsed and
at least two passes are done, so every job runs twice and its output bytes
must repeat.  Every job is checked (see ``checks.py``); a job fails on a
nonzero exit or any failed check, and every failure is counted.  The last
stdout line is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  No layer queues behind another (every
call blocks, from one client), so wait time is zero by construction.

With ``--trace 1`` each pass runs every job untraced and then traced, through
``tracer.py``; per-layer metrics are per traced job means.  A last job runs
under tracemalloc for the allocation and physical-node ratios.

``--sweep`` is not gated: it times the library stages at n = 64, 128, 256 and
the CLI ``surface`` call, and prints them beside the ROADMAP baseline table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
TRACER = BENCH / "tracer.py"
STAGES = BENCH / "stages.py"

MIN_SETUPS = 9
MIN_PASSES = 2
# The whole run must end within 180 s; no pass starts that could end later.
DEADLINE_S = 160.0

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "states_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "geometry.sample_field.s": "s",
    "geometry.sample_field.calls": "count",
    "geometry.sample_field.physical_per_evaluated": "ratio",
    "geometry.sample_field.peak_alloc_ratio": "ratio",
    "geometry.extract_isosurface.s": "s",
    "geometry.extract_isosurface.self_s": "s",
    "geometry.extract_isosurface.triangles": "count",
    "geometry.classify_point.calls": "count",
    "geometry.classify_point.s": "s",
    "geometry.surface_stats.s": "s",
    "geometry.export_obj.s": "s",
    "geometry.export_obj.bytes": "B",
    "measures.kernel.s": "s",
    "measures.kernel.elements": "count",
    "channels.correlation_map_values.s": "s",
    "states.hermitian_spectrum.calls": "count",
    "states.hermitian_spectrum.s": "s",
    "channels.apply_product_channel.calls": "count",
    "channels.apply_product_channel.self_s": "s",
    "measures.relative_entropy_coherence.calls": "count",
    "measures.relative_entropy_coherence.self_s": "s",
    **{f"verification.{suite}.s": "s" for suite in tracer.SUITES},
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

KERNELS = tuple(f"measures.{k}" for k in tracer.KERNELS)


@dataclass(frozen=True)
class Job:
    """One CLI call, without its output paths, and what its checks need."""

    argv: tuple[str, ...]
    n: int = 0
    samples: int = 0
    measure: str = ""
    level: float = 0.0
    channel: str | None = None
    p: float | None = None
    rs: tuple[float, float] | None = None

    @property
    def surface(self) -> bool:
        return self.argv[0] == "surface"

    @property
    def states(self) -> int:
        """States the job handles: n^3 grid nodes, or the sampled states."""
        return self.n**3 if self.surface else self.samples


def surface_job(measure, level, n, channel=None, p=None, rs=None) -> Job:
    level = round(level, 4)
    argv = ["surface", "--measure", measure, "--level", repr(level), "--resolution", str(n)]
    if channel is not None:
        p = round(p, 4)
        argv += ["--channel", channel, "--p", repr(p)]
    if rs is not None:
        rs = (round(rs[0], 4), round(rs[1], 4))
        argv += ["--r", repr(rs[0]), "--s", repr(rs[1])]
    return Job(tuple(argv), n=n, measure=measure, level=level, channel=channel, p=p, rs=rs)


# Each job kind draws its level from its own range, chosen so that every mesh
# stays small (under ~70k triangles at n = 256); the job mix, which sets the
# job times, is then the same for every seed.
def grid_jobs(rng: random.Random, n: int) -> list[Job]:
    # pf at p <= 0.012 keeps the field above 0.9, so the channel job has a mesh.
    channel = rng.choice(("bf", "pf", "bpf", "gad"))
    rs = (rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15))
    return [
        surface_job("rel-ent", rng.uniform(0.825, 0.9), n),
        surface_job("discord", rng.uniform(0.6, 0.7), n),
        surface_job("rel-ent", rng.uniform(0.75, 0.85), n, channel, rng.uniform(0.002, 0.012)),
        surface_job("rel-ent", rng.uniform(0.8, 0.9), n, rs=rs),
    ]


def mesh_jobs(rng: random.Random, n: int) -> list[Job]:
    return [surface_job("l1", rng.uniform(0.3 + 0.08 * i, 0.38 + 0.08 * i), n) for i in range(5)]


def verify_jobs(rng: random.Random, samples: int) -> list[Job]:
    return [Job(("verify", "--samples", str(samples)), samples=samples)]


# name -> (job list generator, default size: grid nodes per axis or samples)
WORKLOADS = {
    # n^3 closed-form sampling and the full-grid case pass dominate; the
    # channel and X-slice jobs take paths a symmetry shortcut cannot use.
    "surface-grid": (grid_jobs, 256),
    # l1 is the cheapest field, so the cube loop, vertex tagging and OBJ
    # formatting of 25-48k triangles take most of each job.
    "surface-mesh": (mesh_jobs, 160),
    # The Jacobi oracle and Kraus application dominate and no geometry stage
    # runs.  Its states come from verify's built-in seed, which the CLI does
    # not expose, so --seed does not vary this workload.
    "verify-oracle": (verify_jobs, 3000),
}


@dataclass
class Exit:
    rc: int
    wall: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], stdout: Path, timeout: float) -> Exit:
    """Run one child to completion; wall time from spawn to exit, peak RSS."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=stdout.parent)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_totals(span_docs: list[dict]) -> dict:
    """Per span name: calls, duration, self time (minus child coverage), work."""
    totals = defaultdict(lambda: defaultdict(float))
    for doc in span_docs:
        children = defaultdict(list)
        for _, parent, _, start, end, _ in doc["spans"]:
            if parent is not None:
                children[parent].append((start, end))
        for sid, _, name, start, end, work in doc["spans"]:
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - union_length(children.get(sid, []))
            entry["work"] += work
    return totals


def layer_metrics(span_docs: list[dict], alloc: dict | None, traced_wall, untraced_wall) -> dict:
    totals = layer_totals(span_docs)
    jobs = max(len(span_docs), 1)

    def get(name, field):
        return totals[name][field] / jobs if name in totals else 0.0

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for key in PER_LAYER:
        span, field = key.rsplit(".", 1)
        if field in ("s", "self_s", "calls"):
            metrics[key] = get(span, field)
        elif field in ("triangles", "bytes"):
            metrics[key] = get(span, "work")
    metrics["measures.kernel.s"] = sum(get(k, "s") for k in KERNELS)
    metrics["measures.kernel.elements"] = sum(get(k, "work") for k in KERNELS)
    metrics["trace.overhead_ratio"] = sum(traced_wall) / sum(untraced_wall) - 1.0
    if alloc and alloc["alloc"]:
        window = alloc["alloc"]
        evaluated = sum(
            work
            for _, _, name, start, end, work in alloc["spans"]
            if name in KERNELS and start >= window["start"] and end <= window["end"]
        )
        metrics["geometry.sample_field.physical_per_evaluated"] = (
            window["physical"] / evaluated if evaluated else 0.0
        )
        metrics["geometry.sample_field.peak_alloc_ratio"] = (
            window["peak_bytes"] / window["grid_bytes"]
        )
    return metrics


class Run:
    """One benchmark run: a job list, its executions and their checks."""

    def __init__(self, jobs: list[Job], work: Path, launch=spawn):
        self.jobs = jobs
        self.work = work
        self.launch = launch
        self.start = time.perf_counter()
        self.records: list[dict] = []
        self.digests: dict[int, str] = {}
        self.setup_walls: list[float] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def execute(self, index: int, mode: str = "plain") -> dict:
        """Run job ``index`` untraced ("plain"), "traced" or under "alloc"; check it."""
        job = self.jobs[index]
        base = self.work / f"{len(self.records):04d}-job{index}-{mode}"
        obj, stats, out = (base.with_suffix(s) for s in (".obj", ".json", ".out"))
        argv = list(job.argv)
        if job.surface:
            argv += ["--out", str(obj), "--stats-out", str(stats)]
        if mode == "plain":
            cmd = [sys.executable, "-m", "cohgeom.cli", *argv]
        else:
            spans = base.with_suffix(".spans")
            cmd = [sys.executable, str(TRACER), "--spans", str(spans), "--job", str(index)]
            cmd += ["--alloc"] if mode == "alloc" else []
            cmd += ["--", *argv]
        ex = self.launch(cmd, out, self.remaining())
        record = {"job": index, "mode": mode, "wall": ex.wall, "rss_mb": ex.rss_mb, "problems": []}
        problems = record["problems"]
        if ex.rc != 0:
            err = out.with_suffix(".err").read_text(errors="replace").strip().splitlines()
            problems.append(f"exit code {ex.rc}" + (f": {err[-1]}" if err else ""))
        outputs = [out.read_bytes()]
        if job.surface and not problems:
            outputs += [p.read_bytes() if p.exists() else b"" for p in (obj, stats)]
            problems += checks.check_surface(outputs[1], outputs[2], job)
            if not problems:
                record["triangles"] = json.loads(outputs[2])["triangle_count"]
        elif not problems:
            problems += checks.check_verify(outputs[0])
        digest = hashlib.sha256(b"\0".join(outputs)).hexdigest()
        if not problems and self.digests.setdefault(index, digest) != digest:
            problems.append("output bytes differ from an earlier run of the same job")
        if mode != "plain" and not ex.rc:
            record["spans"] = json.loads(spans.read_text())
        for path in self.work.glob(base.name + ".*"):
            path.unlink()
        self.records.append(record)
        print(f"{base.name}: {ex.wall:.3f} s, {ex.rss_mb:.0f} MB peak RSS", flush=True)
        return record

    def setup(self) -> None:
        """Time one fresh ``import cohgeom`` child."""
        out = self.work / f"setup{len(self.setup_walls)}.out"
        ex = self.launch([sys.executable, "-c", "import cohgeom"], out, self.remaining())
        if ex.rc != 0:
            raise RuntimeError(f"'import cohgeom' exited {ex.rc}")
        self.setup_walls.append(ex.wall)

    def loop(self, seconds: float, trace: bool) -> int:
        """Whole passes over the job list for about ``seconds``.

        Untraced runs make at least MIN_PASSES passes and time one ``import
        cohgeom`` before each job, so set-up time is sampled across the whole
        run.  A traced pass already runs every job twice.
        """
        modes = ("plain", "traced") if trace else ("plain",)
        passes, last = 0, 0.0
        loop_start = time.perf_counter()
        while passes < (1 if trace else MIN_PASSES) or (
            time.perf_counter() - loop_start + last / 2 < seconds
        ):
            if passes and last > self.remaining():
                break
            pass_start = time.perf_counter()
            for index in range(len(self.jobs)):
                for mode in modes:
                    if mode == "plain" and not trace:
                        self.setup()
                    self.execute(index, mode)
            last = time.perf_counter() - pass_start
            passes += 1
        while not trace and len(self.setup_walls) < MIN_SETUPS:
            self.setup()
        return passes


def run_workload(name: str, seed: int, seconds: float, trace: bool, size=None, launch=spawn):
    """Run one workload; print the jobs and a summary; return the result object."""
    make, default = WORKLOADS[name]
    jobs = make(random.Random(seed), size or default)
    print(f"workload {name}, seed {seed}: closed loop, 1 client, 1 child at a time")
    for index, job in enumerate(jobs):
        outs = " --out OUT.obj --stats-out STATS.json" if job.surface else ""
        print(f"job {index}: python -m cohgeom.cli {' '.join(job.argv)}{outs}")

    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / ".work"))
    try:
        run = Run(jobs, work, launch)
        passes = run.loop(seconds, trace)
        if trace and any(job.surface for job in jobs):
            run.execute(0, "alloc")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    golden = checks.check_goldens()
    records = run.records
    failed = [r for r in records if r["problems"]]
    for r in failed:
        print(f"FAILED job {r['job']} ({r['mode']}): {'; '.join(r['problems'])}")
    for problem in golden:
        print(f"FAILED golden: {problem}")

    plain = [r for r in records if r["mode"] == "plain"]
    walls = [r["wall"] for r in plain]
    print(f"{len(records)} jobs in {passes} passes, {len(failed)} failed")
    print(f"failed_ratio = {len(failed) / len(records)!r} ratio ({len(failed)} of {len(records)})")
    print("queue wait = 0 s at every layer: one client, and every call blocks")
    if trace:
        traced = [r for r in records if r["mode"] == "traced"]
        alloc = next((r.get("spans") for r in records if r["mode"] == "alloc"), None)
        metrics = layer_metrics(
            [r["spans"] for r in traced if "spans" in r],
            alloc,
            [r["wall"] for r in traced],
            [r["wall"] for r in plain],
        )
        units = PER_LAYER
        print("kernel spans from sample_field's pool threads overlap, so summed kernel")
        print("time can exceed wall time; per-layer values are means per traced job")
    else:
        states = sum(jobs[r["job"]].states for r in plain)
        metrics = {
            "setup_s": statistics.median(run.setup_walls),
            "job_p50_s": statistics.median(walls),
            "states_per_s": states / sum(walls),
            "peak_rss_mb": max(r["rss_mb"] for r in plain),
        }
        units = END_TO_END
        print(f"setup_s: median of {len(run.setup_walls)} 'import cohgeom' children")
        print(f"job_p50_s: median of {len(walls)} jobs, spawn to exit")
        if jobs[0].surface and not failed:
            triangles = sum(r["triangles"] for r in plain)
            print(f"triangles_per_s = {triangles / sum(walls)!r} 1/s")
    for key, value in metrics.items():
        print(f"{key} = {value!r} {units[key]}")
    return {
        "correct": not failed and not golden,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


# ROADMAP baseline (2 cores, Python 3.11.7, numpy 2.4.6): row -> seconds at
# n = 64, 128, 256, or MB for RSS; None where the table has no entry.
BASELINE = {
    "sample_field rel-ent, 1 thread": (0.037, 0.389, 3.68),
    "sample_field rel-ent, 2 threads": (0.029, 0.312, 1.88),
    "extract_isosurface(level=0.2)": (0.136, 0.579, 2.77),
    "classify_point per vertex": (0.030, 0.131, 0.446),
    "export_obj": (0.060, 0.274, 1.08),
    "CLI surface wall time": (0.44, 1.08, None),
    "CLI surface peak RSS MB": (None, None, 1260.0),
    "stages child peak RSS MB": (None, None, None),
}


def sweep() -> int:
    """Print the ROADMAP baseline rows measured now, flagging 2x differences."""
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="sweep-", dir=BENCH / ".work"))
    rows = defaultdict(dict)
    try:
        for n in (64, 128, 256):
            ex = spawn([sys.executable, str(STAGES), str(n)], work / "stages.out", DEADLINE_S)
            if ex.rc != 0:
                print(f"error: stages child exited {ex.rc} at n={n}", file=sys.stderr)
                return 1
            for row, value in json.loads((work / "stages.out").read_text()).items():
                rows[row][n] = value
            rows["stages child peak RSS MB"][n] = ex.rss_mb
            cmd = [sys.executable, "-m", "cohgeom.cli", "surface", "--level", "0.2"]
            cmd += ["--resolution", str(n), "--out", str(work / "s.obj")]
            ex = spawn(cmd, work / "cli.out", DEADLINE_S)
            rows["CLI surface wall time"][n] = ex.wall
            rows["CLI surface peak RSS MB"][n] = ex.rss_mb
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{'row':<34}{'n=64':>12}{'n=128':>12}{'n=256':>12}   baseline 64/128/256")
    for row, base in BASELINE.items():
        cells, flags = [], []
        for n, ref in zip((64, 128, 256), base):
            value = rows[row].get(n)
            cells.append("n/a" if value is None else f"{value:.4g}")
            if value is not None and ref is not None and not 0.5 <= value / ref <= 2.0:
                flags.append(f"n={n} is {value / ref:.2f}x baseline")
        ref_text = "/".join("-" if r is None else f"{r:g}" for r in base)
        print(f"{row:<34}{cells[0]:>12}{cells[1]:>12}{cells[2]:>12}   {ref_text}")
        for flag in flags:
            print(f"  DIFFERS >2x: {row}, {flag}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true", help="print the ROADMAP stage table")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "cohgeom" / "__init__.py").is_file():
        print(f"error: no cohgeom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.sweep:
        return sweep()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
