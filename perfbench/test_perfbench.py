"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

TINY = {"surface-grid": 32, "surface-mesh": 32, "verify-oracle": 100}
SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())


def test_spec_names_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_reports_every_metric_with_its_unit(workload, trace, capsys):
    result = run.run_workload(workload, seed=3, seconds=0, trace=trace, size=TINY[workload])
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    out = capsys.readouterr().out
    assert "seed 3" in out
    assert "job 0: python -m cohgeom.cli " in out
    assert "failed_ratio = 0.0 ratio" in out


def test_seed_generates_the_job_list():
    make, _ = run.WORKLOADS["surface-grid"]
    assert make(random.Random(5), 64) == make(random.Random(5), 64)
    assert make(random.Random(5), 64) != make(random.Random(6), 64)
    assert all("--threads" not in job.argv for job in make(random.Random(5), 64))


def rewriting(edit):
    """A launcher that rewrites each surface job's OBJ after the child exits."""

    def launch(cmd, stdout, timeout):
        ex = run.spawn(cmd, stdout, timeout)
        if "--out" in cmd:
            obj = Path(cmd[cmd.index("--out") + 1])
            obj.write_bytes(edit(obj.read_bytes()))
        return ex

    return launch


def truncate(data: bytes) -> bytes:
    return data[: len(data) // 2]


def flip_face(data: bytes) -> bytes:
    lines = data.decode().splitlines(keepends=True)
    vertices = sum(line.startswith("v ") for line in lines)
    first = next(i for i, line in enumerate(lines) if line.startswith("f "))
    lines[first] = f"f {vertices + 1} 1 2\n"
    return "".join(lines).encode()


@pytest.mark.parametrize("edit", [truncate, flip_face])
def test_corrupted_output_is_counted_in_failed_ratio(edit, capsys):
    result = run.run_workload("surface-mesh", 3, 0, False, size=32, launch=rewriting(edit))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "failed_ratio = 1.0 ratio" in capsys.readouterr().out


def test_bytes_that_change_on_a_repeat_are_counted(capsys):
    seen = set()

    def edit(data: bytes) -> bytes:
        if data in seen:
            return data + b"# repeat\n"
        seen.add(data)
        return data

    result = run.run_workload("surface-mesh", 3, 0, False, size=32, launch=rewriting(edit))
    assert result["failed"] == 5 and result["attempted"] == 10
    assert "output bytes differ" in capsys.readouterr().out


def test_tracer_skips_functions_that_no_longer_exist():
    t = tracer.Tracer(0)
    t.install(
        (
            ("gone", ("cohgeom.geometry.no_such_function", "cohgeom.no_such_module.f"), None),
        )
    )
    metrics = run.layer_metrics([{"job": 0, "spans": t.spans, "alloc": {}}], None, [1.0], [1.0])
    assert set(metrics) == set(run.PER_LAYER)
    assert all(value == 0.0 for value in metrics.values())


def test_self_time_is_duration_minus_child_coverage():
    spans = [(0, None, "a", 0.0, 10.0, 0), (1, 0, "b", 1.0, 3.0, 0), (2, 0, "b", 2.0, 4.0, 0)]
    totals = run.layer_totals([{"spans": spans}])
    assert totals["a"]["self_s"] == 7.0
    assert totals["b"]["calls"] == 2 and totals["b"]["s"] == 4.0


def test_span_stacks_are_thread_local():
    from concurrent.futures import ThreadPoolExecutor

    t = tracer.Tracer(0)
    inner = t.wrap("inner", lambda: None)
    with ThreadPoolExecutor(1) as pool:
        t.wrap("outer", lambda: pool.submit(inner).result())()
    parents = {name: parent for _, parent, name, *_ in t.spans}
    assert parents == {"inner": None, "outer": None}


def test_min_eigenvalue_matches_the_library():
    from cohgeom import states

    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(500, 5))
    r, s, c1, c2, c3 = pts.T
    assert np.allclose(
        checks.min_eigenvalue(c1, c2, c3), np.minimum.reduce(states.bell_eigenvalues(c1, c2, c3))
    )
    assert np.allclose(
        checks.min_eigenvalue(c1, c2, c3, (r, s)),
        np.minimum.reduce(states.x_eigenvalues(r, s, c1, c2, c3)),
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.BENCH.parent / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=ignore)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "surface-mesh", "--seed", "1"]
    proc = subprocess.run(cmd + ["--seconds", "1"], cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
