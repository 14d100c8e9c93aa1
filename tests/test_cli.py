import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import stat
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohgeom import _textio
from cohgeom.cli import main
from cohgeom.geometry import TriangleMesh, export_obj
from cohgeom.verification import SuiteResult
from conftest import cli_args, cli_env


def run_cli(*argv):
    return main(list(argv))


# Starts its argv, waits for it and prints its exit code and ru_maxrss in KiB.
# A child's ru_maxrss includes the high-water RSS of the process it was
# started from, so children measured straight from pytest read at least
# pytest's own peak; this launcher is a fresh interpreter of a few MB.
RSS_LAUNCHER = (
    "import os, subprocess, sys; "
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(proc.pid, 0); "
    "proc.returncode = os.waitstatus_to_exitcode(status); "
    "print(proc.returncode, usage.ru_maxrss)"
)


def peak_rss(*argv):
    """Peak RSS in bytes of a child process run with ``cli_env()``, started
    from ``RSS_LAUNCHER`` rather than from pytest."""
    launched = subprocess.run(
        [sys.executable, "-c", RSS_LAUNCHER, *argv],
        env=cli_env(), capture_output=True, text=True, check=True,
    )
    returncode, maxrss = map(int, launched.stdout.split())
    assert returncode == 0
    return maxrss * 1024


class TestMeasure:
    def test_bell_vertex(self, capsys):
        assert run_cli("measure", "--c1", "1", "--c2", "-1", "--c3", "1") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["l1"] == pytest.approx(1.0, abs=1e-12)
        assert doc["relative_entropy"] == pytest.approx(1.0, abs=1e-12)
        assert doc["trace_norm"] == doc["l1"]
        assert doc["discord"] == pytest.approx(1.0, abs=1e-12)
        assert doc["discord_equals_coherence"] is True
        assert doc["region"] == "entangled"

    def test_incoherent_state(self, capsys):
        assert run_cli("measure", "--c1", "0", "--c2", "0", "--c3", "0.5") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["l1"] == 0.0
        assert doc["trace_norm"] == 0.0
        assert doc["relative_entropy"] == 0.0
        assert doc["discord"] == pytest.approx(0.0, abs=1e-12)
        assert doc["region"] == "separable"

    def test_unphysical_exits_2(self, capsys):
        assert run_cli("measure", "--c1", "0.9", "--c2", "0.9", "--c3", "0") == 2
        err = capsys.readouterr().err
        assert "state not positive semidefinite" in err
        assert "-0.2" in err

    def test_x_state_omits_discord(self, capsys):
        assert run_cli(
            "measure", "--c1", "0.3", "--c2", "0.2", "--c3", "0.4",
            "--r", "0.1", "--s", "0.1",
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "discord" not in doc
        assert "discord_equals_coherence" not in doc
        assert doc["relative_entropy"] > 0
        assert doc["region"] == "separable"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ("--c1", "0.7", "--c2", "-0.5", "--c3", "0.3"),
                {
                    "c1": 0.7, "c2": -0.5, "c3": 0.3, "r": 0.0, "s": 0.0,
                    "l1": 0.7, "trace_norm": 0.7,
                    "relative_entropy": 0.5180242162827724,
                    "discord": 0.19379646562368166,
                    "discord_equals_coherence": False,
                    "region": "entangled",
                },
            ),
            (
                ("--r", "0.1", "--s", "0.1", "--c1", "0.6", "--c2", "-0.5", "--c3", "0.5"),
                {
                    "c1": 0.6, "c2": -0.5, "c3": 0.5, "r": 0.1, "s": 0.1,
                    "l1": 0.6000000000000001, "trace_norm": 0.6000000000000001,
                    "relative_entropy": 0.3350798624784044,
                    "region": "entangled",
                },
            ),
        ],
        ids=["bell", "x"],
    )
    def test_json_bytes_pinned(self, capsys, argv, expected):
        # the whole document, byte for byte: key order, float digits, layout
        assert run_cli("measure", *argv) == 0
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_x_state_region_is_the_ppt_test(self, capsys):
        # |c1| + |c2| + |c3| < 1, yet the partial transpose has the eigenvalue
        # (1 + c3 - sqrt((r + s)^2 + (c1 + c2)^2)) / 4 = -0.0178: the Bloch
        # components decide
        assert run_cli(
            "measure", "--c1", "0.2", "--c2", "0.2", "--c3", "-0.35",
            "--r", "-0.3", "--s", "0.9",
        ) == 0
        assert json.loads(capsys.readouterr().out)["region"] == "entangled"

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run_cli(
            "measure", "--c1", "0", "--c2", "0", "--c3", "0", "--out", str(out)
        ) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["region"] == "separable"

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "m.json"
        assert run_cli(
            "measure", "--c1", "0", "--c2", "0", "--c3", "0", "--out", str(out)
        ) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSurface:
    def test_l1_tube(self, tmp_path, capsys):
        obj = tmp_path / "tube.obj"
        stats_path = tmp_path / "stats.json"
        code = run_cli(
            "surface", "--measure", "l1", "--level", "0.5",
            "--resolution", "32", "--out", str(obj), "--stats-out", str(stats_path),
        )
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert stats["triangle_count"] > 0
        assert 0 < stats["entangled_area_fraction"] < 1
        assert stats["measure"] == "l1"
        assert stats["level"] == 0.5
        assert stats["r"] is None and stats["s"] is None
        text = obj.read_text()
        assert "# measure: l1" in text
        assert text.count("\nv ") + text.startswith("v ") == stats["vertex_count"]

    def test_x_slice_stats_record_rs(self, tmp_path, capsys):
        obj = tmp_path / "x.obj"
        code = run_cli(
            "surface", "--measure", "rel-ent", "--level", "0.1",
            "--resolution", "24", "--r", "0.5", "--s", "0.5", "--out", str(obj),
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["r"] == 0.5 and stats["s"] == 0.5
        assert stats["triangle_count"] > 0

    def test_empty_mesh_still_succeeds(self, tmp_path, capsys):
        obj = tmp_path / "empty.obj"
        code = run_cli(
            "surface", "--measure", "rel-ent", "--level", "0.1",
            "--resolution", "24", "--channel", "pf", "--p", "0.5", "--out", str(obj),
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["triangle_count"] == 0
        assert stats["total_area"] == 0.0

    def test_channel_premap_matches_library(self, tmp_path, capsys):
        obj = tmp_path / "bf.obj"
        code = run_cli(
            "surface", "--measure", "rel-ent", "--level", "0.1",
            "--resolution", "24", "--channel", "bf", "--p", "0.1", "--out", str(obj),
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["triangle_count"] > 0
        assert "# channel: bf" in obj.read_text()

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--measure", "rel-ent", "--level", "0.2", "--resolution", "32"),
                "3114d4ffb827033429c9daa69f101b8dc26f503f57838c9d00803610fcebacab",
            ),
            (
                ("--measure", "discord", "--level", "0.3", "--resolution", "32"),
                "cf93458933b7cddedfc1ddd46c0f57571416d7febe6474452607e50b25cf4071",
            ),
            (
                ("--measure", "l1", "--level", "0.5", "--resolution", "33"),
                "526e5784353f6598f6e47663924d3dfee23828dd1e8743993140f7c138bb0ad1",
            ),
            (
                ("--measure", "rel-ent", "--level", "0.25", "--resolution", "32",
                 "--channel", "gad", "--p", "0.1"),
                "eece873a8f584081c1c57f745241917e22f54b19c50199717b15335bfaa3a9f5",
            ),
        ],
        ids=["rel-ent", "discord", "l1", "gad"],
    )
    def test_bell_stats_bytes_pinned(self, tmp_path, argv, digest):
        # sha256 of the stats JSON: areas, entangled fraction and counts
        stats = tmp_path / "stats.json"
        code = run_cli(
            "surface", *argv, "--out", str(tmp_path / "m.obj"), "--stats-out", str(stats)
        )
        assert code == 0
        assert hashlib.sha256(stats.read_bytes()).hexdigest() == digest

    def test_discord_slice_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "surface", "--measure", "discord", "--level", "0.1",
            "--r", "0.5", "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, same_as",
        [
            (("--measure", "discord", "--r", "0", "--s", "0"), ("--measure", "discord")),
            (
                ("--measure", "trace", "--r", "0.2", "--s", "0.1"),
                ("--measure", "l1", "--r", "0.2", "--s", "0.1"),
            ),
        ],
        ids=["discord-zero-slice", "trace-x-slice"],
    )
    def test_family_rule_meshes(self, tmp_path, capsys, argv, same_as):
        # (r, s) = (0, 0) is the Bell-diagonal family, and trace is l1 on
        # X states: the same v/f lines and stats, bar the header and r, s
        runs = []
        for args in (argv, same_as):
            obj = tmp_path / "m.obj"
            code = run_cli(
                "surface", *args, "--level", "0.3", "--resolution", "24", "--out", str(obj)
            )
            assert code == 0
            stats = json.loads(capsys.readouterr().out)
            del stats["measure"], stats["r"], stats["s"]
            lines = [line for line in obj.read_text().splitlines() if line[:2] in ("v ", "f ")]
            runs.append((lines, stats))
        assert runs[0] == runs[1]
        assert runs[0][1]["triangle_count"] > 0

    def test_same_out_and_stats_out_exits_2(self, tmp_path, capsys):
        # the stats file would replace the OBJ: refused before sampling
        same = tmp_path / "same.txt"
        same.write_bytes(b"OLD\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.txt").symlink_to(same)
        for stats in (same, tmp_path / "sub" / ".." / "same.txt", tmp_path / "link.txt"):
            code = run_cli(
                "surface", "--measure", "l1", "--level", "0.5", "--resolution", "16",
                "--out", str(same), "--stats-out", str(stats),
            )
            assert code == 2
            assert capsys.readouterr().err.startswith("error: ")
        assert same.read_bytes() == b"OLD\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "same.txt", "sub"]

    def test_channel_requires_p(self, tmp_path, capsys):
        code = run_cli(
            "surface", "--measure", "l1", "--level", "0.5",
            "--channel", "bf", "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_p_requires_channel(self, tmp_path, capsys):
        code = run_cli(
            "surface", "--measure", "l1", "--level", "0.5",
            "--p", "0.5", "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "x.obj").exists()

    def test_level_out_of_range_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "surface", "--measure", "l1", "--level", "1.5",
            "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_small_level_warns(self, tmp_path, capsys):
        # 0.05 is below the feature size 2 / 16: a warning, and the run goes on
        code = run_cli(
            "surface", "--measure", "rel-ent", "--level", "0.05",
            "--resolution", "16", "--out", str(tmp_path / "w.obj"),
        )
        assert code == 0
        out, err = capsys.readouterr()
        assert err == (
            "warning: level 0.05 is below the grid feature size 0.125; "
            "consider a higher --resolution\n"
        )
        assert json.loads(out)["level"] == 0.05

    def test_level_above_feature_size_is_quiet(self, tmp_path, capsys):
        code = run_cli(
            "surface", "--measure", "rel-ent", "--level", "0.2",
            "--resolution", "16", "--out", str(tmp_path / "q.obj"),
        )
        assert code == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["level"] == 0.2

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "surface", "--measure", "l1", "--level", "0.5", "--resolution", "8",
            "--out", str(tmp_path / "missing" / "x.obj"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{tmp_path / 'missing' / 'x.obj'}'" in err

    @pytest.mark.parametrize("resolution", ["0", "100000"])
    def test_bad_resolution_exits_2(self, tmp_path, capsys, resolution):
        # 100000 nodes per axis would need petabytes: rejected before allocating
        code = run_cli(
            "surface", "--level", "0.5", "--resolution", resolution,
            "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "x.obj").exists()

    def test_peak_memory_is_a_few_grids(self, tmp_path):
        # the child's peak RSS over a bare import, against the 8 n^3 grid bytes;
        # each sampling thread adds its slab temporaries, so the count is fixed:
        # 0.54-0.66 measured over an import that leaves the surface layer out,
        # 0.48-0.59 when the import loaded it
        n = 192
        surface = peak_rss(
            *cli_args(2), "surface", "--measure", "rel-ent", "--level", "0.3",
            "--resolution", str(n), "--out", str(tmp_path / "x.obj"),
            "--stats-out", str(tmp_path / "x.json"),
        )
        assert surface - peak_rss(sys.executable, "-c", "import cohgeom") <= 5 * 8 * n**3

    def test_surface_run_never_holds_the_grid(self, tmp_path):
        # sampled and marched a chunk at a time, a run whose mesh is small
        # peaks at a fraction of the 8 n^3 grid bytes over a bare import:
        # 0.15-0.16 measured over an import that leaves the surface layer out,
        # 0.13-0.14 when the import loaded it, 1.12 when the grid was sampled
        # whole
        n = 256
        surface = peak_rss(
            *cli_args(2), "surface", "--measure", "rel-ent", "--level", "0.84",
            "--resolution", str(n), "--out", str(tmp_path / "x.obj"),
            "--stats-out", str(tmp_path / "x.json"),
        )
        assert surface - peak_rss(sys.executable, "-c", "import cohgeom") <= 0.5 * 8 * n**3


class TestAtomicWrites:
    class DiskFull:
        """An open() whose file takes a few bytes of a write and then fails."""

        open = open

        def __init__(self, *args, **kwargs):
            self.handle = self.open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[:10])
            raise OSError(errno.ENOSPC, "No space left on device")

    @pytest.mark.parametrize(
        "argv",
        [
            ("surface", "--measure", "l1", "--level", "0.5", "--resolution", "8"),
            ("measure", "--c1", "0.3", "--c2", "-0.2", "--c3", "0.4"),
        ],
    )
    def test_failed_write_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(_textio, "open", self.DiskFull, raising=False)
        old = tmp_path / "old.out"
        old.write_bytes(b"previous contents\n")
        for out in (old, tmp_path / "new.out"):
            assert run_cli(*argv, "--out", str(out)) == 2
            assert "No space left" in capsys.readouterr().err
        assert old.read_bytes() == b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.out"]

    def test_unwritable_stats_out_keeps_old_obj(self, tmp_path, capsys):
        old = tmp_path / "keep.obj"
        old.write_bytes(b"OLD\n")
        stats = tmp_path / "missing" / "x.json"
        code = run_cli(
            "surface", "--level", "0.5", "--resolution", "16",
            "--out", str(old), "--stats-out", str(stats),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{stats}'" in err
        assert old.read_bytes() == b"OLD\n"
        assert [p.name for p in tmp_path.iterdir()] == ["keep.obj"]

    MEASURE = ("measure", "--c1", "0.3", "--c2", "-0.2", "--c3", "0.4")
    SURFACE = ("surface", "--measure", "l1", "--level", "0.5", "--resolution", "8")

    @pytest.mark.parametrize("argv", [MEASURE, SURFACE], ids=["measure", "surface"])
    def test_symlink_target_gets_the_bytes(self, tmp_path, capsys, argv):
        plain, target, link = tmp_path / "plain", tmp_path / "target", tmp_path / "link"
        assert run_cli(*argv, "--out", str(plain)) == 0
        target.write_bytes(b"old\n")
        link.symlink_to(target)
        assert run_cli(*argv, "--out", str(link)) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == plain.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "plain", "target"]

    @pytest.mark.parametrize("argv", [MEASURE, SURFACE], ids=["measure", "surface"])
    def test_fifo_reader_gets_every_byte(self, tmp_path, capsys, argv):
        plain, fifo = tmp_path / "plain", tmp_path / "fifo"
        assert run_cli(*argv, "--out", str(plain)) == 0
        os.mkfifo(fifo)
        got = []
        # a daemon with a timeout: a writer that misses the FIFO fails the
        # test instead of leaving the reader to hang the suite
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run_cli(*argv, "--out", str(fifo)) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [plain.read_bytes()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_only_regular_files_are_replaced(self, tmp_path, capsys, monkeypatch):
        replace = os.replace

        def checked(src, dst):
            if os.path.lexists(dst):
                assert stat.S_ISREG(os.lstat(dst).st_mode), f"replacing {dst}"
            replace(src, dst)

        monkeypatch.setattr(os, "replace", checked)
        (tmp_path / "target").write_bytes(b"old\n")
        (tmp_path / "link").symlink_to(tmp_path / "target")
        os.mkfifo(tmp_path / "fifo")
        reader = threading.Thread(target=(tmp_path / "fifo").read_bytes, daemon=True)
        reader.start()
        for name in ("target", "link", "missing", "fifo"):
            assert run_cli(*self.MEASURE, "--out", str(tmp_path / name)) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()

    @pytest.mark.parametrize("mode", [0o600, 0o755], ids=oct)
    def test_replaced_file_keeps_its_mode(self, tmp_path, capsys, mode):
        # the new file would otherwise take the umask's mode
        measured, mesh = tmp_path / "measure.json", tmp_path / "mesh.obj"
        for path in (measured, mesh):
            path.write_bytes(b"old\n")
            path.chmod(mode)
        assert run_cli(*self.MEASURE, "--out", str(measured)) == 0
        export_obj(TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]]), mesh)
        for path in (measured, mesh):
            assert path.read_bytes() != b"old\n"
            assert stat.S_IMODE(path.stat().st_mode) == mode

    @pytest.mark.parametrize(
        "argv",
        [
            MEASURE + ("--out", ""),
            ("dynamics", "--c1", "0.1", "--c2", "0.1", "--c3", "0.1", "--out", ""),
            SURFACE + ("--out", "x.obj", "--stats-out", ""),
        ],
        ids=["measure", "dynamics", "surface-stats"],
    )
    def test_empty_path_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        # only an absent --out or --stats-out means stdout
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


class TestMemoryGuard:
    @pytest.mark.parametrize(
        "argv",
        [
            ("surface", "--level", "0.5", "--resolution", "64", "--out", "x.obj"),
            ("dynamics", "--c1", "0.1", "--c2", "0.1", "--c3", "0.1", "--steps", "100000"),
        ],
        ids=["surface", "dynamics"],
    )
    def test_input_beyond_memory_exits_2(
        self, tmp_path, capsys, monkeypatch, small_memory, argv
    ):
        # each needs more than the 1 MiB the patched sysconf reports
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "physical memory" in err
        assert list(tmp_path.iterdir()) == []


class TestDynamics:
    def test_all_channels_csv(self, capsys):
        code = run_cli(
            "dynamics", "--c1", "-0.1", "--c2", "0.4", "--c3", "0.4", "--channel", "all"
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,C_bf,C_pf,C_bpf,C_gad"
        assert len(lines) == 102
        final = [float(tok) for tok in lines[-1].split(",")]
        assert final[0] == 1.0
        assert final[2] == 0.0  # phase flip endpoint
        assert final[4] == 0.0  # amplitude damping endpoint

    def test_single_channel_column(self, capsys):
        code = run_cli(
            "dynamics", "--c1", "-0.5", "--c2", "0.1", "--c3", "0.1",
            "--channel", "bf", "--steps", "11",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,C_bf"
        assert len(lines) == 12
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.18872187554086706, abs=1e-12)

    def test_incoherent_state_gives_zero_columns(self, capsys):
        code = run_cli(
            "dynamics", "--c1", "0", "--c2", "0", "--c3", "0.5",
            "--channel", "all", "--steps", "5",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            assert [float(tok) for tok in line.split(",")[1:]] == [0.0] * 4

    def test_unphysical_exits_2(self, capsys):
        assert run_cli("dynamics", "--c1", "0.9", "--c2", "0.9", "--c3", "0") == 2
        # the state is checked before the CSV header is written
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    def test_single_step_exits_2(self, capsys):
        code = run_cli(
            "dynamics", "--c1", "0.1", "--c2", "0.1", "--c3", "0.1", "--steps", "1"
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    # sha256 of the default `--channel all --steps 101` CSV; any change to the
    # p grid, the channel maps or the coherence kernel changes these
    @pytest.mark.parametrize(
        "state, digest",
        [
            (("-0.1", "0.4", "0.4"), "8f7e6ef4a37baa5f1d6a640876178b201350ac2c6797b0570452b1a25036fe46"),
            (("0.3", "-0.27", "0.111"), "2ee8a91f3c2ab04d9af28fe5458a8438eed05a9224ae485c3447d6011b8acc79"),
        ],
    )
    def test_pinned_csv_digest(self, capsys, state, digest):
        c1, c2, c3 = state
        assert run_cli("dynamics", "--c1", c1, "--c2", c2, "--c3", c3) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("to_file", [False, True])
    def test_row_blocks_give_the_same_csv(self, capsys, monkeypatch, tmp_path, to_file):
        # 101 rows in blocks of 7 end in a 3-row block
        monkeypatch.setattr(_textio, "BLOCK_ROWS", 7)
        path = tmp_path / "dynamics.csv"
        out = ["--out", str(path)] if to_file else []
        assert run_cli("dynamics", "--c1", "-0.1", "--c2", "0.4", "--c3", "0.4", *out) == 0
        text = path.read_text() if to_file else capsys.readouterr().out
        digest = "8f7e6ef4a37baa5f1d6a640876178b201350ac2c6797b0570452b1a25036fe46"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_peak_memory_does_not_grow_with_steps(self):
        # the curves are computed block by block as they are written: child
        # peak RSS read 35.1 MiB at 10^4 steps, 41.7-41.9 at 2 10^5 and 47.8
        # at 10^6; 55.1 at 2 10^5 and 135 at 10^6 when the four whole curves
        # were built first
        small, large = (
            peak_rss(
                sys.executable, "-m", "cohgeom.cli", "dynamics",
                "--c1", "-0.1", "--c2", "0.4", "--c3", "0.4", "--steps", str(n),
            )
            for n in (10000, 200000)
        )
        assert abs(large - small) <= 10 * 2**20


class TestVerify:
    def test_passes_and_reports(self, capsys):
        assert run_cli("verify", "--samples", "200") == 0
        out = capsys.readouterr().out
        assert "bell_closed_vs_jacobi" in out
        assert "max_dev=" in out
        assert "all suites passed" in out
        assert "FAIL" not in out

    def test_corrupted_suite_exits_1(self, capsys, monkeypatch):
        def broken(samples):
            return [SuiteResult("bell_closed_vs_jacobi", 1.0, 1e-10)]

        monkeypatch.setattr("cohgeom.verification.run_all", broken)
        assert run_cli("verify", "--samples", "10") == 1
        out = capsys.readouterr().out
        assert "FAIL: bell_closed_vs_jacobi" in out

    def test_peak_memory_does_not_grow_with_samples(self):
        # the samples are checked in batches as they are drawn: child peak RSS
        # read 37.3-37.6 MiB at 3,000 samples, 38.0-38.1 at 10^5 and 38.3-38.4
        # at 10^6; 41.3-41.5 at 10^5 and 97.9-98.2 at 10^6 when the sampled
        # rows were kept
        small, large = (
            peak_rss(sys.executable, "-m", "cohgeom.cli", "verify", "--samples", str(n))
            for n in (3000, 100000)
        )
        assert abs(large - small) <= 2 * 2**20

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_exits_2(self, capsys, samples):
        # exit 1 is reserved for a failed suite
        assert run_cli("verify", "--samples", samples) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")


class TestDeterminism:
    def test_measure_repeatable(self, capsys):
        run_cli("measure", "--c1", "0.3", "--c2", "-0.2", "--c3", "0.4")
        first = capsys.readouterr().out
        run_cli("measure", "--c1", "0.3", "--c2", "-0.2", "--c3", "0.4")
        assert capsys.readouterr().out == first

    def test_surface_independent_of_threads(self, tmp_path, monkeypatch):
        outputs = []
        for threads in (1, 8):
            monkeypatch.setattr(os, "cpu_count", lambda: threads)
            obj = tmp_path / f"t{threads}.obj"
            stats = tmp_path / f"s{threads}.json"
            assert run_cli(
                "surface", "--measure", "rel-ent", "--level", "0.2",
                "--resolution", "24", "--out", str(obj), "--stats-out", str(stats),
            ) == 0
            outputs.append((obj.read_bytes(), stats.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cohgeom.cli", "measure",
             "--c1", "0", "--c2", "0", "--c3", "0"],
            capture_output=True, text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["region"] == "separable"


# Drawn flag values: numbers that give a physical state, numbers in and out
# of range, and every kind of bad one.
REALS = st.one_of(
    st.sampled_from(["0", "0.1", "-0.2", "0.25", "0.3"]),
    st.floats(-1.5, 1.5).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-3", "2", "abc", "", "0x1"]),
)


def counts(top):
    """Drawn size values, at most ``top``, and bad ones."""
    return st.one_of(
        st.integers(-2, top).map(str), st.sampled_from(["nan", "inf", "2.5", "1e3", "x", ""])
    )


# Drawn output paths, by name (see TestExitCodes); None leaves the flag out.
PATHS = st.sampled_from([None, "missing", "directory", "file", "link", "fifo"])


@st.composite
def argvs(draw):
    """A command line of any subcommand, with output paths by name."""
    def flag(name, values):
        # left out one time in five, which a required flag exits 2 for
        return [] if draw(st.integers(0, 4)) == 0 else [name, draw(values)]

    def path(name):
        value = draw(PATHS)
        return [] if value is None else [name, value]

    state = [*flag("--c1", REALS), *flag("--c2", REALS), *flag("--c3", REALS)]
    command = draw(st.sampled_from(["measure", "surface", "dynamics", "verify"]))
    if command == "measure":
        return [command, *state, *flag("--r", REALS), *flag("--s", REALS), *path("--out")]
    if command == "dynamics":
        channels = st.sampled_from(["all", "bf", "pf", "bpf", "gad", "xx", ""])
        tail = [*flag("--channel", channels), *flag("--steps", counts(100)), *path("--out")]
        return [command, *state, *tail]
    # the sizes are always given, since their defaults are larger
    if command == "verify":
        return [command, "--samples", draw(counts(50))]
    measures = st.sampled_from(["l1", "rel-ent", "trace", "discord", "xx"])
    return [
        command,
        *flag("--measure", measures),
        *flag("--level", REALS),
        "--resolution",
        draw(counts(24)),
        *flag("--r", REALS),
        *flag("--s", REALS),
        *flag("--channel", st.sampled_from(["bf", "pf", "bpf", "gad", "xx"])),
        *flag("--p", REALS),
        *path("--out"),
        *path("--stats-out"),
    ]


class TestExitCodes:
    """The exit-code contract as a property: every command line exits 0 or
    2, with nothing on stdout and an error or usage line on stderr when it
    exits 2, and output lands where an exit-0 run was pointed."""

    STATE = ("--c1", "0.3", "--c2", "-0.2", "--c3", "0.1")
    SURFACE = ("surface", "--measure", "rel-ent", "--level", "0.3", "--resolution", "24")

    @staticmethod
    def release(fifo, reader):
        """Open ``fifo`` for writing until ``reader`` is done, so a reader
        whose writer never came gets end of file."""
        deadline = time.monotonic() + 10
        while reader.is_alive() and time.monotonic() < deadline:
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError as exc:  # no reader has it open yet
                assert exc.errno == errno.ENXIO
            reader.join(timeout=0.001)
        assert not reader.is_alive()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(argv=argvs())
    # runs that exit 0 through each kind of path
    @example(argv=["measure", *STATE, "--out", "link"])
    @example(argv=["measure", *STATE, "--r", "0.1", "--out", "fifo"])
    @example(argv=["dynamics", *STATE, "--steps", "100", "--out", "file"])
    @example(argv=["dynamics", *STATE, "--channel", "gad", "--steps", "2"])
    @example(argv=["verify", "--samples", "50"])
    @example(argv=[*SURFACE, "--out", "fifo", "--stats-out", "link"])
    @example(argv=[*SURFACE, "--channel", "pf", "--p", "0.5", "--out", "link"])
    @example(argv=[*SURFACE, "--r", "0.2", "--out", "file", "--stats-out", "fifo"])
    def test_exits_0_or_2(self, argv):
        with tempfile.TemporaryDirectory() as directory:
            root = pathlib.Path(directory)
            paths = {name: root / name for name in ("directory", "file", "link", "fifo")}
            paths["missing"] = root / "missing" / "out"
            paths["directory"].mkdir()
            paths["file"].write_bytes(b"old\n")
            paths["link"].symlink_to(paths["file"])
            os.mkfifo(paths["fifo"])
            got = []
            # a daemon, so a reader left waiting fails the test, not the whole run
            reader = threading.Thread(
                target=lambda: got.append(paths["fifo"].read_bytes()), daemon=True
            )
            reader.start()
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([str(paths.get(arg, arg)) for arg in argv])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            finally:
                self.release(paths["fifo"], reader)
            assert code in (0, 2)
            if code == 2:
                assert out.getvalue() == ""
                assert any(
                    line.startswith(("error:", "usage:")) for line in err.getvalue().splitlines()
                )
                return
            assert paths["link"].is_symlink()
            assert stat.S_ISFIFO(os.lstat(paths["fifo"]).st_mode)
            if "link" in argv or "file" in argv:
                assert paths["file"].read_bytes() not in (b"", b"old\n")
            if "fifo" in argv:
                assert got and got[0]
