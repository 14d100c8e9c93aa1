"""Command-line interface.

Subcommands
-----------
measure
    Evaluate every applicable measure for one state and emit a JSON document.
surface
    Sample a measure field, extract a constant-level triangle mesh to a
    Wavefront OBJ file, and emit mesh statistics as JSON.
dynamics
    Sweep the decoherence probability and emit coherence trajectories as CSV.
verify
    Run the closed-form-versus-oracle suites and report worst deviations.

Exit codes: 0 on success, 1 when a verification suite fails, 2 for invalid or
unphysical input, for output paths that cannot be written and for inputs too
large to allocate.  Repeated invocations with identical flags produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

# geometry, the surface layer, and verification, the oracle suites, are
# imported by the command that uses each, so no other command loads them
from . import _textio, channels, measures, states
from .measures import MeasureKind

_CHANNELS = tuple(kind.value for kind in channels.ChannelKind)


def _add_state_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--c1", type=float, required=True, help="correlation c1 in [-1, 1]")
    parser.add_argument("--c2", type=float, required=True, help="correlation c2 in [-1, 1]")
    parser.add_argument("--c3", type=float, required=True, help="correlation c3 in [-1, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohgeom",
        description=(
            "Coherence and discord measures for two-qubit Bell-diagonal and X "
            "states, their decoherence dynamics, and constant-coherence level "
            "surfaces exported as triangle meshes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="evaluate all measures for one state")
    _add_state_args(m)
    m.add_argument("--r", type=float, default=0.0, help="first Bloch z component")
    m.add_argument("--s", type=float, default=0.0, help="second Bloch z component")
    m.add_argument("--out", help="write the JSON document here instead of stdout")

    s = sub.add_parser("surface", help="extract a constant-level surface mesh")
    s.add_argument(
        "--measure",
        default="rel-ent",
        choices=[k.value for k in MeasureKind],
        help="field to sample (default: rel-ent)",
    )
    s.add_argument("--level", type=float, required=True, help="level value in (0, 1]")
    s.add_argument(
        "--resolution", type=int, default=64, help="grid nodes per axis (default: 64)"
    )
    s.add_argument("--r", type=float, help="sample the X-state slice at this r")
    s.add_argument("--s", type=float, help="sample the X-state slice at this s")
    s.add_argument(
        "--channel",
        choices=_CHANNELS,
        help="pre-map the grid through this channel before sampling",
    )
    s.add_argument("--p", type=float, help="channel probability for --channel")
    s.add_argument("--out", required=True, help="output OBJ path")
    s.add_argument("--stats-out", help="write the stats JSON here instead of stdout")

    d = sub.add_parser("dynamics", help="coherence of the evolved state versus p")
    _add_state_args(d)
    d.add_argument(
        "--channel",
        default="all",
        choices=list(_CHANNELS) + ["all"],
        help="channel column(s) to emit (default: all)",
    )
    d.add_argument(
        "--steps", type=int, default=101, help="points on the p grid (default: 101)"
    )
    d.add_argument("--out", help="write the CSV here instead of stdout")

    v = sub.add_parser("verify", help="run the oracle cross-check suites")
    v.add_argument(
        "--samples",
        type=int,
        default=10000,
        help="random states per sampled suite (default: 10000)",
    )

    return parser


@contextlib.contextmanager
def _output(path: str | None):
    """The file at ``path``, through ``_textio.open_atomic``, or stdout without one."""
    if path is not None:
        with _textio.open_atomic(path) as handle:
            yield handle
    else:
        yield sys.stdout


def _cmd_measure(args) -> int:
    params = states.require_physical_x((args.r, args.s, args.c1, args.c2, args.c3))
    r, s, c1, c2, c3 = params
    rho = states.x_density(params)
    is_bell = r == 0.0 and s == 0.0
    doc = {
        "c1": c1,
        "c2": c2,
        "c3": c3,
        "r": r,
        "s": s,
        "l1": measures.l1_coherence(rho),
        "trace_norm": measures.trace_norm_coherence_x(rho),
        "relative_entropy": float(
            measures.bell_relative_entropy_values(c1, c2, c3)
            if is_bell
            else measures.x_relative_entropy_values(*params)
        ),
    }
    if is_bell:
        doc["discord"] = float(measures.bell_discord_values(c1, c2, c3))
        # json writes bool but not np.bool_
        doc["discord_equals_coherence"] = bool(
            measures.discord_equals_coherence_values(c1, c2, c3)
        )
    doc["region"] = "entangled" if states.entangled_values(*params) else "separable"
    with _output(args.out) as out:
        out.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_surface(args) -> int:
    from . import geometry

    if not 0.0 < args.level <= 1.0:
        raise states.DomainError(f"--level must lie in (0, 1], got {args.level}")
    if args.stats_out and os.path.realpath(args.stats_out) == os.path.realpath(args.out):
        raise states.DomainError(f"--out and --stats-out name the same file {args.out!r}")
    slice_rs = None
    if args.r is not None or args.s is not None:
        slice_rs = (args.r or 0.0, args.s or 0.0)

    mesh = geometry.level_surface(
        args.measure,
        args.resolution,
        args.level,
        slice=slice_rs,
        channel=args.channel,
        p=args.p,
    )
    if args.level < 2.0 / args.resolution:
        print(
            f"warning: level {args.level} is below the grid feature size "
            f"{2.0 / args.resolution:.4g}; consider a higher --resolution",
            file=sys.stderr,
        )

    metadata = {
        "measure": args.measure,
        "level": float(args.level),
        "resolution": int(args.resolution),
        "r": None if slice_rs is None else slice_rs[0],
        "s": None if slice_rs is None else slice_rs[1],
    }
    stats = json.dumps({**geometry.surface_stats(mesh, slice_rs), **metadata}, indent=2) + "\n"
    if args.channel is not None:
        metadata["channel"] = args.channel
        metadata["p"] = float(args.p)
    # the stats file is open, and written, before the OBJ replaces its target,
    # and replaces its own only after, so a destination that cannot be written
    # leaves the other one unchanged
    with contextlib.ExitStack() as stack:
        if args.stats_out is not None:
            stack.enter_context(_textio.open_atomic(args.stats_out)).write(stats)
        geometry.export_obj(mesh, args.out, metadata)
    if args.stats_out is None:
        sys.stdout.write(stats)
    return 0


def _cmd_dynamics(args) -> int:
    # checked before the header is written, since the curves come block by block
    params = states.require_physical_bell((args.c1, args.c2, args.c3))
    grid = channels.default_p_grid(args.steps)
    columns = list(_CHANNELS) if args.channel == "all" else [args.channel]
    with _output(args.out) as out:
        out.write("p," + ",".join(f"C_{name}" for name in columns) + "\n")
        for start in range(0, len(grid), _textio.BLOCK_ROWS):
            block = grid[start : start + _textio.BLOCK_ROWS]
            curves = [channels.dynamics_trajectory(params, name, block) for name in columns]
            rows = zip(block.tolist(), *(c.tolist() for c in curves))
            out.write("".join(",".join(map(repr, row)) + "\n" for row in rows))
    return 0


def _cmd_verify(args) -> int:
    from . import verification

    results = verification.run_all(args.samples)
    for result in results:
        print(result.line())
    failed = [r.name for r in results if not r.passed]
    if failed:
        print("FAIL: " + ", ".join(failed))
        return 1
    print("all suites passed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "measure":
            return _cmd_measure(args)
        if args.command == "surface":
            return _cmd_surface(args)
        if args.command == "dynamics":
            return _cmd_dynamics(args)
        return _cmd_verify(args)
    except (states.DomainError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
