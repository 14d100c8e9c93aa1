"""Time the library stages of the ROADMAP baseline table at one resolution.

    python stages.py N

Runs ``sample_field("rel-ent", N)`` with 1 and 2 threads (only the default
when ``sample_field`` has no ``threads`` parameter), ``extract_isosurface`` at
level 0.2 and ``export_obj``, with the tracer's shims installed, and prints one
JSON object mapping each baseline row to seconds.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import tempfile

from tracer import Tracer


def main(argv: list[str]) -> int:
    n = int(argv[0])
    from cohgeom import geometry

    tracer = Tracer(0)
    tracer.install()
    rows = {}

    def last(name: str) -> float:
        _, _, _, start, end, _ = [s for s in tracer.spans if s[2] == name][-1]
        return end - start

    if "threads" in inspect.signature(geometry.sample_field).parameters:
        geometry.sample_field("rel-ent", n, threads=1)
        rows["sample_field rel-ent, 1 thread"] = last("geometry.sample_field")
        grid = geometry.sample_field("rel-ent", n, threads=2)
        rows["sample_field rel-ent, 2 threads"] = last("geometry.sample_field")
    else:
        grid = geometry.sample_field("rel-ent", n)
        rows["sample_field rel-ent, 2 threads"] = last("geometry.sample_field")
    mesh = geometry.extract_isosurface(grid, 0.2)
    rows["extract_isosurface(level=0.2)"] = last("geometry.extract_isosurface")
    rows["classify_point per vertex"] = sum(
        end - start for _, _, name, start, end, _ in tracer.spans if name == "geometry.classify_point"
    )
    fd, path = tempfile.mkstemp(suffix=".obj", dir=os.getcwd())
    os.close(fd)
    try:
        geometry.export_obj(mesh, path, {"measure": "rel-ent", "level": 0.2})
    finally:
        os.unlink(path)
    rows["export_obj"] = last("geometry.export_obj")
    json.dump(rows, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
