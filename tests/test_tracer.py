"""The benchmark's traced mode keeps working against the package.

perfbench/tracer.py looks its targets up by name and reads counts from
their results (see ROADMAP, "Tracer names"); this runs it as
perfbench/worker.py does in trace mode, on a short 3D run.
"""

import importlib.util
import time
from pathlib import Path

from tdg import driver
from tdg.config import load_preset
from tdg.quadrature import points_per_direction

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_the_skeleton_and_assembly(monkeypatch):
    config = load_preset("ex4_cube_k20")
    config.adapt.max_iters = 1
    meshes = []
    step = driver._step

    def recording_step(mesh, *args):
        meshes.append(mesh)
        return step(mesh, *args)

    monkeypatch.setattr(driver, "_step", recording_step)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        history = driver.run_adapt_loop(config)
        run_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(run_s)
    assert len(history) == len(meshes) == 2
    assert layers["mesh.facets"] == sum(len(mesh.facets()) for mesh in meshes)
    assert layers["assembly.blocks"] > 0
    # l2_errors never reads a volume rule's points; the counter builds them.
    assert layers["quadrature.volume_points"] == sum(
        points_per_direction(el.degree, el.k, el.h) ** 3
        for mesh in meshes for el in mesh.elements.values())
