"""Experiment orchestration: adapt loops, benchmark protocols, and outputs."""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

from .assembly import assemble_system
from .basis import UnsupportedDegreeError
from .config import override
from .directional import apply_directional_adaptivity
from .estimator import effectivities, global_estimate, indicators
from .hp_adapt import (
    decide_and_refine,
    enforce_degree_compatibility,
    mark_elements,
    plan_refinement,
)
from .mesh import build_initial_mesh
from .problems import l2_errors
from .solve import SingularSystemError, solve
from .vtkio import write_vtk


@dataclass
class IterationRecord:
    """One solved configuration of the experiment loop."""

    iter: int
    n_elements: int
    dofs: int
    rel_l2_error: float
    estimate: float
    eff_total: float
    eff_jump_u: float
    eff_jump_gradu: float
    eff_robin: float
    cond: float
    wall_ms: float


CSV_HEADER = ",".join(f.name for f in dataclasses.fields(IterationRecord))


def initial_mesh(config):
    return build_initial_mesh(
        config.problem.domain, config.n, config.problem.wavenumber, config.q0
    )


def _solve_on(mesh, config):
    system = assemble_system(mesh, config.problem)
    report = solve(system)
    return system.split(report.coefficients), report


def _dofs(mesh):
    return sum(el.n_waves for el in mesh.elements.values())


def _exact_cache(problem):
    """A new exact-value cache for `l2_errors`, or None where it costs more
    than it saves.  A cached point holds 16 bytes between steps: that pays
    for Bessel and Hankel values (about 1 us a point), not for plane-wave
    values, which come from n cos/sin pairs per axis and one complex
    product per point (`ProblemSpec.exact_on_grid`), nor for the
    transmission problem's three exponentials a point; ex4_cube_k20's
    cache would add 4% to its peak memory.
    """
    return {} if problem.kind in ("hankel_source", "singular_corner") else None


def _measure(mesh, coefficients, report, config, it, wall_ms, cache):
    """Iteration record, indicator records and the (abs, norm) exact L2 errors."""
    records = indicators(mesh, coefficients, config.problem)
    abs_err, exact_norm = l2_errors(mesh, coefficients, config.problem, cache)
    estimate = global_estimate(records)
    eff = effectivities(records, abs_err)
    record = IterationRecord(
        iter=it,
        n_elements=len(mesh.elements),
        dofs=_dofs(mesh),
        rel_l2_error=abs_err / exact_norm,
        estimate=estimate,
        eff_total=eff[0],
        eff_jump_u=eff[1],
        eff_jump_gradu=eff[2],
        eff_robin=eff[3],
        cond=report.condition_estimate,
        wall_ms=wall_ms,
    )
    return record, records, (abs_err, exact_norm)


def _step(mesh, config, it, history, out_dir, cache):
    """Solve, measure and record one configuration (plus its VTK snapshot).

    Returns the coefficients, the indicator records and the exact L2 errors.
    """
    t0 = time.perf_counter()
    coefficients, report = _solve_on(mesh, config)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    record, indicator_records, errors = _measure(
        mesh, coefficients, report, config, it, wall_ms, cache
    )
    history.append(record)
    if out_dir is not None and config.write_vtk:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        eta = {r.element: r.eta for r in indicator_records}
        write_vtk(Path(out_dir) / f"mesh_iter{it:03d}.vtk", mesh, eta)
    return coefficients, indicator_records, errors


def run_adapt_loop(config, out_dir=None, history=None):
    """Solve/estimate/refine until max_iters or the stagnation stop.

    With `stop_on_stagnation` set, the loop also stops after an iteration
    whose condition estimate exceeds `cond_limit`; without it, `cond_limit`
    is not checked and the loop runs to `max_iters` whatever the estimate.
    Returns `history` (a new list if none is given) with the records appended.
    """
    history = [] if history is None else history
    mesh = initial_mesh(config)
    predictions = {}
    cache = _exact_cache(config.problem)
    previous_estimate = None
    rises = 0
    for it in range(config.adapt.max_iters + 1):
        coefficients, indicator_records, _ = _step(mesh, config, it, history, out_dir, cache)
        record = history[-1]
        if it == config.adapt.max_iters:
            break
        if config.stop_on_stagnation:
            if record.cond > config.cond_limit:
                break
            if previous_estimate is not None and record.estimate > previous_estimate:
                rises += 1
            else:
                rises = 0
            if rises >= 2:
                break
            previous_estimate = record.estimate
        marks = mark_elements(indicator_records, config.adapt.fraction)
        plan = plan_refinement(marks, indicator_records, predictions, config.adapt)
        apply_directional_adaptivity(
            mesh, coefficients, config.adapt.policy, h_marked=plan[0], p_marked=plan[1]
        )
        mesh, predictions = decide_and_refine(mesh, plan, indicator_records, predictions)
        enforce_degree_compatibility(mesh)
    return history


def _set_uniform_degree(mesh, q):
    for el in mesh.elements.values():
        el.degree = q


def run_table2_protocol(config, out_dir=None, history=None, rows=None):
    """Uniform-degree sweep with and without cumulative frame adaptation.

    The standard leg keeps canonical frames while the degree rises from
    q_min to q_max; the adaptive leg re-orients every element's frame from
    the previous solve before each degree increment.  Returns the per-degree
    table rows and the records of the adaptive leg, appended to `rows` and
    `history` (new lists if none are given) as each degree completes.
    """
    rows = [] if rows is None else rows
    history = [] if history is None else history
    std_mesh = initial_mesh(config)
    ada_mesh = initial_mesh(config)
    ada_coefficients = None
    cache = _exact_cache(config.problem)  # both legs have the same rules
    for step, q in enumerate(range(config.q_min, config.q_max + 1)):
        _set_uniform_degree(std_mesh, q)
        std_coefficients, _ = _solve_on(std_mesh, config)
        std_abs, exact_norm = l2_errors(std_mesh, std_coefficients, config.problem, cache)
        if ada_coefficients is not None:
            apply_directional_adaptivity(ada_mesh, ada_coefficients, "all")
        _set_uniform_degree(ada_mesh, q)
        ada_coefficients, _, (ada_abs, _) = _step(
            ada_mesh, config, step, history, out_dir, cache
        )
        rows.append({
            "q": q,
            "dofs": _dofs(std_mesh),
            "standard_rel": std_abs / exact_norm,
            "adaptive_rel": ada_abs / exact_norm,
            "standard_scaled": std_abs / exact_norm**2,
            "adaptive_scaled": ada_abs / exact_norm**2,
            "reduction_pct": 100.0 * (1.0 - ada_abs / std_abs),
        })
    return rows, history


def run_table3_protocol(config, out_dir=None, history=None, rows=None):
    """Repeated frame adaptation at fixed degree, for each q in the range.

    Returns the per-degree rows and every solve's record, appended to `rows`
    and `history` (new lists if none are given) as they complete.
    """
    rows = [] if rows is None else rows
    history = [] if history is None else history
    counter = 0
    cache = _exact_cache(config.problem)
    for q in range(config.q_min, config.q_max + 1):
        mesh = initial_mesh(config)
        _set_uniform_degree(mesh, q)
        errors_rel = []
        errors_scaled = []
        for pass_idx in range(config.passes + 1):
            if pass_idx > 0:
                apply_directional_adaptivity(mesh, coefficients, "all")
            coefficients, _, (abs_err, exact_norm) = _step(
                mesh, config, counter, history, out_dir, cache
            )
            errors_rel.append(abs_err / exact_norm)
            errors_scaled.append(abs_err / exact_norm**2)
            counter += 1
        rows.append({"q": q, "errors_rel": errors_rel, "errors_scaled": errors_scaled})
    return rows, history


def run_calibration(config, out_dir=None, history=None, cells=None):
    """Fixed-degree h-adaptive effectivity sweep over a (q, k) grid.

    Every cell's records are also appended to `history`, and each completed
    cell to `cells`.  A cell that fails still writes the records it completed
    to its own directory before the error propagates.
    """
    cells = [] if cells is None else cells
    history = [] if history is None else history
    for q in config.calibration_q:
        for k in config.calibration_k:
            cell_config = override(config, {
                "problem": {"k": repr(float(k))},
                "discretization": {"q0": str(int(q))},
                "adaptivity": {"protocol": "adapt", "mode": "h_only", "policy": "none"},
            })
            cell_dir = None
            if out_dir is not None:
                cell_dir = Path(out_dir) / f"q{q}_k{k:g}"
                cell_dir.mkdir(parents=True, exist_ok=True)
            start = len(history)
            try:
                run_adapt_loop(cell_config, cell_dir, history)
            finally:
                if cell_dir is not None:
                    write_outputs(history[start:], cell_dir, cell_config)
            cells.append({"q": q, "k": k, "records": history[start:]})
    return cells


def _csv(header, rows):
    """CSV text: ints as written, other numbers in shortest round-trip form."""
    lines = [header] + [
        ",".join(str(x) if isinstance(x, int) else repr(float(x)) for x in row)
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _records_csv(records):
    # The wall-clock column is always 0; real timings live in run.json.
    return _csv(CSV_HEADER, (dataclasses.astuple(r)[:-1] + (0,) for r in records))


def _environment():
    """Interpreter and library versions plus the BLAS thread variables."""
    env = {name: os.environ.get(name)
           for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(python=platform.python_version(), numpy=numpy.__version__,
               scipy=scipy.__version__)
    return env


def write_outputs(records, out_dir, config, tables=None, total_wall_ms=None):
    """Write convergence.csv and run.json for a completed run.

    The CSV is byte-deterministic: floats use shortest round-trip notation
    and the wall-clock column is written as zero (real timings live in
    run.json, which is not covered by the determinism contract).
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "convergence.csv").write_text(_records_csv(records), newline="\n")
        payload = {
            "config": config.raw,
            "config_hash": config.config_hash(),
            "environment": _environment(),
            "protocol": config.protocol,
            "records": [dataclasses.asdict(r) for r in records],
        }
        if tables:
            payload["tables"] = tables
        if total_wall_ms is not None:
            payload["total_wall_ms"] = total_wall_ms
        (out / "run.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="\n"
        )
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out}: {exc}") from exc


def _tables(protocol, rows):
    """run.json's `tables` entry for the table rows or calibration cells."""
    if protocol == "adapt":
        return None
    if protocol == "calibration":
        rows = [{"q": c["q"], "k": c["k"], "iters": len(c["records"])} for c in rows]
    return {protocol: rows}


def run_experiment(config, out_dir=None):
    """Run the configured protocol, writing artifacts when out_dir is given.

    On a singular system, or a degree with no direction set, the records
    and table rows collected so far are still flushed to run.json, and the
    records attached to the error as `partial_records`, before it
    propagates.
    """
    t0 = time.perf_counter()
    records = []
    rows = []
    try:
        if config.protocol == "adapt":
            run_adapt_loop(config, out_dir, records)
        elif config.protocol == "table2":
            run_table2_protocol(config, out_dir, records, rows)
        elif config.protocol == "table3":
            run_table3_protocol(config, out_dir, records, rows)
        elif config.protocol == "calibration":
            run_calibration(config, out_dir, records, rows)
        else:
            raise ValueError(f"unknown protocol {config.protocol!r}")
    except (SingularSystemError, UnsupportedDegreeError) as exc:
        exc.partial_records = records
        if out_dir is not None:
            write_outputs(records, out_dir, config, _tables(config.protocol, rows))
        raise
    if out_dir is None:
        return records
    total = 1000.0 * (time.perf_counter() - t0)
    write_outputs(records, out_dir, config, tables=_tables(config.protocol, rows),
                  total_wall_ms=total)
    if config.protocol == "table2":
        # The row keys, in insertion order, are the column names.
        text = _csv(",".join(rows[0]), map(dict.values, rows))
    elif config.protocol == "table3":
        header = ["q"] + [f"{kind}_pass{i}" for kind in ("rel", "scaled")
                          for i in range(config.passes + 1)]
        text = _csv(",".join(header), (
            [row["q"], *row["errors_rel"], *row["errors_scaled"]] for row in rows
        ))
    else:
        return records
    (Path(out_dir) / f"{config.protocol}.csv").write_text(text, newline="\n")
    return records
