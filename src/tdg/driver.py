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
from .solution import DiscreteSolution
from .solve import SingularSystemError, solve
from .vtkio import write_vtk

CSV_HEADER = (
    "iter,n_elements,dofs,rel_l2_error,estimate,eff_total,"
    "eff_jump_u,eff_jump_gradu,eff_robin,cond,wall_ms"
)


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


def initial_mesh(config):
    return build_initial_mesh(
        config.domain, config.n, config.problem.wavenumber_field(), config.q0
    )


def _solve_on(mesh, config):
    system = assemble_system(mesh, config.problem, config.penalties)
    report = solve(system)
    solution = DiscreteSolution.from_vector(mesh, report.coefficients, system.dof_map)
    return solution, report


def _solve_guarded(mesh, config, history):
    # On breakdown, carry the records gathered so far out with the error so
    # run_experiment can still flush them.
    try:
        return _solve_on(mesh, config)
    except SingularSystemError as exc:
        if not hasattr(exc, "partial_records"):
            exc.partial_records = list(history)
        raise


def _dofs(mesh):
    return sum(el.n_waves for el in mesh.elements.values())


def _measure(mesh, solution, report, config, predictions, it, wall_ms):
    """Iteration record, indicator records and the (abs, norm) exact L2 errors."""
    records = indicators(
        mesh, solution, config.problem, config.penalties, predictions=predictions
    )
    abs_err, exact_norm = l2_errors(solution, config.problem)
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


def _maybe_vtk(config, out_dir, it, mesh, indicator_records):
    if out_dir is None or not config.write_vtk:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eta = {r.element: r.eta for r in indicator_records}
    write_vtk(out / f"mesh_iter{it:03d}.vtk", mesh, eta)


def run_adapt_loop(config, out_dir=None):
    """Solve/estimate/refine until max_iters or the stagnation stop.

    With `stop_on_stagnation` set, the loop also stops after an iteration
    whose condition estimate exceeds `cond_limit`; without it, `cond_limit`
    is not checked and the loop runs to `max_iters` whatever the estimate.
    """
    mesh = initial_mesh(config)
    predictions = None
    history = []
    previous_estimate = None
    rises = 0
    for it in range(config.adapt.max_iters + 1):
        t0 = time.perf_counter()
        solution, report = _solve_guarded(mesh, config, history)
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        record, indicator_records, _ = _measure(
            mesh, solution, report, config, predictions, it, wall_ms
        )
        history.append(record)
        _maybe_vtk(config, out_dir, it, mesh, indicator_records)
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
        plan = plan_refinement(marks, indicator_records, config.adapt)
        apply_directional_adaptivity(
            mesh,
            solution,
            config.adapt.policy,
            h_marked=plan[0],
            p_marked=plan[1],
            gap=config.lambda_gap,
            ball_radius=config.delta_ball,
        )
        mesh, predictions = decide_and_refine(
            mesh, marks, indicator_records, config.adapt, plan=plan
        )
        enforce_degree_compatibility(mesh)
    return history


def _set_uniform_degree(mesh, q):
    for el in mesh.elements.values():
        el.degree = q


def run_table2_protocol(config, out_dir=None):
    """Uniform-degree sweep with and without cumulative frame adaptation.

    The standard leg keeps canonical frames while the degree rises from
    q_min to q_max; the adaptive leg re-orients every element's frame from
    the previous solve before each degree increment.  Returns the per-degree
    table rows and the iteration records of the adaptive leg.
    """
    problem = config.problem
    rows = []
    history = []
    std_mesh = initial_mesh(config)
    _set_uniform_degree(std_mesh, config.q_min)
    ada_mesh = initial_mesh(config)
    _set_uniform_degree(ada_mesh, config.q_min)
    ada_solution = None
    for step, q in enumerate(range(config.q_min, config.q_max + 1)):
        _set_uniform_degree(std_mesh, q)
        std_solution, _ = _solve_guarded(std_mesh, config, history)
        std_abs, exact_norm = l2_errors(std_solution, problem)
        if ada_solution is not None:
            apply_directional_adaptivity(
                ada_mesh,
                ada_solution,
                "all",
                gap=config.lambda_gap,
                ball_radius=config.delta_ball,
            )
        _set_uniform_degree(ada_mesh, q)
        t0 = time.perf_counter()
        ada_solution, ada_report = _solve_guarded(ada_mesh, config, history)
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        record, indicator_records, (ada_abs, _) = _measure(
            ada_mesh, ada_solution, ada_report, config, None, step, wall_ms
        )
        history.append(record)
        _maybe_vtk(config, out_dir, step, ada_mesh, indicator_records)
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


def run_table3_protocol(config, out_dir=None):
    """Repeated frame adaptation at fixed degree, for each q in the range."""
    rows = []
    history = []
    counter = 0
    for q in range(config.q_min, config.q_max + 1):
        mesh = initial_mesh(config)
        _set_uniform_degree(mesh, q)
        errors_rel = []
        errors_scaled = []
        for pass_idx in range(config.passes + 1):
            if pass_idx > 0:
                apply_directional_adaptivity(
                    mesh,
                    solution,
                    "all",
                    gap=config.lambda_gap,
                    ball_radius=config.delta_ball,
                )
            t0 = time.perf_counter()
            solution, report = _solve_guarded(mesh, config, history)
            wall_ms = 1000.0 * (time.perf_counter() - t0)
            record, indicator_records, (abs_err, exact_norm) = _measure(
                mesh, solution, report, config, None, counter, wall_ms
            )
            errors_rel.append(abs_err / exact_norm)
            errors_scaled.append(abs_err / exact_norm**2)
            history.append(record)
            _maybe_vtk(config, out_dir, counter, mesh, indicator_records)
            counter += 1
        rows.append({
            "q": q,
            "errors_rel": errors_rel,
            "errors_scaled": errors_scaled,
        })
    return rows, history


def _calibration_cell_config(config, q, k):
    from .config import _build

    raw = {section: dict(values) for section, values in config.raw.items()}
    raw["problem"]["k"] = repr(float(k))
    raw["discretization"]["q0"] = str(int(q))
    raw["adaptivity"]["protocol"] = "adapt"
    raw["adaptivity"]["mode"] = "h_only"
    raw["adaptivity"]["policy"] = "none"
    return _build(raw)


def run_calibration(config, out_dir=None):
    """Fixed-degree h-adaptive effectivity sweep over a (q, k) grid."""
    cells = []
    for q in config.calibration_q:
        for k in config.calibration_k:
            cell_config = _calibration_cell_config(config, q, k)
            cell_dir = None
            if out_dir is not None:
                cell_dir = Path(out_dir) / f"q{q}_k{k:g}"
                cell_dir.mkdir(parents=True, exist_ok=True)
            try:
                records = run_adapt_loop(cell_config, out_dir=cell_dir)
            except SingularSystemError as exc:
                exc.partial_records = [
                    r for cell in cells for r in cell["records"]
                ] + list(getattr(exc, "partial_records", []))
                raise
            if cell_dir is not None:
                write_outputs(records, cell_dir, cell_config)
            cells.append({"q": q, "k": k, "records": records})
    return cells


def _csv_value(x):
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _records_csv(records):
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.iter),
            str(r.n_elements),
            str(r.dofs),
            _csv_value(r.rel_l2_error),
            _csv_value(r.estimate),
            _csv_value(r.eff_total),
            _csv_value(r.eff_jump_u),
            _csv_value(r.eff_jump_gradu),
            _csv_value(r.eff_robin),
            _csv_value(r.cond),
            "0",
        ]))
    return "\n".join(lines) + "\n"


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


def _table2_csv(rows):
    lines = ["q,dofs,standard_rel,adaptive_rel,standard_scaled,adaptive_scaled,reduction_pct"]
    for row in rows:
        lines.append(",".join([
            str(row["q"]),
            str(row["dofs"]),
            _csv_value(row["standard_rel"]),
            _csv_value(row["adaptive_rel"]),
            _csv_value(row["standard_scaled"]),
            _csv_value(row["adaptive_scaled"]),
            _csv_value(row["reduction_pct"]),
        ]))
    return "\n".join(lines) + "\n"


def _table3_csv(rows):
    passes = max(len(row["errors_rel"]) for row in rows) if rows else 1
    header = ["q"]
    for i in range(passes):
        header.append(f"rel_pass{i}")
    for i in range(passes):
        header.append(f"scaled_pass{i}")
    lines = [",".join(header)]
    for row in rows:
        cells = [str(row["q"])]
        cells += [_csv_value(v) for v in row["errors_rel"]]
        cells += [_csv_value(v) for v in row["errors_scaled"]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_experiment(config, out_dir=None):
    """Run the configured protocol, writing artifacts when out_dir is given.

    On a singular system the records collected so far are still flushed
    before the error propagates.
    """
    t0 = time.perf_counter()
    records = []
    tables = None
    extra_csv = {}
    try:
        if config.protocol == "adapt":
            records = run_adapt_loop(config, out_dir=out_dir)
        elif config.protocol == "table2":
            rows, records = run_table2_protocol(config, out_dir=out_dir)
            tables = {"table2": rows}
            extra_csv["table2.csv"] = _table2_csv(rows)
        elif config.protocol == "table3":
            rows, records = run_table3_protocol(config, out_dir=out_dir)
            tables = {"table3": rows}
            extra_csv["table3.csv"] = _table3_csv(rows)
        elif config.protocol == "calibration":
            cells = run_calibration(config, out_dir=out_dir)
            records = [r for cell in cells for r in cell["records"]]
            tables = {
                "calibration": [
                    {"q": c["q"], "k": c["k"], "iters": len(c["records"])}
                    for c in cells
                ]
            }
        else:
            raise ValueError(f"unknown protocol {config.protocol!r}")
    except SingularSystemError as exc:
        records = list(getattr(exc, "partial_records", records))
        if out_dir is not None:
            write_outputs(records, out_dir, config, tables=tables)
        raise
    if out_dir is not None:
        total = 1000.0 * (time.perf_counter() - t0)
        write_outputs(records, out_dir, config, tables=tables, total_wall_ms=total)
        for name, text in extra_csv.items():
            (Path(out_dir) / name).write_text(text, newline="\n")
    return records
