"""Experiment driver: loops, protocols, output files, and the CLI."""

import json
import math
import os
import platform
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import tdg.driver as driver
from tdg.cli import main
from tdg.config import _build, load_config_text, override
from tdg.driver import (
    CSV_HEADER,
    IterationRecord,
    _records_csv,
    initial_mesh,
    run_adapt_loop,
    run_calibration,
    run_experiment,
    run_table2_protocol,
    run_table3_protocol,
    write_outputs,
)
from tdg.estimator import IndicatorRecord
from tdg.solve import SingularSystemError

SMALL = """
[domain]
n = 2
[problem]
kind = hankel_source
k = 20
[discretization]
q0 = 3
[adaptivity]
max_iters = {iters}
policy = none
{extra}
[output]
write_vtk = false
"""


def _config(iters=0, extra=""):
    return load_config_text(SMALL.format(iters=iters, extra=extra))


def _record(it, err=0.5, est=0.4, cond=10.0):
    return IterationRecord(
        iter=it, n_elements=4, dofs=28, rel_l2_error=err, estimate=est,
        eff_total=1.0, eff_jump_u=0.5, eff_jump_gradu=0.75, eff_robin=0.25,
        cond=cond, wall_ms=12.5,
    )


def test_initial_mesh_respects_config():
    mesh = initial_mesh(_config())
    assert len(mesh.elements) == 4
    assert all(el.degree == 3 for el in mesh.elements.values())
    assert all(el.k == 20.0 for el in mesh.elements.values())


def test_max_iters_zero_gives_single_record():
    records = run_adapt_loop(_config(iters=0))
    assert len(records) == 1
    assert records[0].iter == 0
    assert records[0].n_elements == 4
    assert records[0].dofs == 28
    assert 0.0 < records[0].rel_l2_error < 5.0
    assert records[0].wall_ms > 0.0


def test_csv_header_and_row_shape():
    assert CSV_HEADER == (
        "iter,n_elements,dofs,rel_l2_error,estimate,eff_total,"
        "eff_jump_u,eff_jump_gradu,eff_robin,cond,wall_ms"
    )
    text = _records_csv([_record(0), _record(1, err=0.25)])
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0] == CSV_HEADER
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 11
        assert cells[-1] == "0"  # wall clock never enters the CSV
    assert lines[1].startswith("0,4,28,0.5,")
    assert text.endswith("\n")


def test_records_csv_empty_is_header_only():
    assert _records_csv([]) == CSV_HEADER + "\n"


def test_records_csv_roundtrips_floats():
    value = 1.0 / 3.0
    text = _records_csv([_record(0, err=value)])
    cell = text.splitlines()[1].split(",")[3]
    assert float(cell) == value


def test_write_outputs_and_hash_roundtrip(tmp_path):
    config = _config(iters=1)
    records = run_adapt_loop(config)
    write_outputs(records, tmp_path, config, total_wall_ms=45.0)
    csv_text = (tmp_path / "convergence.csv").read_text()
    assert csv_text.splitlines()[0] == CSV_HEADER
    assert len(csv_text.splitlines()) == len(records) + 1
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["protocol"] == "adapt"
    assert payload["total_wall_ms"] == 45.0
    assert len(payload["records"]) == len(records)
    assert payload["records"][0]["wall_ms"] > 0.0  # real timing lives in JSON
    rebuilt = _build(payload["config"])
    assert rebuilt.config_hash() == payload["config_hash"] == config.config_hash()
    assert payload["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{name: os.environ.get(name)
           for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def test_adapt_loop_is_deterministic_in_process():
    first = _records_csv(run_adapt_loop(_config(iters=2)))
    second = _records_csv(run_adapt_loop(_config(iters=2)))
    assert first == second


@pytest.mark.parametrize("kind", ["hankel_source", "plane_wave"])
def test_adapt_loop_measures_through_module_l2_errors(kind, monkeypatch):
    # perfbench/worker.py times time_to_tol_s by wrapping driver.l2_errors.
    calls = []
    l2_errors = driver.l2_errors

    def counting(*args, **kwargs):
        calls.append(args)
        return l2_errors(*args, **kwargs)

    monkeypatch.setattr(driver, "l2_errors", counting)
    config = override(_config(iters=3), {"problem": {"kind": kind, "direction": "1,1"}})
    records = run_adapt_loop(config)
    assert len(records) == 4
    assert len(calls) == len(records)
    # One exact-value cache serves the whole loop where the exact solution
    # needs special functions; plane waves are evaluated afresh.
    if kind == "hankel_source":
        assert isinstance(calls[0][2], dict)
        assert all(args[2] is calls[0][2] for args in calls)
    else:
        assert all(args[2] is None for args in calls)


def test_hp_loop_drives_error_down():
    config = load_config_text("""
[domain]
n = 4
[problem]
kind = hankel_source
k = 20
[discretization]
q0 = 3
[adaptivity]
mode = hp
policy = all
max_iters = 4
[output]
write_vtk = false
""")
    records = run_adapt_loop(config)
    assert len(records) == 5
    errors = [r.rel_l2_error for r in records]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.1 * errors[0]
    dofs = [r.dofs for r in records]
    assert all(b >= a for a, b in zip(dofs, dofs[1:]))
    slope = np.polyfit(dofs, np.log(errors), 1)[0]
    assert slope < 0.0
    assert all(0.2 < r.eff_total < 50.0 for r in records)


def test_stagnation_stop_on_rising_estimate(monkeypatch):
    config = _config(iters=10)
    estimates = iter([1.0, 2.0, 3.0, 4.0, 5.0])

    def fake_solve_on(mesh, cfg):
        return None, SimpleNamespace(condition_estimate=10.0)

    def fake_measure(mesh, solution, report, cfg, it, wall_ms, cache):
        est = next(estimates)
        fake_records = [
            IndicatorRecord(element=eid, eta=0.1, jump_u=0.1, jump_gradu=0.0,
                            robin=0.0, dirichlet=0.0)
            for eid in sorted(mesh.elements)
        ]
        return _record(it, est=est, cond=10.0), fake_records, None

    monkeypatch.setattr(driver, "_solve_on", fake_solve_on)
    monkeypatch.setattr(driver, "_measure", fake_measure)
    records = run_adapt_loop(config)
    # Estimates 1 -> 2 -> 3 rise twice in a row: stop after the third solve.
    assert len(records) == 3


def test_stagnation_disabled_runs_to_budget(monkeypatch):
    config = _config(iters=4, extra="stop_on_stagnation = false\n")
    estimates = iter([1.0, 2.0, 3.0, 4.0, 5.0])

    def fake_solve_on(mesh, cfg):
        return None, SimpleNamespace(condition_estimate=10.0)

    def fake_measure(mesh, solution, report, cfg, it, wall_ms, cache):
        est = next(estimates)
        fake_records = [
            IndicatorRecord(element=eid, eta=0.1, jump_u=0.1, jump_gradu=0.0,
                            robin=0.0, dirichlet=0.0)
            for eid in sorted(mesh.elements)
        ]
        return _record(it, est=est, cond=10.0), fake_records, None

    monkeypatch.setattr(driver, "_solve_on", fake_solve_on)
    monkeypatch.setattr(driver, "_measure", fake_measure)
    assert len(run_adapt_loop(config)) == 5


def test_condition_limit_stops_loop(monkeypatch):
    config = _config(iters=10)

    def fake_solve_on(mesh, cfg):
        return None, SimpleNamespace(condition_estimate=1e15)

    def fake_measure(mesh, solution, report, cfg, it, wall_ms, cache):
        return _record(it, cond=1e15), [], None

    monkeypatch.setattr(driver, "_solve_on", fake_solve_on)
    monkeypatch.setattr(driver, "_measure", fake_measure)
    assert len(run_adapt_loop(config)) == 1


def test_table2_protocol_rows():
    config = load_config_text("""
[domain]
n = 2
[adaptivity]
protocol = table2
q_min = 2
q_max = 4
[output]
write_vtk = false
""")
    rows, history = run_table2_protocol(config)
    assert [row["q"] for row in rows] == [2, 3, 4]
    assert [row["dofs"] for row in rows] == [4 * 5, 4 * 7, 4 * 9]
    for row in rows:
        assert set(row) == {"q", "dofs", "standard_rel", "adaptive_rel",
                            "standard_scaled", "adaptive_scaled", "reduction_pct"}
        ratio = row["standard_scaled"] / row["standard_rel"]
        assert ratio == pytest.approx(rows[0]["standard_scaled"]
                                      / rows[0]["standard_rel"], rel=1e-12)
        assert math.isfinite(row["reduction_pct"])
    assert len(history) == 3
    # Errors fall as the uniform degree rises.
    assert rows[2]["standard_rel"] < rows[0]["standard_rel"]


def test_table3_protocol_rows():
    config = load_config_text("""
[domain]
n = 4
[adaptivity]
protocol = table3
q_min = 3
q_max = 3
passes = 2
[output]
write_vtk = false
""")
    rows, history = run_table3_protocol(config)
    assert len(rows) == 1
    assert rows[0]["q"] == 3
    assert len(rows[0]["errors_rel"]) == 3
    assert len(rows[0]["errors_scaled"]) == 3
    assert len(history) == 3
    # The first re-framing pass helps on this problem.
    assert rows[0]["errors_rel"][1] < rows[0]["errors_rel"][0]


def test_calibration_writes_cell_directories(tmp_path):
    config = load_config_text("""
[domain]
n = 2
[adaptivity]
protocol = calibration
mode = h_only
policy = none
max_iters = 1
stop_on_stagnation = false
calibration_q = 3
calibration_k = 20, 40
[output]
write_vtk = false
""")
    cells = run_calibration(config, out_dir=tmp_path)
    assert [(c["q"], c["k"]) for c in cells] == [(3, 20.0), (3, 40.0)]
    for name in ("q3_k20", "q3_k40"):
        cell = tmp_path / name
        assert (cell / "convergence.csv").is_file()
        payload = json.loads((cell / "run.json").read_text())
        assert payload["config"]["adaptivity"]["mode"] == "h_only"
        assert payload["config"]["adaptivity"]["policy"] == "none"
        assert payload["config"]["adaptivity"]["protocol"] == "adapt"
    assert all(len(c["records"]) == 2 for c in cells)


def test_run_experiment_writes_protocol_artifacts(tmp_path):
    config = load_config_text("""
[domain]
n = 2
[adaptivity]
protocol = table2
q_min = 2
q_max = 3
[output]
write_vtk = false
""")
    records = run_experiment(config, out_dir=tmp_path)
    assert len(records) == 2
    table = (tmp_path / "table2.csv").read_text().splitlines()
    assert table[0] == ("q,dofs,standard_rel,adaptive_rel,"
                        "standard_scaled,adaptive_scaled,reduction_pct")
    assert len(table) == 3
    payload = json.loads((tmp_path / "run.json").read_text())
    assert "table2" in payload["tables"]
    assert payload["total_wall_ms"] > 0.0


def _fail_after(monkeypatch, good_solves):
    """Make driver._solve_on raise SingularSystemError after `good_solves` calls."""
    calls = {"n": 0}
    real = driver._solve_on

    def flaky(mesh, cfg):
        calls["n"] += 1
        if calls["n"] > good_solves:
            raise SingularSystemError("synthetic breakdown")
        return real(mesh, cfg)

    monkeypatch.setattr(driver, "_solve_on", flaky)


def test_run_experiment_flushes_on_singular_system(tmp_path, monkeypatch):
    config = _config(iters=3)
    _fail_after(monkeypatch, 1)
    with pytest.raises(SingularSystemError):
        run_experiment(config, out_dir=tmp_path)
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the one completed iteration


PARTIAL_CASES = {
    # protocol: (extra [adaptivity] lines, successful solves, records kept)
    "table2": ("q_min = 2\nq_max = 4\n", 5, 2),  # two solves per degree
    "table3": ("q_min = 3\nq_max = 3\npasses = 2\n", 2, 2),
    "calibration": ("mode = h_only\nmax_iters = 1\nstop_on_stagnation = false\n"
                    "calibration_q = 3\ncalibration_k = 20, 40\n", 3, 3),
}


def _partial_config(protocol):
    extra = PARTIAL_CASES[protocol][0]
    return load_config_text(
        "[domain]\nn = 2\n[adaptivity]\n"
        f"protocol = {protocol}\n{extra}[output]\nwrite_vtk = false\n"
    )


@pytest.mark.parametrize("protocol", sorted(PARTIAL_CASES))
def test_run_experiment_flushes_partial_records_per_protocol(
        tmp_path, monkeypatch, protocol):
    _, good_solves, kept = PARTIAL_CASES[protocol]
    _fail_after(monkeypatch, good_solves)
    with pytest.raises(SingularSystemError) as info:
        run_experiment(_partial_config(protocol), out_dir=tmp_path)
    partial = info.value.partial_records
    assert len(partial) == kept
    # Calibration keeps the records of the cells finished before the failure.
    assert [r.iter for r in partial] == (
        [0, 1, 0] if protocol == "calibration" else list(range(kept)))
    text = (tmp_path / "convergence.csv").read_text()
    assert text == _records_csv(partial)
    assert len(text.splitlines()) == kept + 1


def test_failing_calibration_cell_writes_its_completed_records(tmp_path, monkeypatch):
    # Two cells of two solves each; the fourth solve (second cell, iter 1) fails.
    _fail_after(monkeypatch, 3)
    with pytest.raises(SingularSystemError):
        run_experiment(_partial_config("calibration"), out_dir=tmp_path)
    top = (tmp_path / "convergence.csv").read_bytes().splitlines(keepends=True)
    assert len(top) == 4  # header, q3_k20 iters 0 and 1, q3_k40 iter 0
    cell = tmp_path / "q3_k40"
    assert (cell / "convergence.csv").read_bytes() == top[0] + top[3]
    assert len(json.loads((cell / "run.json").read_text())["records"]) == 1
    assert (tmp_path / "q3_k20" / "convergence.csv").read_bytes() == b"".join(top[:3])


@pytest.mark.parametrize("protocol", ["table2", "calibration"])
def test_failed_table_run_keeps_completed_tables(tmp_path, monkeypatch, protocol):
    config = _partial_config(protocol)
    if protocol == "table2":
        rows, _ = run_table2_protocol(config)
        # Solves 1-4 finish degrees 2 and 3; degree 4's adaptive solve fails.
        expected = json.loads(json.dumps(rows[:2]))
    else:
        # Only the q3_k20 cell completes before the failure.
        expected = [{"q": 3, "k": 20.0, "iters": 2}]
    _fail_after(monkeypatch, PARTIAL_CASES[protocol][1])
    with pytest.raises(SingularSystemError):
        run_experiment(config, out_dir=tmp_path)
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["tables"] == {protocol: expected}


def test_vtk_files_written_when_enabled(tmp_path):
    config = load_config_text(SMALL.format(iters=1, extra="").replace(
        "write_vtk = false", "write_vtk = true"))
    run_experiment(config, out_dir=tmp_path / "fresh" / "nested")
    written = sorted(p.name for p in (tmp_path / "fresh" / "nested").glob("*.vtk"))
    assert written == ["mesh_iter000.vtk", "mesh_iter001.vtk"]


# ---------------------------------------------------------------- CLI


def test_cli_requires_some_config(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path)]) == 2
    assert "missing config path" in capsys.readouterr().err


def test_cli_rejects_config_and_preset(tmp_path, capsys):
    path = tmp_path / "c.ini"
    path.write_text(SMALL.format(iters=0, extra=""))
    assert main(["run", str(path), "--preset", "table2"]) == 2
    assert "not both" in capsys.readouterr().err


def test_cli_unknown_preset_lists_names(tmp_path, capsys):
    assert main(["run", "--preset", "bogus", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown preset" in err
    assert "table2" in err and "ex1_hankel_hp_k20" in err


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.ini")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_invalid_config_contents(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[domain]\nkind = moebius\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "unknown domain" in capsys.readouterr().err
    # Malformed INI: a repeated key, and a key before any section header.
    for text, message in (("[domain]\nn = 2\nn = 3\n", "already exists"),
                          ("n = 2\n", "no section headers")):
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and str(path) in err
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("text,message", [
    ("[domain]\nkind = l_shape\nn = 3\n[problem]\nkind = singular_corner\n",
     "l_shape needs an even initial resolution, got n=3"),
    ("[domain]\nkind = square2\nn = 3\nboundary = all=dirichlet\n[problem]\n"
     "kind = transmission\nomega = 11\nindex_below = 2\nindex_above = 1\nincidence_deg = 29\n",
     "does not resolve the material interface"),
], ids=["l_shape", "square2"])
def test_cli_rejected_initial_grid_is_a_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "grid.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_happy_path_with_overrides(tmp_path, capsys):
    path = tmp_path / "c.ini"
    path.write_text(SMALL.format(iters=5, extra=""))
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out),
                 "--max-iters", "1", "--policy", "all"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "completed 2 iteration(s)" in stdout
    assert str(out) in stdout
    payload = json.loads((out / "run.json").read_text())
    assert payload["config"]["adaptivity"]["max_iters"] == "1"
    assert payload["config"]["adaptivity"]["policy"] == "all"
    assert len(payload["records"]) == 2


def test_cli_unknown_policy_uses_config_validation(tmp_path, capsys):
    path = tmp_path / "c.ini"
    path.write_text(SMALL.format(iters=0, extra=""))
    code = main(["run", str(path), "--policy", "bogus", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "[adaptivity] policy" in err
    assert "'bogus'" in err
    assert not (tmp_path / "out").exists()


def test_cli_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "c.ini"
    path.write_text(SMALL.format(iters=0, extra=""))

    def explode(config, out_dir=None):
        raise SingularSystemError("synthetic")

    monkeypatch.setattr(driver, "run_experiment", explode)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_cli_output_error_exit_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "c.ini"
    path.write_text(SMALL.format(iters=0, extra=""))

    def denied(config, out_dir=None):
        raise OSError("disk full")

    monkeypatch.setattr(driver, "run_experiment", denied)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "output error" in capsys.readouterr().err
