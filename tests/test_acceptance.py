"""Acceptance gate: one test per shipping criterion, one verdict line each.

Every test prints (and appends to acceptance_report.txt) a single line
``criterion N: PASS/FAIL - detail`` before asserting, so a full run leaves a
complete scoreboard even when an individual criterion fails.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tdg.assembly import assemble_system
from tdg.basis import canonical_directions, eval_basis, frame_from_direction
from tdg.config import load_config_text
from tdg.directional import orient_direction, potential_direction
from tdg.driver import initial_mesh, run_adapt_loop, run_table2_protocol, run_table3_protocol
from tdg.estimator import IndicatorRecord, indicators
from tdg.hp_adapt import (
    AdaptConfig,
    decide_and_refine,
    enforce_degree_compatibility,
    mark_elements,
    plan_refinement,
)
from tdg.mesh import DomainSpec, build_initial_mesh
from tdg.problems import ProblemSpec, l2_errors
from tdg.quadrature import facet_rule
from tdg.solve import solve
from tdg.special import bessel_j, hankel1

REPORT = Path(__file__).resolve().parent.parent / "acceptance_report.txt"


@pytest.fixture(scope="module", autouse=True)
def _fresh_report():
    REPORT.write_text("")
    yield


def _verdict(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    with open(REPORT, "a") as handle:
        handle.write(line + "\n")
    return line


# Reference scaled errors and reductions for the uniform-degree benchmark
# (offset line-source problem, 4x4 mesh, k=20).
REFERENCE_UNIFORM = {
    3: 2.015,
    4: 5.027e-1,
    5: 7.414e-2,
    6: 1.616e-2,
    7: 3.420e-3,
    8: 5.154e-4,
}


def test_criterion_1_uniform_degree_benchmark():
    config = load_config_text("""
[domain]
n = 4
[problem]
kind = hankel_source
k = 20
[discretization]
q0 = 2
[adaptivity]
protocol = table2
q_min = 2
q_max = 8
[output]
write_vtk = false
""")
    t0 = time.perf_counter()
    rows, _ = run_table2_protocol(config)
    elapsed = time.perf_counter() - t0
    by_q = {row["q"]: row for row in rows}
    worst_factor = 0.0
    for q, reference in REFERENCE_UNIFORM.items():
        factor = by_q[q]["standard_scaled"] / reference
        worst_factor = max(worst_factor, factor, 1.0 / factor)
    reductions = {q: by_q[q]["reduction_pct"] for q in range(4, 9)}
    min_reduction = min(reductions.values())
    ok = worst_factor <= 2.0 and min_reduction >= 20.0 and elapsed < 60.0
    line = _verdict(
        1, ok,
        f"uniform-degree errors within x{worst_factor:.3f} of reference "
        f"(limit 2), min direction-adaptation reduction {min_reduction:.1f}% "
        f"for q=4..8 (limit 20%), {elapsed:.1f}s (limit 60s)",
    )
    assert ok, line


def test_criterion_2_second_direction_pass_saturates():
    config = load_config_text("""
[domain]
n = 4
[adaptivity]
protocol = table3
q_min = 3
q_max = 8
passes = 2
[output]
write_vtk = false
""")
    rows, _ = run_table3_protocol(config)
    changes = {}
    for row in rows:
        if row["q"] >= 5:
            first, second = row["errors_rel"][1], row["errors_rel"][2]
            changes[row["q"]] = abs(second - first) / first
    worst = max(changes.values())
    ok = worst < 0.05
    line = _verdict(
        2, ok,
        f"second direction pass changes the error by at most "
        f"{100 * worst:.2f}% for q>=5 (limit 5%)",
    )
    assert ok, line


def _aligned_recovery_error(domain_kind, n, q0, k, direction_index):
    domain = DomainSpec(kind=domain_kind)
    dim = 3 if domain_kind == "unit_cube" else 2
    p = (q0 + 1) ** 2 if dim == 3 else 2 * q0 + 1
    direction = canonical_directions(p, dim)[direction_index]
    problem = ProblemSpec(
        kind="plane_wave", domain=domain, k=k, direction=tuple(direction)
    )
    mesh = build_initial_mesh(domain, n, problem.wavenumber, q0)
    system = assemble_system(mesh, problem)
    report = solve(system)
    abs_err, norm = l2_errors(mesh, system.split(report.coefficients), problem)
    return abs_err / norm


def _refraction_recovery_error():
    problem = ProblemSpec(
        kind="transmission",
        domain=DomainSpec(kind="square2", boundary_partition={"all": "dirichlet"}),
        omega=11.0, index_below=2.0, index_above=1.0, incidence_deg=69.0,
    )
    kx, ky, ktrans, _, _ = problem._transmission_waves
    k_below, k_above = 22.0, 11.0
    mesh = build_initial_mesh(problem.domain, 8, problem.wavenumber, 3)
    for el in mesh.elements.values():
        if el.centroid[1] < 0.0:
            el.directions_override = np.array([
                [kx / k_below, ky / k_below],
                [kx / k_below, -ky / k_below],
            ])
        else:
            el.directions_override = np.array([
                [kx / k_above, float(np.real(ktrans)) / k_above],
            ])
    system = assemble_system(mesh, problem)
    report = solve(system)
    abs_err, norm = l2_errors(mesh, system.split(report.coefficients), problem)
    return abs_err / norm


def test_criterion_3_exact_recovery():
    aligned = {
        "2d single element": _aligned_recovery_error("unit_square", 1, 3, 10.0, 2),
        "2d 4x4": _aligned_recovery_error("unit_square", 4, 3, 10.0, 2),
        "3d single element": _aligned_recovery_error("unit_cube", 1, 2, 6.0, 4),
        "3d 2x2x2": _aligned_recovery_error("unit_cube", 2, 2, 6.0, 4),
    }
    refraction = _refraction_recovery_error()
    worst_aligned = max(aligned.values())
    ok = worst_aligned <= 1e-9 and refraction <= 1e-8
    line = _verdict(
        3, ok,
        f"aligned plane-wave recovery worst {worst_aligned:.1e} (limit 1e-9), "
        f"refraction with injected exact directions {refraction:.1e} (limit 1e-8)",
    )
    assert ok, line


# Relative L2 error (one correct digit) from which a criterion-4 iterate counts
# as resolved and its effectivity as asymptotic.
RESOLVED_ERROR = 0.1


def test_criterion_4_effectivity_stability():
    template = """
[domain]
n = 4
[problem]
kind = hankel_source
k = {k}
[discretization]
q0 = {q}
[adaptivity]
mode = h_only
policy = none
max_iters = 8
stop_on_stagnation = false
[output]
write_vtk = false
"""
    # Effectivity is only asymptotically stable, so each cell's band window
    # opens at its first resolved iteration, not before iteration 2.  With
    # weights h/q on the solution jump and h^3/q^3 on the normal-derivative
    # jump the weighted gradient-to-solution-jump ratio goes like kh/q, so the
    # gradient jump must dominate only before the window, on coarse meshes.
    cells = [(q, k) for q in (3, 4, 5, 6) for k in (20, 40)]
    bands = {}
    starts = {}
    crossovers = {}
    dominance_failures = []
    for q, k in cells:
        records = run_adapt_loop(load_config_text(template.format(q=q, k=k)))
        resolved = next(
            (i for i, r in enumerate(records) if r.rel_l2_error <= RESOLVED_ERROR),
            len(records),
        )
        start = max(2, resolved)
        window = [r.eff_total for r in records[start:9]]
        bands[(q, k)] = max(window) / min(window) if len(window) >= 3 else math.inf
        starts[(q, k)] = start
        crossovers[(q, k)] = next(
            (i for i, r in enumerate(records) if r.eff_jump_u >= r.eff_jump_gradu), None
        )
        if any(r.eff_jump_gradu <= r.eff_jump_u for r in records[:start]):
            dominance_failures.append((q, k))
    band_ok = all(band < 3.0 for band in bands.values())
    dominance_ok = not dominance_failures
    ok = band_ok and dominance_ok
    worst_cell = max(bands, key=bands.get)

    def per_cell(values):
        return " ".join(
            f"q{q}k{k}:{'-' if values[(q, k)] is None else values[(q, k)]}" for q, k in cells
        )

    line = _verdict(
        4, ok,
        f"total-effectivity band from the first iteration >= 2 with error <= {RESOLVED_ERROR} "
        f"to 8 (window start {per_cell(starts)}): worst x{bands[worst_cell]:.2f} "
        f"at q={worst_cell[0]} k={worst_cell[1]} (limit 3, at least 3 iterations), "
        f"gradient-jump dominance before the window violated in "
        f"{len(dominance_failures)}/8 cells, solution jump first leads at iteration "
        f"{per_cell(crossovers)}",
    )
    assert ok, line


def test_criterion_5_hp_beats_h_at_matched_budget():
    template = """
[domain]
n = 8
[problem]
kind = hankel_source
k = 20
[discretization]
q0 = 3
[adaptivity]
mode = {mode}
policy = all
max_iters = {iters}
stop_on_stagnation = false
[output]
write_vtk = false
"""
    t0 = time.perf_counter()
    hp = run_adapt_loop(load_config_text(template.format(mode="hp", iters=8)))
    h = run_adapt_loop(load_config_text(template.format(mode="h_only", iters=3)))
    elapsed = time.perf_counter() - t0
    budget = hp[-1].dofs
    covering = [r for r in h if r.dofs >= budget]
    ratio = covering[0].rel_l2_error / hp[-1].rel_l2_error
    ok = bool(covering) and ratio >= 5.0 and elapsed < 300.0
    line = _verdict(
        5, ok,
        f"at the {budget}-dof budget the h-only error is x{ratio:.1f} the hp "
        f"error (limit >= 5), {elapsed:.1f}s (limit 300s)",
    )
    assert ok, line


def test_criterion_6_corner_singularity_dominates_directions():
    template = """
[domain]
kind = l_shape
n = 8
[problem]
kind = singular_corner
k = 20
[discretization]
q0 = 5
[adaptivity]
mode = h_only
policy = {policy}
max_iters = {iters}
stop_on_stagnation = false
[output]
write_vtk = false
"""
    with_directions = run_adapt_loop(
        load_config_text(template.format(policy="all", iters=5)))
    without = run_adapt_loop(
        load_config_text(template.format(policy="none", iters=5)))
    worst = 0.0
    for a, b in zip(with_directions, without):
        diff = abs(a.rel_l2_error - b.rel_l2_error) / max(
            a.rel_l2_error, b.rel_l2_error)
        worst = max(worst, diff)
    agreement_ok = worst <= 0.25

    config = load_config_text(template.format(policy="none", iters=8))
    mesh = initial_mesh(config)
    predictions = {}
    for _ in range(8):
        system = assemble_system(mesh, config.problem)
        report = solve(system)
        coefficients = system.split(report.coefficients)
        records = indicators(mesh, coefficients, config.problem)
        marks = mark_elements(records, config.adapt.fraction)
        plan = plan_refinement(marks, records, predictions, config.adapt)
        mesh, predictions = decide_and_refine(mesh, plan, records, predictions)
        enforce_degree_compatibility(mesh)
    distances = [float(np.linalg.norm(el.centroid)) for el in mesh.elements.values()]
    near_fraction = sum(1 for d in distances if d <= 0.25) / len(distances)
    concentration_ok = near_fraction >= 0.30
    ok = agreement_ok and concentration_ok
    line = _verdict(
        6, ok,
        f"errors with/without direction adaptation agree within "
        f"{100 * worst:.1f}% at matching iterations (limit 25%), "
        f"{100 * near_fraction:.0f}% of elements within 0.25 of the corner "
        f"after 8 h-steps (limit 30%)",
    )
    assert ok, line


def test_criterion_7_selection_orientation_prediction_rotation():
    failures = []

    # Direction-selection decision table (dominant curvature directions of
    # the real and imaginary parts, gap factor 2).
    x_hat = np.array([1.0, 0.0])
    y_hat = np.array([0.0, 1.0])
    identity = np.eye(2)
    swapped = np.array([[0.0, 1.0], [1.0, 0.0]])
    table = [
        ((10.0, 1.0), (4.0, 1.0), x_hat),
        ((4.0, 1.0), (10.0, 1.0), y_hat),
        ((4.0, 1.0), (5.0, 1.0), (x_hat + y_hat) / math.sqrt(2.0)),
        ((10.0, 1.0), (1.0, 0.9), x_hat),
        ((4.0, 1.0), (3.0, 2.9), None),
        ((1.0, 0.9), (10.0, 1.0), y_hat),
        ((6.0, 5.9), (8.0, 1.0), None),
        ((1.0, 0.9), (1.0, 0.9), None),
    ]
    for i, (lam, mu, expected) in enumerate(table):
        got = potential_direction(np.array(lam), identity, np.array(mu), swapped)
        if expected is None:
            if got is not None:
                failures.append(f"selection row {i}")
        elif got is None or not np.allclose(got, expected, atol=1e-12):
            failures.append(f"selection row {i}")

    # Orientation: a forward wave keeps the proposed axis, a backward probe
    # axis is flipped, independent of the wave amplitude.
    domain = DomainSpec(kind="unit_square")
    problem = ProblemSpec(kind="plane_wave", domain=domain, k=12.0,
                          direction=(1.0, 0.0))
    mesh = build_initial_mesh(domain, 1, problem.wavenumber, 3)
    element = mesh.elements[0]
    axis = canonical_directions(7, 2)[0]
    for amplitude in (1.0, 3.0, 0.2):
        coeffs = np.zeros(7, dtype=complex)
        coeffs[0] = amplitude
        kept = orient_direction(coeffs, element, axis)
        flipped = orient_direction(coeffs, element, -axis)
        if not np.allclose(kept, axis, atol=1e-12):
            failures.append(f"orientation keep amplitude {amplitude}")
        if not np.allclose(flipped, axis, atol=1e-12):
            failures.append(f"orientation flip amplitude {amplitude}")

    # Refinement bookkeeping: infinite initial forecasts send the first
    # refinement to p, and the prediction formulas hold to 1e-14.
    def fresh_records(mesh_, eta=1.0):
        return [
            IndicatorRecord(element=eid, eta=eta, jump_u=0.0, jump_gradu=0.0,
                            robin=0.0, dirichlet=0.0)
            for eid in sorted(mesh_.elements)
        ]

    mesh_p = build_initial_mesh(domain, 2, problem.wavenumber, 3)
    records = fresh_records(mesh_p)
    h_set, p_set = plan_refinement({0, 1}, records, {}, AdaptConfig())
    if h_set or p_set != {0, 1}:
        failures.append("first refinement not p")
    plan = plan_refinement({0}, records, {}, AdaptConfig())
    _, predictions = decide_and_refine(mesh_p, plan, records, {})
    if abs(predictions[0] - math.sqrt(0.4)) > 1e-14:
        failures.append("p prediction")
    mesh_h = build_initial_mesh(domain, 2, problem.wavenumber, 4)
    records = fresh_records(mesh_h, eta=1.0)
    forecasts = dict.fromkeys(mesh_h.elements, 0.5)
    plan = plan_refinement({0}, records, forecasts, AdaptConfig())
    new_mesh, predictions = decide_and_refine(mesh_h, plan, records, forecasts)
    for child in new_mesh.last_refined[0]:
        if abs(predictions[child] - 0.0625) > 1e-14:
            failures.append("h prediction")
            break

    # Rotation frames for 10^4 random axis directions stay orthonormal and
    # map the reference pole onto the requested direction.
    rng = np.random.default_rng(20260823)
    raw = rng.normal(size=(10_000, 3))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    pole = np.array([0.0, 0.0, 1.0])
    worst_orth = 0.0
    worst_map = 0.0
    for direction in raw:
        matrix = frame_from_direction(direction)
        worst_orth = max(worst_orth, float(np.max(np.abs(matrix.T @ matrix - np.eye(3)))))
        worst_map = max(worst_map, float(np.max(np.abs(matrix @ pole - direction))))
    if worst_orth > 1e-12 or worst_map > 1e-12:
        failures.append("rotation frames")

    ok = not failures
    line = _verdict(
        7, ok,
        "selection table (8 rows), orientation keep/flip, refinement "
        "prediction formulas to 1e-14, and 1e4 rotation frames all exact"
        if ok else f"failed: {', '.join(failures)}",
    )
    assert ok, line


def test_criterion_8_quadrature_special_function_and_trefftz_oracles():
    failures = []

    # Facet quadrature against the closed-form oscillatory integral
    # int_0^1 exp(2ikx) dx for k = 5, 20, 40.
    domain = DomainSpec(kind="unit_square")
    problem = ProblemSpec(kind="plane_wave", domain=domain, k=10.0,
                          direction=(1.0, 0.0))
    mesh = build_initial_mesh(domain, 1, problem.wavenumber, 3)
    facets = mesh.facets()
    (bottom,) = np.flatnonzero((facets.side_b < 0) & (facets.axis == 1) & (facets.lo[:, 1] == 0.0))
    for k in (5.0, 20.0, 40.0):
        rule = facet_rule(facets.lo[bottom], facets.hi[bottom], 1, k, 9)
        numeric = np.sum(rule.weights * np.exp(2j * k * rule.points[:, 0]))
        exact = (np.exp(2j * k) - 1.0) / (2j * k)
        if abs(numeric - exact) > 1e-12:
            failures.append(f"quadrature k={k:g}")

    # Special functions against frozen extended-precision reference values.
    frozen = [
        (bessel_j(0, 0.5), 0.9384698072408129),
        (bessel_j(2.0 / 3.0, 1.0), 0.5979499736736285),
        (bessel_j(1, 3.7), 0.05383398774546186),
        (hankel1(0, 1.0).imag, 0.08825696421567696),
        (hankel1(1, 2.5).imag, 0.1459181379667858),
        (hankel1(0, 5.0), -0.1775967713143383 - 0.3085176252490338j),
        (hankel1(1, 5.0), -0.3275791375914652 + 0.1478631433912268j),
    ]
    for got, reference in frozen:
        if abs(complex(got) - complex(reference)) > 1e-12:
            failures.append("special functions")
            break

    # Basis functions satisfy the Helmholtz equation pointwise.
    rng = np.random.default_rng(7)
    for kind, q in (("unit_square", 4), ("unit_cube", 3)):
        dom = DomainSpec(kind=kind)
        dim = 3 if kind == "unit_cube" else 2
        prob = ProblemSpec(kind="plane_wave", domain=dom, k=20.0,
                           direction=tuple([1.0] * dim))
        m = build_initial_mesh(dom, 1, prob.wavenumber, q)
        el = m.elements[0]
        pts = rng.uniform(0.05, 0.95, size=(6, dim))
        values, _, hessians = eval_basis(el, pts, order=2)
        residual = np.einsum("mpdd->mp", hessians) + el.k**2 * values
        if np.max(np.abs(residual)) > 1e-8:
            failures.append(f"basis Trefftz {kind}")

    # Exact solutions satisfy the Helmholtz equation: extended-precision
    # finite-difference Laplacian against k^2 u.
    import mpmath as mp

    mp.mp.dps = 40
    step = mp.mpf("1e-9")

    def lap(f, x, y):
        x, y = mp.mpf(repr(x)), mp.mpf(repr(y))
        return (f(x + step, y) + f(x - step, y) + f(x, y + step)
                + f(x, y - step) - 4 * f(x, y)) / step**2

    def residual(f, x, y, k):
        u = f(mp.mpf(repr(x)), mp.mpf(repr(y)))
        return abs(lap(f, x, y) + k**2 * u) / (k**2 * abs(u))

    k20 = mp.mpf(20)

    def hankel_field(x, y):
        return mp.hankel1(0, k20 * mp.sqrt((x + mp.mpf("0.25"))**2 + y**2))

    def corner_field(x, y):
        theta = mp.atan2(y, x)
        if theta < 0:
            theta += 2 * mp.pi
        return mp.besselj(mp.mpf(2) / 3, k20 * mp.sqrt(x**2 + y**2)) \
            * mp.sin(2 * theta / 3)

    theta_i = 69 * mp.pi / 180
    k1, k2 = mp.mpf(22), mp.mpf(11)
    kx = k1 * mp.cos(theta_i)
    ky = k1 * mp.sin(theta_i)
    k_trans = mp.sqrt(k2**2 - kx**2)
    refl = (ky - k_trans) / (ky + k_trans)

    def below_field(x, y):
        return mp.exp(1j * (kx * x + ky * y)) + refl * mp.exp(1j * (kx * x - ky * y))

    def above_field(x, y):
        return (1 + refl) * mp.exp(1j * (kx * x + k_trans * y))

    checks = [
        (hankel_field, 0.3, 0.7, k20),
        (corner_field, -0.3, 0.4, k20),
        (below_field, 0.4, -0.3, k1),
        (above_field, 0.25, 0.6, k2),
    ]
    worst_pde = 0.0
    for f, x, y, k in checks:
        worst_pde = max(worst_pde, float(residual(f, x, y, k)))
    if worst_pde > 1e-8:
        failures.append("exact-solution Trefftz")

    ok = not failures
    line = _verdict(
        8, ok,
        f"oscillatory quadrature <=1e-12, special functions <=1e-12, basis "
        f"Helmholtz residual <=1e-8, exact-solution residual {worst_pde:.1e} "
        f"(limit 1e-8)"
        if ok else f"failed: {', '.join(failures)}",
    )
    assert ok, line


def test_criterion_9_byte_identical_outputs_across_runs_and_threads(tmp_path):
    # convergence.csv bytes depend on the BLAS thread count, so runs with the
    # thread variables unset match the pinned run only if the CLI pins them.
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    outs = [tmp_path / f"run{i}" for i in range(3)]
    for out, pinned in zip(outs, (False, False, True)):
        env = {name: value for name, value in os.environ.items() if name not in blas_vars}
        if pinned:
            env.update(dict.fromkeys(blas_vars, "1"))
        result = subprocess.run(
            [sys.executable, "-m", "tdg.cli", "run",
             "--preset", "ex1_hankel_hp_k20", "--max-iters", "2",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
    payloads = [(out / "convergence.csv").read_bytes() for out in outs]
    ok = payloads[0] == payloads[1] == payloads[2]
    line = _verdict(
        9, ok,
        f"three runs (two with the BLAS thread variables unset, one with them "
        f"set to 1) produced byte-identical convergence.csv ({len(payloads[0])} bytes)",
    )
    assert ok, line
