"""Fixed-fraction marking, h/p decisions, predictions, degree compatibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdg.estimator import IndicatorRecord
from tdg.hp_adapt import (
    MODES,
    AdaptConfig,
    decide_and_refine,
    enforce_degree_compatibility,
    mark_elements,
    plan_refinement,
)
from tdg.mesh import DomainSpec, build_initial_mesh, refine_elements


def _record(eid, eta):
    return IndicatorRecord(element=eid, eta=eta, jump_u=0.0, jump_gradu=0.0,
                           robin=0.0, dirichlet=0.0)


def _constant_k(k):
    """Map from points (m, d) to the wavenumber k at each, (m,)."""
    return lambda points: np.full(len(points), float(k))


def _mesh(n=2, q0=3, kind="unit_square"):
    return build_initial_mesh(DomainSpec(kind=kind), n, _constant_k(20.0), q0)


def _neighbours(mesh):
    """The (side_a, side_b) element pairs of the interior facets."""
    facets = mesh.facets()
    interior = facets.side_b >= 0
    return [(mesh.elements[a], mesh.elements[b]) for a, b in
            zip(facets.side_a[interior].tolist(), facets.side_b[interior].tolist())]


def test_adapt_config_defaults_and_validation():
    config = AdaptConfig()
    assert (config.mode, config.fraction) == ("hp", 0.25)
    assert (config.gamma_h, config.gamma_p, config.gamma_n) == (4.0, 0.4, 1.0)
    assert MODES == ("hp", "h_only")
    with pytest.raises(ValueError):
        AdaptConfig(mode="p_only")
    with pytest.raises(ValueError):
        AdaptConfig(fraction=0.0)
    with pytest.raises(ValueError):
        AdaptConfig(fraction=1.1)


def test_mark_elements_fraction_and_ties():
    records = [_record(i, eta) for i, eta in enumerate([0.5, 2.0, 1.0, 2.0, 0.1])]
    # ceil(0.25 * 5) = 2; the tied indicators resolve by ascending id.
    assert mark_elements(records, 0.25) == {1, 3}
    assert mark_elements(records, 0.5) == {1, 2, 3}
    assert mark_elements(records, 1.0) == {0, 1, 2, 3, 4}


def test_mark_elements_all_equal_prefers_low_ids():
    records = [_record(i, 1.0) for i in range(8)]
    assert mark_elements(records, 0.25) == {0, 1}


def test_plan_first_refinement_is_p():
    config = AdaptConfig()
    records = [_record(0, 1.0), _record(1, 2.0)]
    # No forecast yet: a missing id counts as an infinite forecast.
    h_set, p_set = plan_refinement({0, 1}, records, {}, config)
    assert h_set == set()
    assert p_set == {0, 1}


def test_plan_prediction_test_is_strict():
    config = AdaptConfig()
    records = [_record(0, 1.0), _record(1, 1.0), _record(2, 1.0)]
    predictions = {
        0: 0.5,   # exceeded the forecast: h
        1: 1.0,   # met it exactly: p
        2: 2.0,   # beat it: p
    }
    h_set, p_set = plan_refinement({0, 1, 2}, records, predictions, config)
    assert h_set == {0}
    assert p_set == {1, 2}


def test_plan_h_only_folds_p_into_h():
    config = AdaptConfig(mode="h_only")
    records = [_record(0, 1.0), _record(1, 3.0)]
    h_set, p_set = plan_refinement({0, 1}, records, {1: 0.1}, config)
    assert h_set == {0, 1}
    assert p_set == set()


def test_decide_p_refinement_bookkeeping():
    mesh = _mesh(n=2, q0=3)
    records = [_record(eid, 1.0 if eid == 0 else 0.25) for eid in mesh.elements]
    config = AdaptConfig(fraction=0.25)
    plan = plan_refinement({0}, records, {}, config)
    new_mesh, predictions = decide_and_refine(mesh, plan, records, {}, config)
    assert len(new_mesh.elements) == 4
    assert new_mesh.elements[0].degree == 4
    assert all(new_mesh.elements[e].degree == 3 for e in (1, 2, 3))
    # Enriched element: gamma_p eta^2; untouched elements keep gamma_n pred^2.
    assert predictions[0] == pytest.approx(math.sqrt(0.4), abs=1e-14)
    assert all(math.isinf(predictions[e]) for e in (1, 2, 3))


def test_decide_h_refinement_prediction_arithmetic():
    mesh = _mesh(n=2, q0=4)
    records = [_record(eid, 1.0 if eid == 0 else 0.25) for eid in mesh.elements]
    config = AdaptConfig(fraction=0.25)
    plan = plan_refinement({0}, records, {0: 0.5}, config)
    new_mesh, predictions = decide_and_refine(mesh, plan, records, {0: 0.5}, config)
    children = new_mesh.last_refined[0]
    assert len(children) == 4
    for cid in children:
        assert new_mesh.elements[cid].degree == 4
        # (1/4) * gamma_h * (1/2)^(2q) * eta^2 = 3.90625e-3 at q = 4.
        assert predictions[cid] ** 2 == pytest.approx(3.90625e-3, abs=1e-14)
        assert predictions[cid] == pytest.approx(0.0625, abs=1e-14)
    assert 0 not in predictions


def test_decide_unmarked_prediction_decay():
    mesh = _mesh(n=2, q0=3)
    records = [_record(0, 1.0), _record(1, 0.1), _record(2, 0.1), _record(3, 0.1)]
    forecasts = {0: 0.5, 1: 0.8, 3: 0.2}  # 2 has none: infinite
    config = AdaptConfig(fraction=0.25, gamma_n=0.25)
    plan = plan_refinement({0}, records, forecasts, config)
    _, predictions = decide_and_refine(mesh, plan, records, forecasts, config)
    assert predictions[1] == pytest.approx(0.5 * 0.8, abs=1e-14)
    assert math.isinf(predictions[2])
    assert predictions[3] == pytest.approx(0.5 * 0.2, abs=1e-14)


def test_decide_closure_children_use_parent_indicator():
    # Refine once, then mark a level-1 element whose split forces a
    # level-0 neighbour to split by closure: the closure children's
    # prediction must be built from that neighbour's own indicator.
    mesh = _mesh(n=2, q0=3)
    mesh = refine_elements(mesh, [0])
    inner = next(
        eid for eid, el in mesh.elements.items()
        if el.level == 1 and np.allclose(el.lo, 0.25)
    )
    records = [_record(eid, 1.0 if eid == inner else 0.5) for eid in sorted(mesh.elements)]
    forecasts = dict.fromkeys(mesh.elements, 0.001)
    config = AdaptConfig(fraction=0.05)
    plan = plan_refinement({inner}, records, forecasts, config)
    new_mesh, predictions = decide_and_refine(mesh, plan, records, forecasts, config)
    assert inner in new_mesh.last_refined
    closure_parents = [p for p in new_mesh.last_refined if p != inner]
    assert closure_parents
    for parent in closure_parents:
        expected = math.sqrt(0.25 * 4.0 * 0.5 ** 6 * 0.5 ** 2)
        for cid in new_mesh.last_refined[parent]:
            assert predictions[cid] == pytest.approx(expected, abs=1e-14)


def test_decide_p_bump_before_closure_split():
    # An element p-enriched in this step but split by closure hands the
    # raised degree to its children and uses it in their prediction.
    mesh = _mesh(n=2, q0=3)
    mesh = refine_elements(mesh, [0])
    inner = next(
        eid for eid, el in mesh.elements.items()
        if el.level == 1 and np.allclose(el.lo, 0.25)
    )
    neighbours = [
        eid for eid, el in mesh.elements.items()
        if el.level == 0 and eid != inner
    ]
    records = []
    for eid in sorted(mesh.elements):
        if eid == inner:
            records.append(_record(eid, 1.0))  # h-refine: forecast 0.001
        elif eid in neighbours:
            records.append(_record(eid, 0.9))  # p-refine: no forecast
        else:
            records.append(_record(eid, 0.0))
    forecasts = {inner: 0.001}
    config = AdaptConfig(fraction=0.9)
    marks = {inner, *neighbours}
    plan = plan_refinement(marks, records, forecasts, config)
    new_mesh, predictions = decide_and_refine(mesh, plan, records, forecasts, config)
    split_neighbours = [p for p in new_mesh.last_refined if p in neighbours]
    assert split_neighbours
    for parent in split_neighbours:
        for cid in new_mesh.last_refined[parent]:
            assert new_mesh.elements[cid].degree == 4
            expected = math.sqrt(0.25 * 4.0 * 0.5 ** 8 * 0.9 ** 2)
            assert predictions[cid] == pytest.approx(expected, abs=1e-14)


def test_decide_copies_the_mesh_once(monkeypatch):
    # One element split and one enriched on the 48-element L-shape: 48
    # copies plus 4 children, not a second copy of all 48.
    from tdg.mesh import Element

    mesh = build_initial_mesh(DomainSpec(kind="l_shape"), 8, _constant_k(20.0), 3)
    assert len(mesh.elements) == 48
    records = [_record(eid, 1.0) for eid in mesh.elements]
    built = []
    post_init = Element.__post_init__

    def counting(self):
        built.append(self.id)
        post_init(self)

    monkeypatch.setattr(Element, "__post_init__", counting)
    plan = plan_refinement({0, 1}, records, {0: 0.5}, AdaptConfig())
    new_mesh, _ = decide_and_refine(mesh, plan, records, {0: 0.5}, AdaptConfig())
    assert len(built) == 52
    assert list(new_mesh.last_refined) == [0]
    assert new_mesh.elements[1].degree == 4
    assert mesh.elements[1].degree == 3


def test_h_only_never_changes_degrees():
    mesh = _mesh(n=2, q0=3)
    records = [_record(eid, float(eid + 1)) for eid in mesh.elements]
    forecasts = dict.fromkeys(mesh.elements, 0.01)
    config = AdaptConfig(mode="h_only", fraction=1.0)
    plan = plan_refinement(set(mesh.elements), records, forecasts, config)
    new_mesh, _ = decide_and_refine(mesh, plan, records, forecasts, config)
    assert all(el.degree == 3 for el in new_mesh.elements.values())
    assert len(new_mesh.elements) == 16


def test_enforce_degree_compatibility_chain():
    mesh = _mesh(n=3, q0=3)
    column = {}
    for eid, el in mesh.elements.items():
        if el.centroid[0] < 1.0 / 3.0:
            column[round(el.centroid[1] * 3.0 - 0.5)] = eid
    mesh.elements[column[0]].degree = 2
    mesh.elements[column[1]].degree = 2
    mesh.elements[column[2]].degree = 5
    enforce_degree_compatibility(mesh)
    degrees = [mesh.elements[column[i]].degree for i in range(3)]
    assert degrees == [3, 4, 5]
    assert all(abs(el_a.degree - el_b.degree) <= 1 for el_a, el_b in _neighbours(mesh))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_enforce_degree_compatibility_3d_hanging(seed):
    rng = np.random.default_rng(seed)
    mesh = refine_elements(_mesh(n=2, kind="unit_cube"), [0, 5])
    mesh = refine_elements(mesh, [mesh.element_ids()[3]])
    assert any(el_a.level != el_b.level for el_a, el_b in _neighbours(mesh))
    before = {eid: int(rng.integers(1, 7)) for eid in mesh.elements}
    for eid, el in mesh.elements.items():
        el.degree = before[eid]
    enforce_degree_compatibility(mesh)
    after = {eid: el.degree for eid, el in mesh.elements.items()}
    pairs = _neighbours(mesh)
    assert all(abs(el_a.degree - el_b.degree) <= 1 for el_a, el_b in pairs)
    assert all(after[eid] >= before[eid] for eid in before)
    raised = {eid for eid in before if after[eid] > before[eid]}
    assert raised
    for eid in raised:
        across = [b if a.id == eid else a for a, b in pairs if eid in (a.id, b.id)]
        assert any(after[eid] == el.degree - 1 for el in across)


def test_enforce_degree_compatibility_noop():
    mesh = _mesh(n=2, q0=3)
    before = {eid: el.degree for eid, el in mesh.elements.items()}
    result = enforce_degree_compatibility(mesh)
    assert result is mesh
    assert {eid: el.degree for eid, el in mesh.elements.items()} == before


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=7, max_size=7),
       st.sampled_from(["hp", "h_only"]))
def test_adapt_step_preserves_invariants(etas, mode):
    mesh = refine_elements(_mesh(n=2, q0=3), [0])
    ids = sorted(mesh.elements)
    records = [_record(eid, eta) for eid, eta in zip(ids, etas)]
    forecasts = dict.fromkeys(ids, 0.5)
    config = AdaptConfig(mode=mode, fraction=0.25)
    marks = mark_elements(records, config.fraction)
    assert len(marks) == 2
    plan = plan_refinement(marks, records, forecasts, config)
    new_mesh, predictions = decide_and_refine(mesh, plan, records, forecasts, config)
    enforce_degree_compatibility(new_mesh)
    assert set(predictions) == set(new_mesh.elements)
    assert all(v >= 0.0 for v in predictions.values())
    total = sum(float(np.prod(el.hi - el.lo)) for el in new_mesh.elements.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    for el_a, el_b in _neighbours(new_mesh):
        assert abs(el_a.degree - el_b.degree) <= 1
        assert abs(el_a.level - el_b.level) <= 1
