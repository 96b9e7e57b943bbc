"""Gauss-Legendre rules against closed-form polynomial and oscillatory integrals."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdg.basis import element_directions, eval_basis, frame_from_direction
from tdg.mesh import (
    DIRICHLET,
    ROBIN,
    DomainSpec,
    build_initial_mesh,
    refine_elements,
)
from tdg.quadrature import (
    BATCH_VALUES,
    _gauss_nodes,
    box_gram,
    facet_rule,
    grid_points,
    points_per_direction,
    skeleton_batches,
    volume_rule,
)


def _constant_k(k):
    """Map from points (m, d) to the wavenumber k at each, (m,)."""
    return lambda points: np.full(len(points), float(k))


def _mesh(n=1, k=10.0, q0=3, kind="unit_square", boundary=None):
    domain = DomainSpec(kind=kind, boundary_partition=boundary or {"all": ROBIN})
    return build_initial_mesh(domain, n, _constant_k(k), q0)


def _measure(facets, f):
    """Area of facet f: the product of its tangential extents."""
    return float(np.prod(np.delete(facets.hi[f] - facets.lo[f], facets.axis[f])))


def _interior(facets):
    return np.flatnonzero(facets.side_b >= 0).tolist()


def _hanging(mesh):
    """Whether some interior facet joins elements of different levels."""
    facets = mesh.facets()
    return any(mesh.elements[facets.side_a[f]].level != mesh.elements[facets.side_b[f]].level
               for f in _interior(facets))


def test_gauss_weights_sum_to_interval():
    for n in range(1, 40):
        _, weights = _gauss_nodes(n)
        assert weights.sum() == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 5, 12, 25])
def test_gauss_polynomial_exactness(n):
    # An n-point rule integrates monomials up to degree 2n - 1 exactly.
    nodes, weights = _gauss_nodes(n)
    for degree in range(2 * n):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        approx = np.sum(weights * nodes**degree)
        assert approx == pytest.approx(exact, abs=1e-13)


def test_gauss_rules_are_exactly_symmetric():
    for n in range(1, 45):
        nodes, weights = _gauss_nodes(n)
        assert np.all(np.diff(nodes) > 0.0)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])


def test_gauss_rejects_empty_rule():
    with pytest.raises(ValueError):
        _gauss_nodes(0)


def test_point_count_grows_with_wavenumber_and_degree():
    base = points_per_direction(3, 10.0, 1.0)
    assert points_per_direction(9, 10.0, 1.0) > base
    assert points_per_direction(3, 60.0, 1.0) > base
    assert points_per_direction(3, 10.0, 0.25) < base


@pytest.mark.parametrize("k", [5.0, 20.0, 40.0])
def test_facet_rule_oscillatory_closed_form(k):
    # One element on (0,1)^2; bottom facet carries exp(i 2k x) whose
    # integral over [0,1] is (exp(2ik) - 1) / (2ik).
    mesh = _mesh(k=k, q0=4)
    facets = mesh.facets()
    (bottom,) = np.flatnonzero((facets.side_b < 0) & (facets.axis == 1) & (facets.lo[:, 1] == 0.0))
    rule = facet_rule(facets.lo[bottom], facets.hi[bottom], 1, 2.0 * k, 4)
    integrand = np.exp(2j * k * rule.points[:, 0])
    approx = np.sum(rule.weights * integrand)
    exact = (np.exp(2j * k) - 1.0) / (2j * k)
    assert abs(approx - exact) <= 1e-12


@pytest.mark.parametrize("k", [5.0, 20.0])
def test_volume_rule_oscillatory_closed_form_2d(k):
    mesh = _mesh(k=k, q0=4)
    (element,) = mesh.elements.values()
    rule = volume_rule(element)
    # Integrand exp(i k (x + 2 y)) factors into two 1D closed forms.
    integrand = np.exp(1j * k * (rule.points[:, 0] + 2.0 * rule.points[:, 1]))
    approx = np.sum(rule.weights * integrand)
    exact = ((np.exp(1j * k) - 1.0) / (1j * k)) * ((np.exp(2j * k) - 1.0) / (2j * k))
    assert abs(approx - exact) <= 1e-12


def test_volume_rule_oscillatory_closed_form_3d():
    k = 12.0
    mesh = _mesh(k=k, q0=2, kind="unit_cube")
    (element,) = mesh.elements.values()
    rule = volume_rule(element)
    integrand = np.exp(1j * k * rule.points.sum(axis=1))
    approx = np.sum(rule.weights * integrand)
    exact = ((np.exp(1j * k) - 1.0) / (1j * k)) ** 3
    assert abs(approx - exact) <= 1e-12


def test_volume_rule_measures_element():
    mesh = _mesh(n=4, k=20.0)
    for element in mesh.elements.values():
        rule = volume_rule(element)
        assert rule.weights.sum() == pytest.approx(0.0625, abs=1e-14)


def test_facet_rule_doubling_consistency():
    # Doubling the requested degree must not change a converged integral.
    k = 30.0
    mesh = _mesh(k=k, q0=3)
    facets = mesh.facets()
    f = np.flatnonzero(facets.axis == 0)[0]
    coarse = facet_rule(facets.lo[f], facets.hi[f], 0, k, 3)
    fine = facet_rule(facets.lo[f], facets.hi[f], 0, 2.0 * k, 12)
    integrand = lambda pts: np.exp(1j * k * (0.8 * pts[:, 0] + 0.6 * pts[:, 1]))
    a = np.sum(coarse.weights * integrand(coarse.points))
    b = np.sum(fine.weights * integrand(fine.points))
    assert abs(a - b) <= 1e-10


def test_facet_rule_sits_on_facet_plane():
    mesh = _mesh(n=2, k=10.0)
    facets = mesh.facets()
    for f, axis in enumerate(facets.axis.tolist()):
        rule = facet_rule(facets.lo[f], facets.hi[f], axis, 10.0, 3)
        assert_allclose(rule.points[:, axis], facets.lo[f, axis], atol=0.0)
        assert rule.weights.sum() == pytest.approx(_measure(facets, f), abs=1e-14)


# Reference: the per-facet meshgrid construction the batched rules replaced.
def _meshgrid_tensor(axes_1d):
    grids = np.meshgrid(*[a for a, _ in axes_1d], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*[w for _, w in axes_1d], indexing="ij")
    w = np.ones(pts.shape[0])
    for wg in wgrids:
        w = w * wg.ravel()
    return pts, w


def _axis_rule(lo, hi, ax, x, w):
    mid = 0.5 * (lo[ax] + hi[ax])
    half = 0.5 * (hi[ax] - lo[ax])
    return mid + half * x, half * w


def _reference_facet_rule(lo, hi, axis, k_max, q_max):
    x, w = _gauss_nodes(points_per_direction(q_max, k_max, float(np.linalg.norm(hi - lo))))
    dim = lo.shape[0]
    tangential = [ax for ax in range(dim) if ax != axis]
    pts_t, wts = _meshgrid_tensor(
        [_axis_rule(lo, hi, ax, x, w) for ax in tangential]
    )
    pts = np.empty((pts_t.shape[0], dim))
    pts[:, axis] = lo[axis]
    pts[:, tangential] = pts_t
    return pts, wts


def _reference_volume_rule(element):
    x, w = _gauss_nodes(points_per_direction(element.degree, element.k, element.h))
    return _meshgrid_tensor(
        [_axis_rule(element.lo, element.hi, ax, x, w) for ax in range(element.dim)]
    )


def _hp_mesh(kind, n, marked, boundary=None):
    mesh = refine_elements(_mesh(n=n, k=17.0, q0=2, kind=kind, boundary=boundary), marked)
    for eid, el in mesh.elements.items():
        el.degree = 2 + eid % 3
    return mesh


@pytest.mark.parametrize(
    "kind, n, marked", [("unit_square", 4, [0, 5, 6]), ("unit_cube", 2, [0, 3])]
)
def test_batched_facet_rules_equal_meshgrid_reference(kind, n, marked):
    mesh = _hp_mesh(kind, n, marked)
    facets = mesh.facets()
    levels = {(mesh.elements[facets.side_a[f]].level, mesh.elements[facets.side_b[f]].level)
              for f in _interior(facets)}
    assert (1, 0) in levels  # hanging facets: finer side_a, coarser side_b
    assert np.any(facets.side_b < 0)
    rows = _rows_by_box(facets)
    seen = []
    for batch in skeleton_batches(mesh):
        points, weights = grid_points(batch.grid_axes()), batch.weights()
        for j, f in enumerate(_batch_rows(rows, batch)):
            seen.append(f)
            lo, hi, axis, side_b = facets.lo[f], facets.hi[f], facets.axis[f], facets.side_b[f]
            assert batch.axis == axis
            assert np.array_equal(batch.normal[j], facets.normal[f])
            assert batch.side_b[j] == side_b
            assert batch.tag == facets.tag[f]
            el_a = mesh.elements[facets.side_a[f]]
            sides = [el_a] if side_b < 0 else [el_a, mesh.elements[side_b]]
            k_max = max(el.k for el in sides)
            q_max = max(el.degree for el in sides)
            pts, wts = _reference_facet_rule(lo, hi, axis, k_max, q_max)
            assert np.array_equal(points[j], pts)
            assert np.array_equal(weights[j], wts)
            single = facet_rule(lo, hi, axis, k_max, q_max)
            assert np.array_equal(single.points, pts)
            assert np.array_equal(single.weights, wts)
    assert sorted(seen) == list(range(len(facets)))


def _rows_by_box(facets):
    """Skeleton row of each facet, keyed by (side_a, lo, hi)."""
    keys = zip(facets.side_a.tolist(), map(tuple, facets.lo.tolist()),
               map(tuple, facets.hi.tolist()))
    return {key: f for f, key in enumerate(keys)}


def _batch_rows(rows, batch):
    keys = zip(batch.side_a.tolist(), map(tuple, batch.lo.tolist()), map(tuple, batch.hi.tolist()))
    return [rows[key] for key in keys]


def _reference_batches(mesh):
    """(key, skeleton rows) per batch, by a dict over the facets and sorted keys."""
    facets = mesh.facets()
    groups = {}
    for f in range(len(facets)):
        axis, side_b = int(facets.axis[f]), int(facets.side_b[f])
        el_a = mesh.elements[facets.side_a[f]]
        sides = [el_a] if side_b < 0 else [el_a, mesh.elements[side_b]]
        n = points_per_direction(max(el.degree for el in sides), max(el.k for el in sides),
                                 float(np.linalg.norm(facets.hi[f] - facets.lo[f])))
        sign = int(facets.normal[f, axis]) if side_b < 0 else 0
        p_b = 0 if side_b < 0 else sides[1].n_waves
        key = (str(facets.tag[f]), n, axis, sign, el_a.n_waves, p_b)
        groups.setdefault(key, []).append(f)
    batches = []
    for key in sorted(groups):
        _, n, _, _, p_a, p_b = key
        size = max(1, BATCH_VALUES // (n ** (mesh.dim - 1) * (p_a + p_b)))
        members = groups[key]
        batches.extend((key, members[start:start + size])
                       for start in range(0, len(members), size))
    return batches


@pytest.mark.parametrize("kind, n, marked, boundary, cut", [
    ("unit_square", 4, [0, 5, 6], {"all": ROBIN, "xmin": DIRICHLET, "ymax": DIRICHLET}, False),
    ("unit_cube", 2, [0, 3], {"all": ROBIN, "zmin": DIRICHLET}, True),
], ids=["square", "cube"])
def test_skeleton_batches_keep_the_sorted_dict_grouping(kind, n, marked, boundary, cut):
    # The estimator's np.add.at sums follow this order, so it fixes their bits.
    # 2D groups are far narrower than BATCH_VALUES; the 3D case cuts some.
    mesh = _hp_mesh(kind, n, marked, boundary)
    facets = mesh.facets()
    assert _hanging(mesh)
    assert set(facets.tag.tolist()) == {"", ROBIN, DIRICHLET}
    assert len({mesh.elements[eid].degree for eid in mesh.elements}) == 3
    rows = _rows_by_box(facets)
    got = []
    for batch in skeleton_batches(mesh):
        members = _batch_rows(rows, batch)
        sign = int(batch.normal[0, batch.axis]) if batch.is_boundary else 0
        key = (batch.tag, batch.n, batch.axis, sign, batch.p_a, batch.p_b)
        got.append((key, members))
        for column in ("side_a", "side_b", "normal", "lo", "hi"):
            assert np.array_equal(getattr(batch, column), getattr(facets, column)[members])
    want = _reference_batches(mesh)
    assert got == want
    keys = [key for key, _ in want]
    assert (len(keys) > len(set(keys))) == cut


@pytest.mark.parametrize("kind", ["unit_square", "unit_cube"])
def test_volume_rule_equals_meshgrid_reference(kind):
    mesh = _hp_mesh(kind, 2, [1])
    for element in mesh.elements.values():
        rule = volume_rule(element)
        assert "points" not in vars(rule)  # built on first access only
        pts, wts = _reference_volume_rule(element)
        assert np.array_equal(rule.points, pts)
        assert np.array_equal(rule.weights, wts)
        grids = np.meshgrid(*[nodes[0] for nodes in rule.axes], indexing="ij")
        assert np.array_equal(np.stack([g.ravel() for g in grids], axis=1), rule.points)


# --- closed-form Gram blocks against a 40-point-per-axis Gauss reference ---

def _gauss_gram(lo, hi, el_t, el_r, n=40):
    """sum_m w_m conj(phi_t(x_m)) phi_r(x_m) over a box, zero-extent axes fixed."""
    x, w = _gauss_nodes(n)
    axes = [_axis_rule(lo, hi, ax, x, w) for ax in range(lo.shape[0]) if hi[ax] > lo[ax]]
    pts_t, wts = _meshgrid_tensor(axes)
    pts = np.tile(lo, (len(wts), 1))
    pts[:, hi > lo] = pts_t
    return eval_basis(el_t, pts).conj().T @ (wts[:, None] * eval_basis(el_r, pts))


def _closed_gram(lo, hi, el_t, el_r):
    kd_t, kd_r = (el.k * element_directions(el)[None] for el in (el_t, el_r))
    return box_gram(lo[None], hi[None], kd_t, el_t.centroid[None], kd_r, el_r.centroid[None])[0]


def _assert_skeleton_grams(mesh):
    """All four side-pair blocks of every interior facet, to 1e-13 of its measure."""
    checked = 0
    facets = mesh.facets()
    for f in _interior(facets):
        sides = (mesh.elements[facets.side_a[f]], mesh.elements[facets.side_b[f]])
        for el_t in sides:
            for el_r in sides:
                got = _closed_gram(facets.lo[f], facets.hi[f], el_t, el_r)
                want = _gauss_gram(facets.lo[f], facets.hi[f], el_t, el_r)
                assert np.max(np.abs(got - want)) <= 1e-13 * _measure(facets, f)
                checked += 1
    return checked


@pytest.mark.parametrize("kind, n, marked", [("unit_square", 4, [0, 5]), ("unit_cube", 2, [0])])
def test_box_gram_on_conforming_and_hanging_facets(kind, n, marked):
    mesh = _hp_mesh(kind, n, marked)
    assert _hanging(mesh)  # hanging coarse/fine pairs
    assert _assert_skeleton_grams(mesh) == 4 * len(_interior(mesh.facets()))


@pytest.mark.parametrize("kind", ["unit_square", "unit_cube"])
def test_box_gram_rotated_frames_and_override(kind):
    mesh = _hp_mesh(kind, 2, [0])
    dim = mesh.dim
    rng = np.random.default_rng(7)
    for eid, el in mesh.elements.items():
        unit = rng.normal(size=dim)
        unit /= np.linalg.norm(unit)
        if eid % 3 == 1:
            el.directions_override = np.stack([unit, -unit])
        else:
            el.frame = frame_from_direction(unit)
    _assert_skeleton_grams(mesh)


def test_box_gram_transmission_facet():
    def field(points):
        return np.where(points[:, 1] <= 0.0, 15.0, 24.0)

    mesh = build_initial_mesh(DomainSpec(kind="square2"), 4, field, 3)
    facets = mesh.facets()
    across = [f for f in _interior(facets)
              if mesh.elements[facets.side_a[f]].k != mesh.elements[facets.side_b[f]].k]
    assert across
    for f in across:
        sides = (mesh.elements[facets.side_a[f]], mesh.elements[facets.side_b[f]])
        for el_t in sides:
            for el_r in sides:
                got = _closed_gram(facets.lo[f], facets.hi[f], el_t, el_r)
                want = _gauss_gram(facets.lo[f], facets.hi[f], el_t, el_r)
                assert np.max(np.abs(got - want)) <= 1e-13 * _measure(facets, f)


@pytest.mark.parametrize("kind", ["unit_square", "unit_cube"])
def test_box_gram_aligned_waves_are_the_sinc_limit(kind):
    # Neighbours with one frame and wavenumber carry identical waves, so
    # each diagonal entry of their coupling block has a = 0 on every axis:
    # modulus exactly the facet measure, phase that of the centroid shift.
    mesh = _mesh(n=2, k=17.0, q0=2, kind=kind)
    facets = mesh.facets()
    f = _interior(facets)[0]
    lo, hi, measure = facets.lo[f], facets.hi[f], _measure(facets, f)
    el_a, el_b = mesh.elements[facets.side_a[f]], mesh.elements[facets.side_b[f]]
    got = _closed_gram(lo, hi, el_a, el_b)
    kd = el_a.k * element_directions(el_a)
    shift = np.exp(1j * kd @ (el_a.centroid - el_b.centroid))
    assert np.max(np.abs(np.diag(got) - measure * shift)) <= 1e-13 * measure
    want = _gauss_gram(lo, hi, el_a, el_b)
    assert np.max(np.abs(got - want)) <= 1e-13 * measure


def test_box_gram_on_an_element_box():
    # Every axis with nonzero extent contributes its sinc factor.
    mesh = _hp_mesh("unit_square", 2, [])
    el_a, el_b = mesh.elements[0], mesh.elements[1]
    got = _closed_gram(el_a.lo, el_a.hi, el_a, el_b)
    want = _gauss_gram(el_a.lo, el_a.hi, el_a, el_b)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.prod(el_a.hi - el_a.lo)
