"""Quadtree/octree mesh construction, refinement closure, and facet skeleton."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tdg.basis import canonical_directions, element_directions, frame_from_direction
from tdg.mesh import (
    DIRICHLET,
    ROBIN,
    DomainSpec,
    MeshError,
    build_initial_mesh,
    refine_elements,
    skeleton_facets,
)
from tdg.problems import ProblemSpec


def _constant_k(k):
    """Map from points (m, d) to the wavenumber k at each, (m,)."""
    return lambda points: np.full(len(points), float(k))


def _mesh(kind="unit_square", n=4, k=20.0, q0=3, boundary=None):
    domain = DomainSpec(kind=kind, boundary_partition=boundary or {"all": ROBIN})
    return build_initial_mesh(domain, n, _constant_k(k), q0)


def _measures(facets):
    """Facet areas (F,) from the lo/hi columns: the product of the tangential extents."""
    extents = facets.hi - facets.lo
    extents[np.arange(len(facets)), facets.axis] = 1.0
    return np.prod(extents, axis=1)


def _assert_one_level_apart(mesh):
    facets = mesh.facets()
    interior = facets.side_b >= 0
    levels = [[mesh.elements[eid].level for eid in side[interior].tolist()]
              for side in (facets.side_a, facets.side_b)]
    assert np.all(np.abs(np.subtract(*levels)) <= 1)


@pytest.mark.parametrize(
    "kind,n,expected",
    [
        ("unit_square", 4, 16),
        ("unit_square", 8, 64),
        ("square2", 8, 64),
        ("l_shape", 8, 48),
        ("l_shape", 2, 3),
        ("unit_cube", 2, 8),
        ("unit_cube", 3, 27),
    ],
)
def test_initial_element_counts(kind, n, expected):
    assert len(_mesh(kind=kind, n=n).elements) == expected


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "unit_square", "boundary_partition": {"all": "neumann"}}, "robin or dirichlet"),
        ({"kind": "unit_square", "boundary_partition": {"north": ROBIN}}, "unknown boundary side"),
        ({"kind": "disk"}, "unknown domain kind"),
    ],
)
def test_domain_spec_rejects_unknown_tag_side_and_kind(spec, message):
    # The first guard on boundary tags: skeleton passes take them as built.
    with pytest.raises(MeshError, match=message):
        DomainSpec(**spec)


def test_l_shape_requires_even_resolution():
    with pytest.raises(MeshError):
        _mesh(kind="l_shape", n=3)


def test_initial_grid_must_resolve_the_material_interface():
    domain = DomainSpec(kind="square2", boundary_partition={"all": DIRICHLET})
    problem = ProblemSpec(kind="transmission", domain=domain, omega=11.0, index_below=2.0,
                          index_above=1.0, incidence_deg=69.0)
    for n in (3, 5):
        with pytest.raises(MeshError, match=f"n={n} does not resolve the material interface"):
            build_initial_mesh(domain, n, problem.wavenumber, 2)
    mesh = build_initial_mesh(domain, 4, problem.wavenumber, 2)
    assert len(mesh.elements) == 16
    for el in mesh.elements.values():
        assert el.k == (22.0 if el.centroid[1] < 0.0 else 11.0)


def test_l_shape_excludes_fourth_quadrant():
    mesh = _mesh(kind="l_shape", n=4)
    for el in mesh.elements.values():
        c = el.centroid
        assert not (c[0] > 0.0 and c[1] < 0.0)


def test_initial_geometry_and_metadata():
    mesh = _mesh(n=4, k=20.0, q0=5)
    for el in mesh.elements.values():
        assert_allclose(el.hi - el.lo, 0.25, atol=0.0)
        assert el.h == pytest.approx(0.25 * np.sqrt(2.0))
        assert el.centroid is el.centroid  # computed once per element
        with pytest.raises(ValueError):
            el.centroid[0] = 0.0  # read-only, so a stray write cannot corrupt it
        assert el.k == 20.0
        assert el.degree == 5
        assert el.n_waves == 11
        assert el.level == 0


def test_3d_wave_count():
    mesh = _mesh(kind="unit_cube", n=2, q0=3)
    assert all(el.n_waves == 16 for el in mesh.elements.values())


def test_facet_counts_4x4():
    mesh = _mesh(n=4)
    facets = mesh.facets()
    boundary = facets.side_b < 0
    assert len(facets) == 40
    assert np.count_nonzero(~boundary) == 24
    assert facets.tag[boundary].tolist() == [ROBIN] * 16
    assert facets.tag[~boundary].tolist() == [""] * 24


def test_boundary_partition_overrides():
    mesh = _mesh(n=2, boundary={"all": ROBIN, "xmin": DIRICHLET})
    facets = mesh.facets()
    tags, counts = np.unique(facets.tag[facets.side_b < 0], return_counts=True)
    assert dict(zip(tags.tolist(), counts.tolist())) == {ROBIN: 6, DIRICHLET: 2}


def test_reentrant_tagging():
    mesh = _mesh(kind="l_shape", n=2, boundary={"all": ROBIN, "reentrant": DIRICHLET})
    facets = mesh.facets()
    reentrant = np.flatnonzero(facets.tag == DIRICHLET)
    # The two unit facets meeting at the reentrant corner (origin).
    assert len(reentrant) == 2
    for f in reentrant:
        assert np.allclose(facets.lo[f], 0.0) or np.allclose(facets.hi[f], 0.0)


def test_facet_normals_point_out_of_side_a():
    mesh = _mesh(n=2)
    facets = mesh.facets()
    centroids = np.array([mesh.elements[eid].centroid for eid in facets.side_a.tolist()])
    center = 0.5 * (facets.lo + facets.hi)
    assert np.all(np.einsum("fd,fd->f", center - centroids, facets.normal) > 0.0)


def test_refine_returns_new_mesh():
    mesh = _mesh(n=2)
    refined = refine_elements(mesh, [0])
    assert len(mesh.elements) == 4
    assert len(refined.elements) == 7
    assert refined.last_refined == {0: (4, 5, 6, 7)}
    children = [refined.elements[i] for i in (4, 5, 6, 7)]
    parent_lo = mesh.elements[0].lo
    parent_hi = mesh.elements[0].hi
    assert_allclose(np.min([c.lo for c in children], axis=0), parent_lo)
    assert_allclose(np.max([c.hi for c in children], axis=0), parent_hi)
    for c in children:
        assert c.level == 1
        assert c.degree == mesh.elements[0].degree
        assert c.k == mesh.elements[0].k


@pytest.mark.parametrize(
    "kind, direction", [("unit_square", (0.6, 0.8)), ("unit_cube", (0.48, 0.6, 0.64))]
)
def test_refined_children_inherit_the_frame(kind, direction):
    # The marked-all policy rotates a fan before the element splits, so its
    # children must keep the rotation, at the raised degree.
    mesh = _mesh(kind=kind, n=2, q0=2)
    frame = frame_from_direction(direction)
    mesh.elements[0].frame = frame
    refined = refine_elements(mesh, [0], raise_degree=[0])
    for cid in refined.last_refined[0]:
        child = refined.elements[cid]
        assert child.frame is frame and child.degree == 3
        expected = canonical_directions(child.n_waves, child.dim) @ frame.T
        assert np.array_equal(element_directions(child), expected)
    assert refined.elements[1].frame is None  # a face neighbour, not split


def test_refine_unknown_id_raises():
    mesh = _mesh(n=2)
    with pytest.raises(MeshError):
        refine_elements(mesh, [99])


def test_nonconforming_facets_split_at_finer_level():
    mesh = _mesh(n=2)
    refined = refine_elements(mesh, [0])
    facets = refined.facets()
    fine_on_coarse = [
        f
        for f, (a, b) in enumerate(zip(facets.side_a.tolist(), facets.side_b.tolist()))
        if b >= 0 and {refined.elements[a].level, refined.elements[b].level} == {0, 1}
    ]
    # Two half-facets against each of the two level-0 neighbors.
    assert len(fine_on_coarse) == 4
    assert_allclose(_measures(facets)[fine_on_coarse], 0.25)


def test_closure_keeps_one_level_difference():
    mesh = _mesh(n=2)
    mesh = refine_elements(mesh, [0])
    inner = next(
        eid
        for eid, el in mesh.elements.items()
        if el.level == 1 and np.allclose(el.lo, 0.25)
    )
    mesh = refine_elements(mesh, [inner])
    # Splitting the grandchild that faces the coarse neighbors forces
    # those level-0 elements to split too.
    assert len(mesh.last_refined) > 1
    _assert_one_level_apart(mesh)


def test_skeleton_partitions_interface_area():
    mesh = refine_elements(_mesh(n=2), [0, 3])
    facets = mesh.facets()
    measures = _measures(facets)
    for eid, el in mesh.elements.items():
        touches = (facets.side_a == eid) | (facets.side_b == eid)
        per_axis = np.bincount(facets.axis[touches], measures[touches])
        side = el.hi[0] - el.lo[0]
        # Facets normal to each axis tile both opposing faces exactly.
        for axis in range(el.dim):
            assert per_axis[axis] == pytest.approx(2.0 * side)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=6))
def test_refinement_preserves_invariants(picks):
    mesh = _mesh(n=2, q0=2)
    for pick in picks:
        ids = mesh.element_ids()
        mesh = refine_elements(mesh, [ids[pick % len(ids)]])
    total = sum(np.prod(el.hi - el.lo) for el in mesh.elements.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    _assert_one_level_apart(mesh)


def test_3d_refinement_counts_and_closure():
    mesh = _mesh(kind="unit_cube", n=2, q0=2)
    refined = refine_elements(mesh, [0])
    assert len(refined.elements) == 8 - 1 + 8
    assert set(refined.last_refined) == {0}
    grand = next(
        eid
        for eid, el in refined.elements.items()
        if el.level == 1 and np.allclose(el.lo, 0.0)
    )
    deeper = refine_elements(refined, [grand])
    _assert_one_level_apart(deeper)


def _reference_skeleton(mesh):
    """Skeleton facets by brute-force geometry on the leaf boxes alone.

    Every boundary face, and every pair of leaves sharing a face of positive
    area, once: on the finer leaf's face, the lower id owning equal-level
    pairs; ordered by (owner id, axis, direction).  A boundary facet's other
    side is its tag.
    """
    domain, dim = mesh.domain, mesh.dim
    boxes = {eid: (el.lo.tolist(), el.hi.tolist()) for eid, el in mesh.elements.items()}
    sides = ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")
    facets = []
    for a, (alo, ahi) in sorted(boxes.items()):
        size = ahi[0] - alo[0]
        for axis in range(dim):
            for direction in (-1, 1):
                face = ahi[axis] if direction > 0 else alo[axis]
                across = [
                    b for b, (blo, bhi) in boxes.items()
                    if (blo[axis] if direction > 0 else bhi[axis]) == face
                    and all(min(ahi[i], bhi[i]) > max(alo[i], blo[i])
                            for i in range(dim) if i != axis)
                ]
                sizes = {boxes[b][1][0] - boxes[b][0][0] for b in across}
                if not across:
                    if face == domain.origin[axis]:
                        side = sides[2 * axis]
                    elif face == domain.origin[axis] + domain.extent:
                        side = sides[2 * axis + 1]
                    else:
                        side = "reentrant"
                    other = domain.tag_for_side(side)
                elif min(sizes) < size:
                    continue  # the finer leaves across own these facets
                else:
                    (other,) = across
                    if sizes == {size} and other < a:
                        continue
                normal = tuple(float(direction) if i == axis else 0.0 for i in range(dim))
                lo = tuple(face if i == axis else alo[i] for i in range(dim))
                hi = tuple(face if i == axis else ahi[i] for i in range(dim))
                facets.append((axis, a, other, normal, lo, hi))
    return facets


SKELETON_DOMAINS = {
    "l_shape": (4, {"all": ROBIN, "reentrant": DIRICHLET, "ymax": DIRICHLET}),
    "unit_cube": (2, {"all": ROBIN, "xmax": DIRICHLET, "zmin": DIRICHLET}),
}


@pytest.mark.parametrize("kind", sorted(SKELETON_DOMAINS))
@settings(max_examples=15, deadline=None)
@given(steps=st.lists(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=3),
    min_size=0, max_size=4,
))
def test_skeleton_matches_geometric_reference(kind, steps):
    n, boundary = SKELETON_DOMAINS[kind]
    mesh = _mesh(kind=kind, n=n, q0=2, boundary=boundary)
    for picks in steps:
        ids = mesh.element_ids()
        mesh = refine_elements(mesh, [ids[p % len(ids)] for p in picks])
    skeleton = skeleton_facets(mesh)
    facets = list(zip(
        skeleton.axis.tolist(), skeleton.side_a.tolist(),
        [b if b >= 0 else tag for b, tag in zip(skeleton.side_b.tolist(), skeleton.tag.tolist())],
        map(tuple, skeleton.normal.tolist()), map(tuple, skeleton.lo.tolist()),
        map(tuple, skeleton.hi.tolist()),
    ))
    assert len(skeleton) == len(facets)
    assert facets == _reference_skeleton(mesh)
