"""Axis-aligned refinement-forest meshes with hanging nodes.

Elements are leaves of a quadtree/octree forest over a structured root
grid.  Topology lives in integer coordinates (level, global cell index)
so neighbor lookups and facet identities are exact; floating-point
geometry is derived from them.  Refinement keeps the mesh 1-irregular:
face-adjacent leaves differ by at most one level, enforced by closure.
Each root takes its wavenumber from a map of points given to
`build_initial_mesh` (in the solver, `ProblemSpec.wavenumber`) and its
descendants inherit it; the mesh knows no material rule of its own.
An element's `frame`, an orthogonal (dim, dim) array or None for the
canonical plane-wave fan, passes to its children in the same way.
"""

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

ROBIN = "robin"
DIRICHLET = "dirichlet"
BOUNDARY_TAGS = (ROBIN, DIRICHLET)

_DOMAINS = {
    "unit_square": (2, (0.0, 0.0), 1.0),
    "square2": (2, (-1.0, -1.0), 2.0),
    "l_shape": (2, (-1.0, -1.0), 2.0),
    "unit_cube": (3, (0.0, 0.0, 0.0), 1.0),
}

_SIDE_NAMES = ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")
BOUNDARY_SIDES = ("all", *_SIDE_NAMES, "reentrant")


class MeshError(Exception):
    """Invalid mesh construction or refinement request."""


@dataclass(frozen=True)
class DomainSpec:
    """Computational domain plus its boundary-condition partition.

    boundary_partition maps side names ("all", "xmin", ..., "zmax",
    "reentrant") to "robin" or "dirichlet"; specific sides override
    "all".  The l_shape domain is (-1,1)^2 with the quadrant x>0, y<0
    removed, so its reentrant corner sits at the origin.
    """

    kind: str
    boundary_partition: dict = field(default_factory=lambda: {"all": ROBIN})

    def __post_init__(self):
        if self.kind not in _DOMAINS:
            raise MeshError(f"unknown domain kind {self.kind!r}")
        for key, tag in self.boundary_partition.items():
            if key not in BOUNDARY_SIDES:
                raise MeshError(f"unknown boundary side {key!r}")
            if tag not in BOUNDARY_TAGS:
                raise MeshError(f"boundary tag must be robin or dirichlet, got {tag!r}")

    @property
    def dim(self):
        return _DOMAINS[self.kind][0]

    @property
    def origin(self):
        return np.array(_DOMAINS[self.kind][1])

    @property
    def extent(self):
        return _DOMAINS[self.kind][2]

    def tag_for_side(self, side):
        part = self.boundary_partition
        if side in part:
            return part[side]
        if "all" in part:
            return part["all"]
        raise MeshError(f"boundary side {side!r} has no tag and no 'all' default")


@dataclass
class Element:
    """Leaf cell of the refinement forest.

    `cell` holds global integer coordinates at `level`: the cell spans
    [cell_i, cell_i + 1) in units of (extent / n0) / 2^level per axis.
    """

    id: int
    level: int
    cell: tuple
    lo: np.ndarray
    hi: np.ndarray
    k: float
    degree: int
    frame: np.ndarray | None
    directions_override: np.ndarray | None = None

    def __post_init__(self):
        # lo and hi are never reassigned, so the centroid and the diameter h
        # are computed once; the centroid is read-only so a stray write raises.
        self.centroid = 0.5 * (self.lo + self.hi)
        self.centroid.setflags(write=False)
        self.h = float(np.linalg.norm(self.hi - self.lo))

    @property
    def dim(self):
        return self.lo.shape[0]

    @property
    def n_waves(self):
        if self.directions_override is not None:
            return len(self.directions_override)
        if self.dim == 2:
            return 2 * self.degree + 1
        return (self.degree + 1) ** 2


@dataclass(frozen=True)
class Skeleton:
    """Mesh facets as columns, one row per facet in skeleton order.

    A facet lies on a face of side_a at the finer of the two adjacent
    resolutions; `normal` (F, d) points out of side_a along `axis`.  On
    boundary facets side_b is -1 and `tag` the boundary tag; on interior
    facets side_b is the element id and `tag` is "".  lo and hi (F, d) are
    the facet's corners, equal along its axis.
    """

    axis: np.ndarray
    side_a: np.ndarray
    side_b: np.ndarray
    tag: np.ndarray
    normal: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __len__(self):
        return len(self.axis)


class Mesh:
    """Leaf-element container.

    Refinement returns a new mesh, so the topology (ids, cells, facets) of
    a mesh never changes.  Element frames, degrees and direction overrides
    are mutated in place: by directional adaptivity, by
    `enforce_degree_compatibility` and by the table protocols.
    """

    def __init__(self, domain, n0, elements, index, next_id):
        self.domain = domain
        self.n0 = n0
        self.elements = elements
        self._index = index
        self.next_id = next_id
        self.last_refined = {}
        self._facets = None

    @property
    def dim(self):
        return self.domain.dim

    def element_ids(self):
        return sorted(self.elements)

    def _copy(self):
        elements = {eid: replace(el) for eid, el in self.elements.items()}
        return Mesh(self.domain, self.n0, elements, dict(self._index), self.next_id)

    def _cell_box(self, level, cell):
        step = self.domain.extent / self.n0 / (1 << level)
        lo = self.domain.origin + step * np.asarray(cell, dtype=float)
        return lo, lo + step

    def _root_in_domain(self, root):
        if any(c < 0 or c >= self.n0 for c in root):
            return False
        if self.domain.kind == "l_shape":
            i, j = root[0], root[1]
            return not (i >= self.n0 // 2 and j < self.n0 // 2)
        return True

    def _add_leaf(self, level, cell, k, degree, frame, directions_override):
        """Create, index and number the leaf element at (level, cell)."""
        lo, hi = self._cell_box(level, cell)
        el = Element(self.next_id, level, cell, lo, hi, k, degree, frame,
                     directions_override)
        self.elements[el.id] = el
        self._index[(level, cell)] = el.id
        self.next_id += 1
        return el

    def _neighbour(self, level, cell, axis, direction):
        """What lies across one face of the cell (level, cell).

        ("boundary", side name) outside the domain, ("leaf", id) for a leaf
        at the same level, ("coarser", id) for the leaf one level up that
        covers the face, or ("finer", None) when smaller leaves cover it.
        """
        ncell = tuple(c + direction * (ax == axis) for ax, c in enumerate(cell))
        if not 0 <= ncell[axis] < self.n0 << level:
            return "boundary", _SIDE_NAMES[2 * axis + (direction > 0)]
        if not self._root_in_domain(tuple(c >> level for c in ncell)):
            return "boundary", "reentrant"
        nid = self._index.get((level, ncell))
        if nid is not None:
            return "leaf", nid
        pid = self._index.get((level - 1, tuple(c >> 1 for c in ncell)))
        if pid is not None:
            return "coarser", pid
        return "finer", None

    def facets(self):
        if self._facets is None:
            self._facets = skeleton_facets(self)
        return self._facets


def build_initial_mesh(domain, n, wavenumber, q0):
    """Uniform n-per-axis root grid with degree q0.

    Each root takes the value of `wavenumber`, a map from points (m, d) to
    (m,), at its centroid.  A root whose value differs at the centre of one
    of its 2^d quarter cells straddles a material interface: an error.
    """
    if n < 1 or int(n) != n:
        raise MeshError(f"initial grid resolution must be a positive integer, got {n}")
    if domain.kind == "l_shape" and n % 2 != 0:
        raise MeshError(f"l_shape needs an even initial resolution, got n={n}")
    if q0 < 1:
        raise MeshError(f"effective degree must be >= 1, got {q0}")

    mesh = Mesh(domain, int(n), {}, {}, 0)
    # Root cells in first-axis-fastest order.
    cells = [cell[::-1] for cell in itertools.product(range(n), repeat=domain.dim)]
    cells = [cell for cell in cells if mesh._root_in_domain(cell)]
    lo, hi = mesh._cell_box(0, cells)
    centroids = 0.5 * (lo + hi)
    k = wavenumber(centroids)
    offsets = np.array(list(itertools.product((-0.25, 0.25), repeat=domain.dim)))
    quarters = (centroids[:, None] + offsets * (hi - lo)[:, None]).reshape(-1, domain.dim)
    if np.any(wavenumber(quarters).reshape(len(cells), -1) != k[:, None]):
        raise MeshError(f"initial grid n={n} does not resolve the material interface")
    for cell, k_root in zip(cells, k.tolist()):
        mesh._add_leaf(0, cell, k_root, int(q0), None, None)
    return mesh


def _split(mesh, eid):
    el = mesh.elements[eid]
    # 1-irregular closure: any coarser face neighbor must split first
    for axis, direction in itertools.product(range(el.dim), (-1, 1)):
        kind, nid = mesh._neighbour(el.level, el.cell, axis, direction)
        if kind == "coarser":
            _split(mesh, nid)
    # Children in first-axis-fastest order.
    children = tuple(
        mesh._add_leaf(
            el.level + 1, tuple(2 * c + o for c, o in zip(el.cell, offset[::-1])),
            el.k, el.degree, el.frame, el.directions_override,
        ).id
        for offset in itertools.product((0, 1), repeat=el.dim)
    )
    del mesh.elements[eid]
    del mesh._index[(el.level, el.cell)]
    mesh.last_refined[eid] = children


def refine_elements(mesh, marked, raise_degree=()):
    """Split the marked leaves (plus closure) into 2^dim children each.

    Returns a new mesh; surviving elements keep their ids and children
    get fresh dense ids in deterministic order.  The refinement map for
    this call, including closure splits, is in `new.last_refined`.  The
    elements listed in `raise_degree` get one degree more on the new mesh
    before any split, so children of such elements inherit it.
    """
    new = mesh._copy()
    new.last_refined = {}
    for eid in raise_degree:
        new.elements[eid].degree += 1
    for eid in sorted(set(marked)):
        if eid in new.last_refined:
            continue
        if eid not in new.elements:
            raise MeshError(f"cannot refine unknown element id {eid}")
        _split(new, eid)
    return new


def skeleton_facets(mesh):
    """The mesh Skeleton, interior facets emitted once at the finer resolution.

    Deterministic order: by owning element id, then axis, then facing
    direction.  For an equal-level pair the lower id owns the facet.
    """
    ids = mesh.element_ids()
    rows = []
    for row, eid in enumerate(ids):
        el = mesh.elements[eid]
        for axis, direction in itertools.product(range(el.dim), (-1, 1)):
            kind, other = mesh._neighbour(el.level, el.cell, axis, direction)
            # finer neighbors emit the sub-facets; the lower id owns a pair
            if kind == "finer" or (kind == "leaf" and other < eid):
                continue
            tag = mesh.domain.tag_for_side(other) if kind == "boundary" else ""
            rows.append((row, axis, direction, -1 if tag else other, tag))
    row, axis, direction, side_b, tag = (np.array(column) for column in zip(*rows))
    f = np.arange(len(row))
    lo = np.array([mesh.elements[eid].lo for eid in ids])[row]
    hi = np.array([mesh.elements[eid].hi for eid in ids])[row]
    lo[f, axis] = hi[f, axis] = np.where(direction > 0, hi[f, axis], lo[f, axis])
    normal = np.zeros(lo.shape)
    normal[f, axis] = direction
    return Skeleton(axis=axis, side_a=np.array(ids)[row], side_b=side_b, tag=tag,
                    normal=normal, lo=lo, hi=hi)
