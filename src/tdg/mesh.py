"""Axis-aligned refinement-forest meshes with hanging nodes.

Elements are leaves of a quadtree/octree forest over a structured root
grid.  Topology lives in integer coordinates (level, global cell index)
so neighbor lookups and facet identities are exact; floating-point
geometry is derived from them.  Refinement keeps the mesh 1-irregular:
face-adjacent leaves differ by at most one level, enforced by closure.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .basis import DirectionFrame, canonical_frame

ROBIN = "robin"
DIRICHLET = "dirichlet"
_TAGS = (ROBIN, DIRICHLET)

_DOMAINS = {
    "unit_square": (2, (0.0, 0.0), 1.0),
    "square2": (2, (-1.0, -1.0), 2.0),
    "l_shape": (2, (-1.0, -1.0), 2.0),
    "unit_cube": (3, (0.0, 0.0, 0.0), 1.0),
}

_SIDE_NAMES = ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")


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
        allowed = {"all", "reentrant", *_SIDE_NAMES}
        for key, tag in self.boundary_partition.items():
            if key not in allowed:
                raise MeshError(f"unknown boundary side {key!r}")
            if tag not in _TAGS:
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


class ConstantWavenumber:
    """Uniform wavenumber over the whole domain."""

    def __init__(self, k):
        if k <= 0:
            raise MeshError(f"wavenumber must be positive, got {k}")
        self.k = float(k)

    def __call__(self, centroid):
        return self.k

    def at_points(self, points):
        """Wavenumber at each row of `points`, shape (m,)."""
        return np.full(len(points), self.k)

    def validate(self, domain, n):
        return None


class InterfaceWavenumber:
    """Piecewise-constant wavenumber split by a plane along one axis.

    Elements with centroid coordinate <= position get `below`, the rest
    `above`.  The facet coupling coefficient on the interface itself
    uses `facet_k` (the shared frequency of the two media).
    """

    def __init__(self, axis, position, below, above, facet_k):
        self.axis = int(axis)
        self.position = float(position)
        self.below = float(below)
        self.above = float(above)
        self.facet_k = float(facet_k)

    def __call__(self, centroid):
        return self.below if centroid[self.axis] <= self.position else self.above

    def at_points(self, points):
        """Wavenumber at each row of `points`, shape (m,), by the same rule."""
        return np.where(points[:, self.axis] <= self.position, self.below, self.above)

    def validate(self, domain, n):
        step = domain.extent / n
        ratio = (self.position - domain.origin[self.axis]) / step
        if abs(ratio - round(ratio)) > 1e-12:
            raise MeshError(
                f"initial grid n={n} does not resolve the material interface "
                f"at coordinate {self.position}"
            )


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
    frame: DirectionFrame
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
class Facet:
    """Skeleton facet at the finer of the two adjacent resolutions.

    `normal` points out of side_a.  side_b is an element id on interior
    facets and a boundary tag string on boundary facets.
    """

    axis: int
    side_a: int
    side_b: object
    normal: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    level: int

    @property
    def is_boundary(self):
        return isinstance(self.side_b, str)

    @property
    def measure(self):
        ext = self.hi - self.lo
        return float(np.prod(ext[np.arange(len(ext)) != self.axis]))

    @property
    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))


class Mesh:
    """Leaf-element container; immutable between refinement calls."""

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
        new = Mesh(self.domain, self.n0, elements, dict(self._index), self.next_id)
        return new

    def _step(self, level):
        return self.domain.extent / self.n0 / (1 << level)

    def _cell_box(self, level, cell):
        step = self._step(level)
        lo = self.domain.origin + step * np.asarray(cell, dtype=float)
        return lo, lo + step

    def _root_in_domain(self, root):
        if any(c < 0 or c >= self.n0 for c in root):
            return False
        if self.domain.kind == "l_shape":
            i, j = root[0], root[1]
            return not (i >= self.n0 // 2 and j < self.n0 // 2)
        return True

    def _cell_in_domain(self, level, cell):
        limit = self.n0 * (1 << level)
        if any(c < 0 or c >= limit for c in cell):
            return False
        return self._root_in_domain(tuple(c >> level for c in cell))

    def _boundary_side(self, level, cell, axis, direction):
        limit = self.n0 * (1 << level)
        at_outer_min = direction < 0 and cell[axis] == 0
        at_outer_max = direction > 0 and cell[axis] == limit - 1
        if at_outer_min:
            return _SIDE_NAMES[2 * axis]
        if at_outer_max:
            return _SIDE_NAMES[2 * axis + 1]
        return "reentrant"

    def facets(self):
        if self._facets is None:
            self._facets = skeleton_facets(self)
        return self._facets

    def facets_by_element(self):
        by_el = {eid: [] for eid in self.elements}
        for f in self.facets():
            by_el[f.side_a].append(f)
            if not f.is_boundary:
                by_el[f.side_b].append(f)
        return by_el


def build_initial_mesh(domain, n, wavenumbers, q0):
    """Uniform n-per-axis root grid with per-element wavenumbers and degree q0."""
    if n < 1 or int(n) != n:
        raise MeshError(f"initial grid resolution must be a positive integer, got {n}")
    if domain.kind == "l_shape" and n % 2 != 0:
        raise MeshError(f"l_shape needs an even initial resolution, got n={n}")
    if q0 < 1:
        raise MeshError(f"effective degree must be >= 1, got {q0}")
    wavenumbers.validate(domain, n)

    dim = domain.dim
    mesh = Mesh(domain, int(n), {}, {}, 0)
    frame = canonical_frame(dim)
    cells = []
    ranges = [range(n)] * dim
    if dim == 2:
        cells = [(i, j) for j in ranges[1] for i in ranges[0]]
    else:
        cells = [(i, j, kk) for kk in ranges[2] for j in ranges[1] for i in ranges[0]]
    eid = 0
    for cell in cells:
        if not mesh._root_in_domain(cell):
            continue
        lo, hi = mesh._cell_box(0, cell)
        centroid = 0.5 * (lo + hi)
        el = Element(
            id=eid,
            level=0,
            cell=cell,
            lo=lo,
            hi=hi,
            k=float(wavenumbers(centroid)),
            degree=int(q0),
            frame=frame,
            directions_override=None,
        )
        mesh.elements[eid] = el
        mesh._index[(0, cell)] = eid
        eid += 1
    mesh.next_id = eid
    if not mesh.elements:
        raise MeshError("empty mesh")
    return mesh


def _split(mesh, eid):
    el = mesh.elements[eid]
    level, cell, dim = el.level, el.cell, el.dim
    # 1-irregular closure: any coarser face neighbor must split first
    for axis in range(dim):
        for direction in (-1, 1):
            ncell = tuple(
                c + (direction if ax == axis else 0) for ax, c in enumerate(cell)
            )
            if not mesh._cell_in_domain(level, ncell):
                continue
            if (level, ncell) in mesh._index:
                continue
            if level >= 1:
                parent = tuple(c >> 1 for c in ncell)
                pid = mesh._index.get((level - 1, parent))
                if pid is not None:
                    _split(mesh, pid)
    children = []
    for child_index in range(1 << dim):
        offset = tuple((child_index >> ax) & 1 for ax in range(dim))
        ccell = tuple(2 * c + o for c, o in zip(cell, offset))
        lo, hi = mesh._cell_box(level + 1, ccell)
        cid = mesh.next_id
        mesh.next_id += 1
        child = Element(
            id=cid,
            level=level + 1,
            cell=ccell,
            lo=lo,
            hi=hi,
            k=el.k,
            degree=el.degree,
            frame=el.frame,
            directions_override=el.directions_override,
        )
        mesh.elements[cid] = child
        mesh._index[(level + 1, ccell)] = cid
        children.append(cid)
    del mesh.elements[eid]
    del mesh._index[(level, cell)]
    mesh.last_refined[eid] = tuple(children)


def refine_elements(mesh, marked):
    """Split the marked leaves (plus closure) into 2^dim children each.

    Returns a new mesh; surviving elements keep their ids and children
    get fresh dense ids in deterministic order.  The refinement map for
    this call, including closure splits, is in `new.last_refined`.
    """
    new = mesh._copy()
    new.last_refined = {}
    for eid in sorted(set(marked)):
        if eid in new.last_refined:
            continue
        if eid not in new.elements:
            raise MeshError(f"cannot refine unknown element id {eid}")
        _split(new, eid)
    return new


def skeleton_facets(mesh):
    """All mesh facets, interior ones emitted once at the finer resolution.

    Deterministic order: by owning element id, then axis, then facing
    direction.  For an equal-level pair the lower id owns the facet.
    """
    facets = []
    index = mesh._index
    for eid in mesh.element_ids():
        el = mesh.elements[eid]
        level, cell, dim = el.level, el.cell, el.dim
        for axis in range(dim):
            for direction in (-1, 1):
                ncell = tuple(
                    c + (direction if ax == axis else 0) for ax, c in enumerate(cell)
                )
                normal = np.zeros(dim)
                normal[axis] = float(direction)
                f_lo = el.lo.copy()
                f_hi = el.hi.copy()
                coord = el.hi[axis] if direction > 0 else el.lo[axis]
                f_lo[axis] = coord
                f_hi[axis] = coord
                if not mesh._cell_in_domain(level, ncell):
                    side = mesh._boundary_side(level, cell, axis, direction)
                    tag = mesh.domain.tag_for_side(side)
                    facets.append(
                        Facet(axis, eid, tag, normal, f_lo, f_hi, level)
                    )
                    continue
                nid = index.get((level, ncell))
                if nid is not None:
                    if eid < nid:
                        facets.append(
                            Facet(axis, eid, nid, normal, f_lo, f_hi, level)
                        )
                    continue
                if level >= 1:
                    parent = tuple(c >> 1 for c in ncell)
                    pid = index.get((level - 1, parent))
                    if pid is not None:
                        facets.append(
                            Facet(axis, eid, pid, normal, f_lo, f_hi, level)
                        )
                        continue
                # finer neighbors cover this face and emit the sub-facets
    return facets
