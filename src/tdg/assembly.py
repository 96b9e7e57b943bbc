"""Skeleton-based assembly of the Trefftz DG (UWVF-type) system.

All coupling lives on mesh facets; there are no volume terms because
the basis solves the Helmholtz equation elementwise.  On an interior
facet with traces (u_A, u_B) and facet normal n out of side A, the
sesquilinear form contributes

    {u} [grad v . n] - (beta/(i k)) [grad u . n][grad v . n]
  - {grad u . n} [v] + alpha i k [u][v]

per unit area, with jumps [w] = w_A - w_B and averages {w} = (w_A +
w_B)/2 taken along n.  Robin facets (data du/dn + i k u) use the
impedance splitting with weight delta, Dirichlet facets the penalty
alpha i k; the right-hand side mirrors the boundary terms so the scheme
is consistent.  alpha, beta and delta are the constants ALPHA = BETA =
DELTA = 1/2: the UWVF member of the Trefftz DG family (Gittelson,
Hiptmair & Perugia, M2AN 43, 2009).  On a material-interface facet the
coefficient wavenumber is the shared frequency supplied by the problem.

The skeleton is walked in the batches of `quadrature.skeleton_batches`.
On an interior facet both traces are plane waves and the normal
derivative of a wave is its value times i k d.n, so every flux term is a
Gram block G_tr = int_F conj(phi_t) phi_r of a side pair times a
coefficient outer product; the four blocks come in closed form from
`quadrature.box_gram`, with no quadrature points.  Boundary data is in
general no plane wave (a Hankel or corner solution), so boundary facets
stay on Gauss quadrature.  Per batch that takes one
`ProblemSpec.boundary_on_grid` call on the batch's grid axes, which
factors plane-wave data over the axes, and one batch of per-axis trace
factors (`basis.grid_waves`) on the same axes; of the rule itself only
the weights are built, never the points.  The quadrature Gram block is
the elementwise product of per-axis Grams F_a^H diag(w_a) F_a over the
tangential axes, and gets the same coefficient products.  Element blocks
are kept in a dict keyed by (test id, trial id) and flattened to CSR on
demand: the COO indices of all blocks come from a few np.repeat calls
over the sorted keys, each block row-major.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import WaveTable, grid_waves
from .mesh import ROBIN
from .quadrature import box_gram, skeleton_batches

ALPHA = BETA = DELTA = 0.5


@dataclass
class GlobalSystem:
    """Block-compressed system A x = b with a deterministic dof layout."""

    blocks: dict
    rhs: np.ndarray
    dof_map: dict
    dim: int

    def to_sparse(self):
        # Row-major entries of each block, blocks in sorted key order.
        keys = sorted(self.blocks)
        r0, r1 = np.array([self.dof_map[test_id] for test_id, _ in keys]).T
        c0, c1 = np.array([self.dof_map[trial_id] for _, trial_id in keys]).T
        n_cols = c1 - c0
        size = (r1 - r0) * n_cols
        local = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        n_cols = np.repeat(n_cols, size)
        rows = np.repeat(r0, size) + local // n_cols
        cols = np.repeat(c0, size) + local % n_cols
        data = np.concatenate([self.blocks[key].ravel() for key in keys])
        return sp.csr_matrix((data, (rows, cols)), shape=(self.dim, self.dim))

    def split(self, x):
        """{element id: x's slice of that element's dofs}, in dof_map order; views of x."""
        return {eid: x[start:stop] for eid, (start, stop) in self.dof_map.items()}


def _add_blocks(blocks, test_ids, trial_ids, mats):
    """Add mats[f] (F, p_t, p_r) to blocks[(test_ids[f], trial_ids[f])].

    A new block is a copy, so no block keeps a whole batch array alive.
    """
    for key, mat in zip(zip(test_ids.tolist(), trial_ids.tolist()), mats):
        block = blocks.get(key)
        if block is None:
            blocks[key] = mat.copy()
        else:
            block += mat


def _interior_blocks(batch, waves, problem):
    """(test ids, trial ids, blocks (F, p_t, p_r)) of the four side pairs."""
    kd_a, c_a, k_a = waves.take(batch.side_a, batch.p_a)
    kd_b, c_b, k_b = waves.take(batch.side_b, batch.p_b)
    ik = 1j * problem.facet_wavenumber(k_a, k_b)[:, None, None]
    gram_ab = box_gram(batch.lo, batch.hi, kd_a, c_a, kd_b, c_b)
    grams = {
        (0, 0): box_gram(batch.lo, batch.hi, kd_a, c_a, kd_a, c_a),
        (0, 1): gram_ab,
        (1, 0): gram_ab.conj().transpose(0, 2, 1),
        (1, 1): box_gram(batch.lo, batch.hi, kd_b, c_b, kd_b, c_b),
    }
    normal = batch.normal[:, :, None]
    sides = (
        (batch.side_a, 1j * (kd_a @ normal)[:, :, 0], 1.0),
        (batch.side_b, 1j * (kd_b @ normal)[:, :, 0], -1.0),
    )
    for t, (test_ids, dn_t, s_t) in enumerate(sides):
        dn_t = dn_t.conj()[:, :, None]
        for r, (trial_ids, dn_r, s_r) in enumerate(sides):
            dn_r = dn_r[:, None, :]
            flux = dn_t * (0.5 * s_t - (BETA / ik) * s_r * s_t * dn_r) + (
                -0.5 * s_t * dn_r + ALPHA * ik * s_r * s_t
            )
            yield test_ids, trial_ids, grams[t, r] * flux


def _boundary_blocks(batch, waves, problem):
    """(blocks (F, p, p), loads (F, p)) of boundary facets, by per-axis quadrature."""
    w = batch.weights()
    # hankel1 and jv slow down right after a zgemm (tdg.basis): the data
    # comes first, and in 2D a matrix-vector product ends the batch.
    gdata = problem.boundary_on_grid(batch.tag, batch.grid_axes(), batch.normal[0])
    kd, centroids, k = waves.take(batch.side_a, batch.p_a)
    factors, dn = grid_waves(kd, centroids, batch.grid_axes(), batch.normal)
    adjoints = [factor.conj().transpose(0, 2, 1) for factor in factors]
    grams = [adj @ (wa[:, :, None] * factor) for adj, factor, wa
             in zip(adjoints, factors, batch.tangential_weights())]
    gram = grams[0] * grams[1] if grams[1:] else grams[0]
    loads = adjoints[0] @ (w * gdata).reshape(len(k), batch.n, -1)
    for adjoint in adjoints[1:]:
        loads = np.einsum("fpj,fpj->fp", loads, adjoint)[:, :, None]
    loads = loads[:, :, 0]
    k = k[:, None]
    dc = dn.conj()
    if batch.tag == ROBIN:
        ikt = 1j * k
        flux = (1.0 - DELTA) * (dc[:, :, None] + ikt[:, :, None]) - DELTA * (
            (1.0 / ikt)[:, :, None] * dc[:, :, None] * dn[:, None, :] + dn[:, None, :]
        )
        return gram * flux, loads * ((1.0 - DELTA) - (DELTA / ikt) * dc)
    ika = 1j * k * ALPHA
    return gram * (ika[:, :, None] - dn[:, None, :]), loads * (ika - dc)


def assemble_system(mesh, problem):
    """Assemble the TDG system for the mesh and problem over the mesh skeleton."""
    dof_map = {}
    offset = 0
    for eid in mesh.element_ids():
        p = mesh.elements[eid].n_waves
        dof_map[eid] = (offset, offset + p)
        offset += p
    dim = offset
    rhs = np.zeros(dim, dtype=complex)
    blocks = {}
    waves = WaveTable(mesh.elements)
    for batch in skeleton_batches(mesh):
        if not batch.is_boundary:
            for test_ids, trial_ids, mats in _interior_blocks(batch, waves, problem):
                _add_blocks(blocks, test_ids, trial_ids, mats)
            continue
        mats, loads = _boundary_blocks(batch, waves, problem)
        _add_blocks(blocks, batch.side_a, batch.side_a, mats)
        first = np.array([dof_map[eid][0] for eid in batch.side_a])
        np.add.at(rhs, first[:, None] + np.arange(loads.shape[1]), loads)

    return GlobalSystem(blocks=blocks, rhs=rhs, dof_map=dof_map, dim=dim)
