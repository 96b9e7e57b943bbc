"""Skeleton-based assembly of the Trefftz DG (UWVF-type) system.

All coupling lives on mesh facets; there are no volume terms because
the basis solves the Helmholtz equation elementwise.  On an interior
facet with traces (u_A, u_B) and facet normal n out of side A, the
sesquilinear form contributes

    {u} [grad v . n] - (beta/(i k)) [grad u . n][grad v . n]
  - {grad u . n} [v] + alpha i k [u][v]

per unit area, with jumps [w] = w_A - w_B and averages {w} = (w_A +
w_B)/2 taken along n.  Robin facets use the impedance splitting with
weight delta, Dirichlet facets the penalty alpha i k; the right-hand
side mirrors the boundary terms so the scheme is consistent.  On a
material-interface facet the coefficient wavenumber is the shared
frequency supplied by the problem.

Facet rules for the whole skeleton come from one
`quadrature.skeleton_rules` call per assembly and are dropped with it.
Facet traces and their normal derivatives come from
`basis.eval_basis_derivative`, which never forms the full gradient.
Element blocks are kept in a dict keyed by (test id, trial id) and
flattened to CSR on demand: the COO indices of all blocks come from a
few np.repeat calls over the sorted keys, each block row-major.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .basis import eval_basis_derivative
from .mesh import DIRICHLET, ROBIN
from .quadrature import skeleton_rules


class AssemblyError(Exception):
    """Malformed facet data or boundary tags."""


@dataclass(frozen=True)
class PenaltyParams:
    """Flux weights of the skeleton form; 1/2 everywhere recovers the UWVF."""

    alpha: float = 0.5
    beta: float = 0.5
    delta: float = 0.5


@dataclass
class GlobalSystem:
    """Block-compressed system A x = b with a deterministic dof layout."""

    blocks: dict
    rhs: np.ndarray
    dof_map: dict
    dim: int
    _csr: object = field(default=None, repr=False)

    def to_sparse(self):
        if self._csr is None:
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
            self._csr = sp.csr_matrix((data, (rows, cols)), shape=(self.dim, self.dim))
        return self._csr


def assemble_system(mesh, problem, params=PenaltyParams(), facets=None):
    """Assemble the TDG system for the mesh and problem.

    `facets` may override the mesh skeleton (used for consistency
    checks); each entry must carry side ids, a normal and a geometry
    box as produced by skeleton_facets.
    """
    if facets is None:
        facets = mesh.facets()
    dof_map = {}
    offset = 0
    for eid in mesh.element_ids():
        p = mesh.elements[eid].n_waves
        dof_map[eid] = (offset, offset + p)
        offset += p
    dim = offset
    rhs = np.zeros(dim, dtype=complex)
    blocks = {}

    def add(test_id, trial_id, mat):
        key = (test_id, trial_id)
        if key in blocks:
            blocks[key] += mat
        else:
            blocks[key] = mat

    alpha, beta, delta = params.alpha, params.beta, params.delta
    vtheta = problem.impedance_sign

    for facet, rule in zip(facets, skeleton_rules(mesh, facets)):
        el_a = mesh.elements[facet.side_a]
        normal = facet.normal
        w = rule.weights
        if facet.is_boundary:
            tag = facet.side_b
            if tag not in (ROBIN, DIRICHLET):
                raise AssemblyError(f"facet carries invalid boundary tag {tag!r}")
            k = el_a.k
            values, dnorm = eval_basis_derivative(el_a, rule.points, normal)
            vc, gc = values.conj(), dnorm.conj()
            wv = w[:, None] * values
            wg = w[:, None] * dnorm
            gdata = problem.boundary_data(tag, rule.points, normal)
            if tag == ROBIN:
                ikt = 1j * k * vtheta
                mat = (1.0 - delta) * (gc.T @ wv + ikt * (vc.T @ wv)) - delta * (
                    (1.0 / ikt) * (gc.T @ wg) + vc.T @ wg
                )
                vec = (1.0 - delta) * (vc.T @ (w * gdata)) - (delta / ikt) * (
                    gc.T @ (w * gdata)
                )
            else:
                ika = 1j * k * alpha
                mat = -(vc.T @ wg) + ika * (vc.T @ wv)
                vec = ika * (vc.T @ (w * gdata)) - gc.T @ (w * gdata)
            add(facet.side_a, facet.side_a, mat)
            r0, r1 = dof_map[facet.side_a]
            rhs[r0:r1] += vec
            continue

        el_b = mesh.elements[facet.side_b]
        k_f = problem.facet_wavenumber(el_a.k, el_b.k)
        va, ga = eval_basis_derivative(el_a, rule.points, normal)
        vb, gb = eval_basis_derivative(el_b, rule.points, normal)
        ik = 1j * k_f
        sides = (
            (facet.side_a, va, ga, 1.0),
            (facet.side_b, vb, gb, -1.0),
        )
        for test_id, vt, gt, s_t in sides:
            vtc, gtc = vt.conj().T, gt.conj().T
            for trial_id, vr, gr, s_r in sides:
                wvr = w[:, None] * vr
                wgr = w[:, None] * gr
                mat = gtc @ (0.5 * s_t * wvr - (beta / ik) * s_r * s_t * wgr)
                mat += vtc @ (-0.5 * s_t * wgr + alpha * ik * s_r * s_t * wvr)
                add(test_id, trial_id, mat)

    for eid in mesh.element_ids():
        if (eid, eid) not in blocks:
            raise AssemblyError(f"element {eid} has no facet contributions")
    return GlobalSystem(blocks=blocks, rhs=rhs, dof_map=dof_map, dim=dim)

