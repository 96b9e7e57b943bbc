"""Discrete solution: per-element coefficient vectors over the plane waves.

Facet traces need only the derivative along the facet normal, so
`value_and_derivative` contracts the coefficients with the values and
the directional derivatives from `basis.eval_basis_derivative` instead of
with a full gradient tensor.

On a tensor grid a plane wave factors over the axes,
exp(i k d.(x - x_K)) = prod_a exp(i k d_a (x_a - x_K,a)), so `on_grid`
builds dim * n * p per-axis factors instead of n^dim * p values and sums
the waves with one matrix product (sum factorization).  Its values are
products of rounded factors, so they differ from eval_basis @ c in the
last bits; they feed only the exact-error report, never the mesh.
"""

from dataclasses import dataclass

import numpy as np

from .basis import element_directions, eval_basis_derivative


@dataclass
class DiscreteSolution:
    """Coefficients keyed by element id, one complex vector of length p_K each."""

    mesh: object
    coefficients: dict

    @classmethod
    def from_vector(cls, mesh, vector, dof_map):
        coeffs = {eid: vector[sl[0] : sl[1]].copy() for eid, sl in dof_map.items()}
        return cls(mesh=mesh, coefficients=coeffs)

    def on_grid(self, element, axis_points):
        """Values on the tensor grid of per-axis points (dim, n), "ij" order.

        The factors E_a = exp(i k d_a (x_a - x_K,a)), each (n, p), are
        written as cos/sin in place, as eval_basis does; the grid values
        are ((E_0 * ... * E_{dim-2}) * c) @ E_{dim-1}^T, ravelled.
        """
        ikd = 1j * element.k * element_directions(element)
        factors = (axis_points - element.centroid[:, None])[:, :, None] * ikd.T[:, None, :]
        np.cos(factors.imag, out=factors.real)
        np.sin(factors.imag, out=factors.imag)
        head = self.coefficients[element.id]
        for factor in factors[:-1]:
            head = head[..., None, :] * factor
        return (head.reshape(-1, head.shape[-1]) @ factors[-1].T).ravel()

    def value_and_derivative(self, element, points, direction):
        """Values and derivatives along `direction` at the points, each (m,)."""
        values, dvals = eval_basis_derivative(element, points, direction)
        coeff = self.coefficients[element.id]
        return values @ coeff, np.einsum("mp,p->m", dvals, coeff)

    def hessians_at_centroid(self, element):
        """Hessians of (Re u, Im u) at the centroid: two real symmetric matrices."""
        coeff = self.coefficients[element.id]
        dirs = element_directions(element)
        outer = np.einsum("pd,pe->pde", dirs, dirs)
        hess = -(element.k**2) * np.einsum("p,pde->de", coeff, outer)
        return hess.real.copy(), hess.imag.copy()
