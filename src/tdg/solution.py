"""Discrete solution: per-element coefficient vectors over the plane waves.

Facet traces need only the derivative along the facet normal, so
`value_and_derivative` contracts the coefficients with the values and
the directional derivatives from `basis.eval_basis_derivative` instead of
with a full gradient tensor.
"""

from dataclasses import dataclass

import numpy as np

from .basis import element_directions, eval_basis, eval_basis_derivative


@dataclass
class DiscreteSolution:
    """Coefficients keyed by element id, one complex vector of length p_K each."""

    mesh: object
    coefficients: dict

    @classmethod
    def from_vector(cls, mesh, vector, dof_map):
        coeffs = {eid: vector[sl[0] : sl[1]].copy() for eid, sl in dof_map.items()}
        return cls(mesh=mesh, coefficients=coeffs)

    def value(self, element, points):
        values = eval_basis(element, points, order=0)
        return values @ self.coefficients[element.id]

    def value_and_derivative(self, element, points, direction):
        """Values and derivatives along `direction` at the points, each (m,)."""
        values, dvals = eval_basis_derivative(element, points, direction)
        coeff = self.coefficients[element.id]
        return values @ coeff, np.einsum("mp,p->m", dvals, coeff)

    def at_centroid(self, element):
        """(value, gradient) at the element centroid, in closed form."""
        coeff = self.coefficients[element.id]
        dirs = element_directions(element)
        value = np.sum(coeff)
        grad = 1j * element.k * (coeff @ dirs)
        return value, grad

    def hessians_at_centroid(self, element):
        """Hessians of (Re u, Im u) at the centroid: two real symmetric matrices."""
        coeff = self.coefficients[element.id]
        dirs = element_directions(element)
        outer = np.einsum("pd,pe->pde", dirs, dirs)
        hess = -(element.k**2) * np.einsum("p,pde->de", coeff, outer)
        return hess.real.copy(), hess.imag.copy()
