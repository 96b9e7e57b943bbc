"""Discrete solution: per-element coefficient vectors over the plane waves.

`on_grid` forms u_h on one element's tensor grid from per-axis factors
(`basis.grid_waves` and `basis.grid_sum`, with one grid); its values feed
only the exact-error report, never the mesh.
"""

from dataclasses import dataclass

from .basis import element_directions, grid_sum, grid_waves


@dataclass
class DiscreteSolution:
    """Coefficients keyed by element id, one complex vector of length p_K each."""

    mesh: object
    coefficients: dict

    @classmethod
    def from_vector(cls, mesh, vector, dof_map):
        coeffs = {eid: vector[sl[0] : sl[1]].copy() for eid, sl in dof_map.items()}
        return cls(mesh=mesh, coefficients=coeffs)

    def on_grid(self, element, axes):
        """Values (m,) on one tensor grid of per-axis nodes axes[a] (1, n_a), "ij" order."""
        kd = element.k * element_directions(element)
        factors = grid_waves(kd[None], element.centroid[None], axes)
        return grid_sum(factors, self.coefficients[element.id][None])[0]
