"""Benchmark Helmholtz problems with closed-form solutions.

Four problem kinds drive the solver and its tests:

* ``hankel_source``: cylindrical wave H1_0(k|x - x_s|) radiating from
  x_s = (-1/4, 0) just outside the unit square, its only domain; Robin data.
* ``singular_corner``: J_{2/3}(k r) sin(2 theta / 3) on the L-shaped
  domain, the canonical reentrant-corner solution with an r^{2/3}
  singularity at the origin.
* ``transmission``: a plane wave hitting the y = 0 interface between
  media with wavenumbers k1 = n1*omega (below) and k2 = n2*omega
  (above), producing reflected plus transmitted (or evanescent) waves;
  Dirichlet data everywhere.  The incidence angle is measured from the
  interface, so grazing angles below the critical one are evanescent.
* ``plane_wave``: exp(i k d . x) in any dimension; Robin data.

Robin data is g_R = du/dn + i k u with n the outward normal.

The wavenumber rule lives here alone, on arrays: `ProblemSpec.wavenumber`
per point (root centroids, Robin data) and `facet_wavenumber` per interior
facet, which is omega between the two transmission media.

`exact_solution` and `boundary_data` define the values point by point.
The passes read them on tensor Gauss grids through `exact_on_grid` and
`boundary_on_grid`.  A plane wave factors over the axes, exp(i k d . x) =
prod_a exp(i k d_a x_a), so on a grid of n_a nodes per axis it takes
sum n_a cos/sin pairs per grid, not prod n_a complex exponentials (sum
factorisation, as `tdg.basis.grid_waves` does for the discrete waves).  Its
grid values are products of rounded factors, so they differ from the
pointwise ones in the last bits.  The other kinds expand their grids to
points and are evaluated pointwise, bit for bit.
"""

from dataclasses import dataclass
from functools import cached_property
from math import cos, inf, radians, sin

import numpy as np

from .basis import element_directions, grid_sum, grid_waves
from .quadrature import cis, grid_points, outer_rows, volume_rule
from .special import bessel_j, hankel1

HANKEL_SOURCE = np.array([-0.25, 0.0])
PROBLEM_KINDS = ("plane_wave", "hankel_source", "singular_corner", "transmission")


def _on_points(evaluate, axes):
    """evaluate(points) on the F tensor grids of `axes` expanded to points, as (F, m)."""
    pts = grid_points(axes)
    return evaluate(pts.reshape(-1, pts.shape[2])).reshape(pts.shape[:2])


class ProblemError(Exception):
    """Inconsistent problem parameters."""


class SingularPointError(ProblemError):
    """Gradient requested at a singular point of the exact solution."""


@dataclass(frozen=True)
class ProblemSpec:
    """A Helmholtz benchmark problem on a fixed domain."""

    kind: str
    domain: object
    k: float | None = None
    direction: tuple | None = None
    omega: float | None = None
    index_below: float | None = None
    index_above: float | None = None
    incidence_deg: float | None = None

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ProblemError(f"unknown problem kind {self.kind!r}")
        # Written as 0 < x < inf, so that nan fails too.
        if self.kind == "transmission":
            for name in ("omega", "index_below", "index_above", "incidence_deg"):
                value = getattr(self, name)
                if value is None:
                    raise ProblemError(f"transmission problem needs {name}")
                low, what = ((-inf, "finite") if name == "incidence_deg"
                             else (0, "positive and finite"))
                if not low < value < inf:
                    raise ProblemError(f"transmission {name} must be {what}, got {value}")
        elif self.k is None or not 0 < self.k < inf:
            raise ProblemError(f"{self.kind} needs a positive finite wavenumber, got {self.k}")
        if self.kind == "plane_wave":
            d = np.asarray(self.direction if self.direction is not None else (), dtype=float)
            with np.errstate(over="ignore"):
                length = np.linalg.norm(d)  # as _unit_direction divides by it
            if d.shape != (self.domain.dim,) or not 0.0 < length < np.inf:
                raise ProblemError(f"plane_wave direction needs {self.domain.dim} components "
                                   f"and a finite nonzero length, got {self.direction}")
        if self.kind == "hankel_source" and self.domain.kind != "unit_square":
            raise ProblemError("hankel_source is defined on the unit_square domain")
        if self.kind == "singular_corner" and self.domain.kind != "l_shape":
            raise ProblemError("singular_corner is defined on the l_shape domain")
        if self.kind == "transmission" and self.domain.kind != "square2":
            raise ProblemError("transmission is defined on the square2 domain")

    # transmission-derived quantities ------------------------------------
    @cached_property
    def k_below(self):
        return self.index_below * self.omega

    @cached_property
    def k_above(self):
        return self.index_above * self.omega

    @cached_property
    def _transmission_waves(self):
        """Tangential/normal wavenumbers and reflection data at y = 0.

        The tangential component K1 = k1 cos(theta_i) is shared by both
        media; the transmitted normal component solves K1^2 + K2^2 =
        k2^2 with Im K2 >= 0, turning evanescent below the critical
        angle.  Matching value and normal flux at the interface gives
        R = (k1 sin(theta_i) - K2) / (k1 sin(theta_i) + K2), T = 1 + R.
        """
        theta = radians(self.incidence_deg)
        k1 = self.k_below
        kx = k1 * cos(theta)
        ky = k1 * sin(theta)
        k2sq = self.k_above**2
        disc = complex(k2sq - kx * kx)
        ktrans = np.sqrt(disc)
        if ktrans.imag < 0:
            ktrans = -ktrans
        refl = (ky - ktrans) / (ky + ktrans)
        return kx, ky, ktrans, refl, 1.0 + refl

    @cached_property
    def _unit_direction(self):
        d = np.asarray(self.direction, dtype=float)
        return d / np.linalg.norm(d)

    # generic interface -------------------------------------------------
    def wavenumber(self, points):
        """The wavenumber (m,) at points (m, d); points on the interface y = 0 are below."""
        if self.kind == "transmission":
            return np.where(points[:, 1] <= 0.0, self.k_below, self.k_above)
        return np.full(len(points), float(self.k))

    def facet_wavenumber(self, k_a, k_b):
        """Coefficient wavenumbers (F,) of facets between elements with k_a, k_b (F,)."""
        if self.kind == "transmission":
            return np.where(k_a == k_b, k_a, self.omega)
        if np.any(k_a != k_b):
            raise ProblemError(f"{self.kind} facets between different wavenumbers")
        return k_a

    def exact_solution(self, points, gradient=False):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "hankel_source":
            return self._hankel(pts, gradient)
        if self.kind == "singular_corner":
            return self._corner(pts, gradient)
        if self.kind == "transmission":
            return self._transmission(pts, gradient)
        return self._plane_wave(pts, gradient)

    def _plane_wave(self, pts, gradient):
        d = self._unit_direction
        u = np.exp(1j * self.k * pts @ d)
        if not gradient:
            return u
        return u, 1j * self.k * u[:, None] * d[None, :]

    def _hankel(self, pts, gradient):
        rel = pts - HANKEL_SOURCE
        r = np.linalg.norm(rel, axis=1)
        u = hankel1(0, self.k * r)
        if not gradient:
            return u
        dh = -self.k * hankel1(1, self.k * r)
        grad = dh[:, None] * rel / r[:, None]
        return u, grad

    def _corner(self, pts, gradient):
        r = np.linalg.norm(pts, axis=1)
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        theta = np.where(theta < 0, theta + 2.0 * np.pi, theta)
        kr = self.k * r
        j = bessel_j(2.0 / 3.0, kr)
        u = (j * np.sin(2.0 * theta / 3.0)).astype(complex)
        if not gradient:
            return u
        if np.any(r < 1e-13):
            raise SingularPointError("gradient is singular at the reentrant corner")
        # J'_nu(z) = (nu/z) J_nu(z) - J_{nu+1}(z)
        dj = (2.0 / 3.0) / kr * j - bessel_j(5.0 / 3.0, kr)
        du_dr = self.k * dj * np.sin(2.0 * theta / 3.0)
        du_dth_over_r = (2.0 / 3.0) / r * j * np.cos(2.0 * theta / 3.0)
        ct, st = np.cos(theta), np.sin(theta)
        grad = np.stack(
            [du_dr * ct - du_dth_over_r * st, du_dr * st + du_dth_over_r * ct],
            axis=1,
        ).astype(complex)
        return u, grad

    def _transmission(self, pts, gradient):
        kx, ky, ktrans, refl, trans = self._transmission_waves
        x, y = pts[:, 0], pts[:, 1]
        below = y <= 0.0
        inc = np.exp(1j * (kx * x + ky * y))
        ref = refl * np.exp(1j * (kx * x - ky * y))
        tra = trans * np.exp(1j * (kx * x + ktrans * y))
        u = np.where(below, inc + ref, tra)
        if not gradient:
            return u
        gx = np.where(below, 1j * kx * (inc + ref), 1j * kx * tra)
        gy = np.where(below, 1j * ky * (inc - ref), 1j * ktrans * tra)
        return u, np.stack([gx, gy], axis=1)

    def boundary_data(self, tag, points, normal):
        """Robin data g_R = du/dn + i k u or Dirichlet data g_D = u."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if tag == "dirichlet":
            return self.exact_solution(pts)
        if tag != "robin":
            raise ProblemError(f"unknown boundary tag {tag!r}")
        u, grad = self.exact_solution(pts, gradient=True)
        return (grad @ np.asarray(normal, dtype=float)
                + 1j * self.wavenumber(pts) * u)

    # values on tensor grids ---------------------------------------------
    def exact_on_grid(self, axes):
        """u on F tensor grids, (F, prod n_a) in "ij" order (first axis slowest).

        axes[a] (F, n_a) holds grid f's nodes along axis a, so the values
        line up with volume_rule's points and grid_points(FacetBatch.grid_axes()).
        """
        if self.kind == "plane_wave":
            return outer_rows(self._plane_wave_factors(axes))
        return _on_points(self.exact_solution, axes)

    def boundary_on_grid(self, tag, axes, normal):
        """boundary_data on F tensor grids sharing one normal, laid out as exact_on_grid."""
        if self.kind != "plane_wave":
            return _on_points(lambda pts: self.boundary_data(tag, pts, normal), axes)
        if tag == "dirichlet":
            return self.exact_on_grid(axes)
        if tag != "robin":
            raise ProblemError(f"unknown boundary tag {tag!r}")
        # grad u = i k u d, so du/dn + i k u = i k (d.n + 1) u.
        ikn = 1j * self.k * (self._unit_direction @ np.asarray(normal, dtype=float) + 1.0)
        return ikn * outer_rows(self._plane_wave_factors(axes))

    def _plane_wave_factors(self, axes):
        """exp(i k d_a x_a) (F, n_a) per axis."""
        return [cis(self.k * d_a * nodes) for d_a, nodes in zip(self._unit_direction, axes)]


def l2_errors(mesh, coefficients, problem, cache=None):
    """(||u - u_hp||_L2, ||u||_L2) over the mesh, by per-element quadrature.

    `coefficients` maps each element id to its coefficient vector, as
    `GlobalSystem.split` gives them.  u_hp (one-grid `basis.grid_waves` and
    `grid_sum` calls) and u (ProblemSpec.exact_on_grid) are both evaluated
    on each element's tensor Gauss grid from the volume rule's axes; the
    rule's points are never built.  Elements are summed in id order.

    `cache` maps (level, cell, points per axis, k) to u on that element's
    rule, which depends on neither the frame nor the coefficients, so only
    elements missing from it are evaluated; on return it holds exactly the
    current mesh's keys.  The caller keeps it across the steps of one
    problem and never shares it between problems; None keeps nothing.
    """
    keys = set()
    err_sq = 0.0
    norm_sq = 0.0
    for eid in mesh.element_ids():
        el = mesh.elements[eid]
        rule = volume_rule(el)
        key = (el.level, el.cell, rule.axes[0].shape[1], el.k)
        keys.add(key)
        u_ex = None if cache is None else cache.get(key)
        if u_ex is None:
            u_ex = problem.exact_on_grid(rule.axes)[0]
            if cache is not None:
                cache[key] = u_ex
        factors = grid_waves(el.k * element_directions(el)[None], el.centroid[None], rule.axes)
        u_h = grid_sum(factors, coefficients[eid][None])[0]
        err_sq += float(rule.weights @ np.abs(u_ex - u_h) ** 2)
        norm_sq += float(rule.weights @ np.abs(u_ex) ** 2)
    if cache is not None:
        for key in cache.keys() - keys:
            del cache[key]
    return np.sqrt(err_sq), np.sqrt(norm_sq)
