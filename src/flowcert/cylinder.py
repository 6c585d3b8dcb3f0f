"""Gaussian surface area and graph distance for rotational graphs over a cylinder.

The reference surface is the round cylinder S^k_sqrt(2k) x R embedded in
R^(n+1) with n = k + 1 (one flat direction, so profiles depend on a single
axial coordinate z).  Hypersurfaces are represented by the radial offset
u(z): the surface radius is r(z) = sqrt(2k) + u(z) on a uniform grid over
[-R_dom, R_dom], pinned to the cylinder (u = 0) at both ends.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gamma

from .errors import InvalidInputError, PreconditionError


def sphere_area(k: int) -> float:
    """Surface measure of the unit k-sphere: 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got {k}")
    return 2.0 * math.pi ** ((k + 1) / 2.0) / gamma((k + 1) / 2.0)


@dataclass(frozen=True)
class CylinderSpec:
    """Round cylinder S^k_sqrt(2k) x R in R^(n+1), n = k + 1."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise InvalidInputError(f"need integer k >= 1, got {self.k}")

    @property
    def n(self) -> int:
        return self.k + 1

    @property
    def radius(self) -> float:
        return math.sqrt(2.0 * self.k)

    @property
    def F_value(self) -> float:
        return cylinder_F(self)


def cylinder_F(spec: CylinderSpec) -> float:
    """Closed-form Gaussian area of the round cylinder.

    The sphere factor contributes (4 pi)^(-k/2) w_k (2k)^(k/2) e^(-k/2) and the
    flat direction integrates to exactly 1 under its (4 pi)^(-1/2) share of the
    normalization.
    """
    k = spec.k
    return (4.0 * math.pi) ** (-k / 2.0) * sphere_area(k) * (2.0 * k) ** (k / 2.0) * math.exp(-k / 2.0)


def uniform_grid(R_dom: float, h: float) -> np.ndarray:
    """The uniform grid covering [-R_dom, R_dom] with spacing closest to h."""
    n = int(round(2.0 * R_dom / h))
    if n < 4:
        raise InvalidInputError("domain too small for the requested spacing")
    return np.linspace(-R_dom, R_dom, n + 1)


def window(z: np.ndarray, R: float) -> np.ndarray:
    """Mask of the grid nodes in the measurement window |z| <= R."""
    return np.abs(z) <= R + 1e-12


@dataclass(frozen=True, eq=False)
class CylinderGraph:
    """Radial graph r(z) = sqrt(2k) + u(z) on a uniform grid, pinned at the ends.

    Arrays are treated as immutable after construction.
    """

    spec: CylinderSpec
    z: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        u = np.asarray(self.u, dtype=float).copy()
        if z.ndim != 1 or z.size < 5 or z.shape != u.shape:
            raise InvalidInputError("grid and profile must be matching 1-d arrays (>= 5 points)")
        h = z[1] - z[0]
        if h <= 0 or not np.allclose(np.diff(z), h, rtol=0, atol=1e-12 * max(abs(z[0]), 1.0)):
            raise InvalidInputError("grid must be uniform and increasing")
        if not np.all(np.isfinite(u)):
            raise InvalidInputError("profile contains non-finite entries")
        u[0] = 0.0
        u[-1] = 0.0
        if np.any(self.spec.radius + u <= 0.0):
            raise PreconditionError("profile reaches r <= 0; not an embedded rotational graph")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "u", u)

    @property
    def h(self) -> float:
        return float(self.z[1] - self.z[0])

    @property
    def R_dom(self) -> float:
        return float(self.z[-1])

    @property
    def r(self) -> np.ndarray:
        return self.spec.radius + self.u

    @classmethod
    def from_profile(cls, spec: CylinderSpec, R_dom: float, h: float, fn) -> "CylinderGraph":
        """Sample u = fn(z) on uniform_grid(R_dom, h)."""
        z = uniform_grid(R_dom, h)
        return cls(spec, z, np.asarray(fn(z), dtype=float))

    @classmethod
    def zero(cls, spec: CylinderSpec, R_dom: float = 20.0, h: float = 0.05) -> "CylinderGraph":
        return cls.from_profile(spec, R_dom, h, lambda z: np.zeros_like(z))


def _flat_tail(spec: CylinderSpec, R_dom: float, center: float = 0.0, scale: float = 1.0) -> float:
    """Gaussian area of the flat cylinder of radius scale*sqrt(2k), restricted to
    the axial region |z| > R_dom after translating by center and scaling."""
    k = spec.k
    rad = scale * spec.radius
    sphere = (4.0 * math.pi) ** (-spec.n / 2.0) * sphere_area(k) * rad**k * math.exp(-(rad**2) / 4.0)
    # integral of e^(-w^2/4) over w > A is sqrt(pi) * erfc(A/2)
    lo = scale * R_dom - center
    hi = scale * R_dom + center
    axial = math.sqrt(math.pi) * (erfc(hi / 2.0) + erfc(lo / 2.0))
    return sphere * axial


def graph_F(g: CylinderGraph, center: float = 0.0, scale: float = 1.0) -> float:
    """Gaussian area of the rotational graph, optionally translated along the
    axis by `center` and dilated by `scale` about the origin.

    The gridded part uses the trapezoid rule (spectrally accurate here: the
    integrand is smooth and the weight decays like e^(-z^2/4)); the profile
    derivative comes from second-order finite differences of the grid data.
    Beyond the grid the surface is the pinned flat cylinder, so the tail is the
    closed-form flat-cylinder remainder.
    """
    spec, z, h = g.spec, g.z, g.h
    r = g.r
    if np.any(r <= 0.0):
        raise PreconditionError("profile reaches r <= 0")
    r_z = np.gradient(r, h)
    w = z * scale + center
    rad = r * scale
    integrand = rad**spec.k * np.sqrt(1.0 + r_z**2) * np.exp(-(rad**2 + w**2) / 4.0)
    norm = (4.0 * math.pi) ** (-spec.n / 2.0) * sphere_area(spec.k)
    interior = norm * scale * float(np.trapezoid(integrand, dx=h))
    return interior + _flat_tail(spec, g.R_dom, center=center, scale=scale)


def profile_dist(z: np.ndarray, du: np.ndarray, h: float, R: float) -> np.ndarray:
    """Discrete C^2 distance of the offset du on the window |z| <= R: the max of
    sup|du|, sup|du_z| and sup|du_zz|, the derivatives by central differences,
    over the last axis: one call measures every row of a 2-d du."""
    R_dom = float(z[-1])
    if R > R_dom - 2.0 * h + 1e-12:
        raise PreconditionError(f"need R <= R_dom - 2h = {R_dom - 2.0 * h}, got R={R}")
    if R <= 0:
        raise PreconditionError(f"need R > 0, got R={R}")
    d1 = (du[..., 2:] - du[..., :-2]) / (2.0 * h)
    d2 = (du[..., 2:] - 2.0 * du[..., 1:-1] + du[..., :-2]) / h**2
    win = window(z, R)
    if not win.any():
        raise PreconditionError(f"no grid point within |z| <= {R} (spacing h={h})")
    win_int = win[1:-1]
    return np.max([np.max(np.abs(du[..., win]), axis=-1), np.max(np.abs(d1[..., win_int]), axis=-1),
                   np.max(np.abs(d2[..., win_int]), axis=-1)], axis=0)


def dist_R(g: CylinderGraph, R: float) -> float:
    """Distance from the graph to the cylinder on |z| <= R (discrete C^2 norm)."""
    return float(profile_dist(g.z, g.u, g.h, R))


def graph_distance(g1: CylinderGraph, g2: CylinderGraph, R: float) -> float:
    """Distance between two graphs over the same grid: C^2 norm of u1 - u2."""
    if g1.z.shape != g2.z.shape or not np.array_equal(g1.z, g2.z):
        raise InvalidInputError("graphs must share one grid")
    return float(profile_dist(g1.z, g1.u - g2.u, g1.h, R))


def estimate_entropy(g: CylinderGraph, centers, scales) -> float:
    """Lower bound for the entropy: max Gaussian area over the supplied grid of
    axial translations and dilations (identity included gives >= graph_F)."""
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    scales = np.atleast_1d(np.asarray(scales, dtype=float))
    if np.any(scales <= 0.0):
        raise InvalidInputError("scales must be positive")
    best = -math.inf
    for c in scales:
        for z0 in centers:
            best = max(best, graph_F(g, center=float(z0), scale=float(c)))
    return best


def write_csv(path, header: list[str], columns) -> None:
    """Write equal-length numeric columns under a header row: str(int) per cell
    of a column of integer dtype, repr(float) per cell of any other column."""
    cells = [[str(int(v)) for v in col] if np.asarray(col).dtype.kind in "iu"
             else [repr(float(v)) for v in col] for col in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def profile_to_csv(g: CylinderGraph, path) -> None:
    write_csv(path, ["z", "u"], [g.z, g.u])


def profile_from_csv(spec: CylinderSpec, path) -> CylinderGraph:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:2] != ["z", "u"]:
        raise InvalidInputError(f"{path}: expected header 'z,u'")
    data = np.asarray([[float(a), float(b)] for a, b in rows[1:]], dtype=float)
    return CylinderGraph(spec, data[:, 0], data[:, 1])
