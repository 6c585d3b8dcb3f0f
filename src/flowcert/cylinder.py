"""Gaussian surface area and graph distance for rotational graphs over a cylinder.

The reference surface is the round cylinder S^k_sqrt(2k) x R embedded in
R^(n+1) with n = k + 1 (one flat direction, so profiles depend on a single
axial coordinate z).  Hypersurfaces are represented by the radial offset
u(z): the surface radius is r(z) = sqrt(2k) + u(z) on a uniform grid over
[-R_dom, R_dom], pinned to the cylinder (u = 0) at both ends.  The measures
take the grid z and profile rows, and measure every row of a stack at once.
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
        """Closed-form Gaussian area of the round cylinder.

        The sphere factor contributes (4 pi)^(-k/2) w_k (2k)^(k/2) e^(-k/2) and
        the flat direction integrates to exactly 1 under its (4 pi)^(-1/2) share
        of the normalization.
        """
        k = self.k
        return ((4.0 * math.pi) ** (-k / 2.0) * sphere_area(k) * (2.0 * k) ** (k / 2.0)
                * math.exp(-k / 2.0))


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


def graph_F(spec: CylinderSpec, z: np.ndarray, u: np.ndarray, center: float = 0.0,
            scale: float = 1.0):
    """Gaussian area of the rotational graph r = sqrt(2k) + u over the grid z,
    optionally translated along the axis by `center` and dilated by `scale`
    about the origin; over the last axis, so a stack of profiles on one grid
    gives one area per row (an np.float64 for a single row).

    The gridded part uses the trapezoid rule (spectrally accurate here: the
    integrand is smooth and the weight decays like e^(-z^2/4)); the profile
    derivative comes from second-order finite differences of the grid data.
    Beyond the grid the surface is the pinned flat cylinder, so the tail is the
    closed-form flat-cylinder remainder.
    """
    h = z[1] - z[0]
    r = spec.radius + u
    if np.any(r <= 0.0):
        raise PreconditionError("profile reaches r <= 0")
    r_z = np.gradient(r, h, axis=-1)
    w = z * scale + center
    rad = r * scale
    integrand = rad**spec.k * np.sqrt(1.0 + r_z**2) * np.exp(-(rad**2 + w**2) / 4.0)
    norm = (4.0 * math.pi) ** (-spec.n / 2.0) * sphere_area(spec.k)
    interior = norm * scale * np.trapezoid(integrand, dx=h, axis=-1)
    return interior + _flat_tail(spec, float(z[-1]), center=center, scale=scale)


def dist_R(z: np.ndarray, u: np.ndarray, R: float):
    """Distance to the cylinder on the window |z| <= R, the discrete C^2 norm:
    the max of sup|u|, sup|u_z| and sup|u_zz|, the derivatives by central
    differences; over the last axis, so a stack of profiles on one grid gives
    one distance per row (an np.float64 for a single row)."""
    h = z[1] - z[0]
    R_dom = float(z[-1])
    if R > R_dom - 2.0 * h + 1e-12:
        raise PreconditionError(f"need R <= R_dom - 2h = {R_dom - 2.0 * h}, got R={R}")
    if R <= 0:
        raise PreconditionError(f"need R > 0, got R={R}")
    d1 = (u[..., 2:] - u[..., :-2]) / (2.0 * h)
    d2 = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / h**2
    win = window(z, R)
    if not win.any():
        raise PreconditionError(f"no grid point within |z| <= {R} (spacing h={h})")
    win_int = win[1:-1]
    return np.max([np.max(np.abs(u[..., win]), axis=-1), np.max(np.abs(d1[..., win_int]), axis=-1),
                   np.max(np.abs(d2[..., win_int]), axis=-1)], axis=0)


def graph_distance(z: np.ndarray, u1: np.ndarray, u2: np.ndarray, R: float):
    """Distance between profiles on the grid z: dist_R of u1 - u2, broadcast
    over leading axes (a stack of rows against one row measures each)."""
    return dist_R(z, u1 - u2, R)


def estimate_entropy(g: CylinderGraph, centers, scales) -> float:
    """Lower bound for the entropy: max Gaussian area over the supplied grid of
    axial translations and dilations (identity included gives >= graph_F)."""
    try:
        centers, scales = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (centers, scales))
    except (TypeError, ValueError) as exc:  # not numbers, or ragged
        raise InvalidInputError(f"centers and scales must be lists of numbers: {exc}") from None
    if not (centers.ndim == scales.ndim == 1 and centers.size and scales.size
            and np.isfinite(centers).all() and np.isfinite(scales).all() and np.all(scales > 0.0)):
        raise InvalidInputError("need 1-d lists of at least one center and one scale; centers "
                                "must be finite and scales finite and positive")
    best = -math.inf
    for c in scales:
        for z0 in centers:
            best = max(best, graph_F(g.spec, g.z, g.u, center=float(z0), scale=float(c)))
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


def profile_to_csv(z: np.ndarray, u: np.ndarray, path) -> None:
    write_csv(path, ["z", "u"], [z, u])


def profile_from_csv(spec: CylinderSpec, path) -> CylinderGraph:
    """Read what profile_to_csv wrote: the header 'z,u', then one row per node.
    Every refusal names the file: a malformed row, a grid the profile cannot
    live on (InvalidInputError) or a profile reaching r <= 0 (PreconditionError)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:2] != ["z", "u"]:
        raise InvalidInputError(f"{path}: expected header 'z,u'")
    data = []
    for line, row in enumerate(rows[1:] or [[]], start=2):  # no rows: line 2 is empty
        try:
            z, u = row
            data.append((float(z), float(u)))
        except ValueError:
            raise InvalidInputError(f"{path}, line {line}: expected two numbers 'z,u', "
                                    f"got {','.join(row)!r}") from None
    data = np.asarray(data)
    try:
        return CylinderGraph(spec, data[:, 0], data[:, 1])
    except (InvalidInputError, PreconditionError) as exc:  # a short or uneven grid, r <= 0
        raise type(exc)(f"{path}: {exc}") from None
