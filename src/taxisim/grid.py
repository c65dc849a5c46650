"""Cell-centered structured grids and Neumann-compatible discrete calculus.

Fields live at cell centers; gradients live on faces.  Homogeneous Neumann
boundaries are realized with mirror ghost cells, so boundary-face gradients
vanish identically and the discrete divergence theorem holds exactly:
``integrate(laplacian(f)) == 0`` up to roundoff for any field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Domain",
    "Grid",
    "ScalarField",
    "integrate",
    "face_gradient",
    "divergence",
    "laplacian",
    "lp_norm",
    "face_quadrature",
    "face_sums",
    "interior_face_gradient",
    "interior_face_mean",
    "write_field",
    "read_field",
]


@dataclass(frozen=True)
class Domain:
    """Axis-aligned interval (1D) or rectangle (2D)."""

    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        lengths = tuple(float(L) for L in self.lengths)
        if len(lengths) not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {len(lengths)}")
        if any(L <= 0 for L in lengths):
            raise ValueError(f"lengths must be positive, got {lengths}")
        object.__setattr__(self, "lengths", lengths)

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid over a Domain."""

    domain: Domain
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        shape = tuple(int(n) for n in self.shape)
        if len(shape) != self.domain.dim:
            raise ValueError(
                f"grid shape {shape} does not match domain dim {self.domain.dim}"
            )
        if any(n < 2 for n in shape):
            raise ValueError(f"shape needs at least 2 cells per axis, got {shape}")
        object.__setattr__(self, "shape", shape)

    # Geometry is fixed by the fields, so it is computed on first use and
    # kept; eq, hash and repr still see only `domain` and `shape`.
    @cached_property
    def dim(self) -> int:
        return self.domain.dim

    @cached_property
    def h(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.domain.lengths, self.shape))

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def centers(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        return (np.arange(n) + 0.5) * self.h[axis]

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*(self.centers(a) for a in range(self.dim)),
                                indexing="ij"))


class ScalarField:
    """One float64 value per cell, row-major over axes."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values, copy: bool = True):
        a = np.array(values, dtype=np.float64, copy=copy)
        if a.shape != grid.shape:
            a = a.reshape(grid.shape)
        self.grid = grid
        self.values = a

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)), copy=False)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        """Sample ``fn(*coords)`` at cell centers."""
        return cls(grid, fn(*grid.meshgrid()), copy=False)

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values, copy=True)

    def __repr__(self) -> str:
        return f"ScalarField(shape={self.grid.shape}, min={self.values.min():g}, max={self.values.max():g})"


def _axis_slices(ndim: int, axis: int):
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def integrate(f: ScalarField) -> float:
    """Midpoint-rule integral over the domain."""
    return float(np.sum(f.values)) * f.grid.cell_volume


def interior_face_gradient(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Difference quotient on the interior faces of one axis."""
    return np.diff(values, axis=axis) / h


def interior_face_mean(values: np.ndarray, axis: int,
                       kind: str = "arithmetic") -> np.ndarray:
    """Average adjacent cell values to the interior faces of one axis."""
    lo, hi = _axis_slices(values.ndim, axis)
    a, b = values[lo], values[hi]
    if kind == "arithmetic":
        return 0.5 * (a + b)
    if kind == "harmonic":
        return 2.0 * a * b / (a + b)
    raise ValueError(f"unknown face mean {kind!r}")


def face_gradient(f: ScalarField) -> tuple[np.ndarray, ...]:
    """Per-axis face gradients including boundary faces, which carry 0."""
    out = []
    for axis, h in enumerate(f.grid.h):
        shape = list(f.grid.shape)
        shape[axis] += 1
        g = np.zeros(shape)
        inner = [slice(None)] * f.values.ndim
        inner[axis] = slice(1, -1)
        g[tuple(inner)] = interior_face_gradient(f.values, axis, h)
        out.append(g)
    return tuple(out)


def divergence(grid: Grid, fluxes: tuple[np.ndarray, ...]) -> ScalarField:
    """Divergence of per-axis face fluxes (boundary faces included)."""
    out = np.zeros(grid.shape)
    for axis, h in enumerate(grid.h):
        out += np.diff(fluxes[axis], axis=axis) / h
    return ScalarField(grid, out, copy=False)


def _laplacian_array(a: np.ndarray, h: tuple[float, ...]) -> np.ndarray:
    out = np.zeros_like(a)
    for axis, ha in enumerate(h):
        g = np.diff(a, axis=axis) / ha
        lo, hi = _axis_slices(a.ndim, axis)
        out[lo] += g / ha
        out[hi] -= g / ha
    return out


def laplacian(f: ScalarField) -> ScalarField:
    """Divergence of the face gradient (mirror-ghost 2nd-order stencil)."""
    return ScalarField(f.grid, _laplacian_array(f.values, f.grid.h), copy=False)


def lp_norm(f: ScalarField, p: float) -> float:
    """L^p norm via midpoint quadrature; max norm for p = inf."""
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError(f"L^p norm needs p >= 1 or p = inf, got {p}")
    return float(np.sum(np.abs(f.values) ** p) * f.grid.cell_volume) ** (1.0 / p)


def face_quadrature(grid: Grid, axis: int) -> np.ndarray:
    """Dual volumes of the interior faces along one axis.

    The half-cells hugging each boundary are merged into their nearest
    interior face, so the dual volumes tile the domain exactly and
    face-based functional sums stay second-order accurate for smooth
    integrands.  The returned array broadcasts against interior-face arrays.
    """
    n = grid.shape[axis]
    h = grid.h[axis]
    w = np.full(n - 1, h)
    w[0] += 0.5 * h
    w[-1] += 0.5 * h
    w *= grid.cell_volume / h  # transverse cell area
    shape = [1] * grid.dim
    shape[axis] = n - 1
    return w.reshape(shape)


def face_sums(grid: Grid, integrands, grads=(), means=()) -> list[float]:
    """Interior-face sums of several integrands in one pass over the axes.

    Per axis, the face gradients of the arrays in `grads`, the arithmetic
    face means of the arrays in `means` and the dual volumes `w` are formed
    once; each integrand is called as ``f(*gradients, *means, w)`` and its
    face array summed.  Per-axis sums accumulate in axis order.
    """
    totals = [0.0] * len(integrands)
    for axis, h in enumerate(grid.h):
        faces = [interior_face_gradient(a, axis, h) for a in grads]
        faces += [interior_face_mean(a, axis) for a in means]
        faces.append(face_quadrature(grid, axis))
        for i, f in enumerate(integrands):
            totals[i] += float(np.sum(f(*faces)))
    return totals


def write_field(path, f: ScalarField) -> None:
    """Snapshot format: ASCII header ``dim nx [ny] Lx [Ly]``, then raw
    little-endian float64 cell values in row-major order."""
    dims = " ".join(str(n) for n in f.grid.shape)
    lens = " ".join(repr(L) for L in f.grid.domain.lengths)
    header = f"{f.grid.dim} {dims} {lens}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        header = b""
        while not header.endswith(b"\n"):
            c = fh.read(1)
            if not c:
                raise ValueError(f"truncated field header in {path}")
            header += c
        parts = header.decode("ascii").split()
        dim = int(parts[0])
        if dim not in (1, 2) or len(parts) != 1 + 2 * dim:
            raise ValueError(f"malformed field header {header!r} in {path}")
        shape = tuple(int(p) for p in parts[1:1 + dim])
        lengths = tuple(float(p) for p in parts[1 + dim:])
        grid = Grid(Domain(lengths), shape)
        data = np.frombuffer(fh.read(), dtype="<f8")
        if data.size != grid.num_cells:
            raise ValueError(f"field payload size mismatch in {path}")
        return ScalarField(grid, data.reshape(shape), copy=True)
