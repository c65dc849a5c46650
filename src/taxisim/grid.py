"""Cell-centered structured grids and Neumann-compatible discrete calculus.

Fields live at cell centers; gradients live on faces.  Homogeneous Neumann
boundaries are realized with mirror ghost cells, so boundary-face gradients
vanish identically and the discrete divergence theorem holds exactly:
``integrate(laplacian(f)) == 0`` up to roundoff for any field.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "Domain",
    "Grid",
    "GridBatch",
    "ScalarField",
    "integrate",
    "integrate_array",
    "laplacian",
    "lp_norm",
    "face_quadrature",
    "face_sums",
    "write_field",
    "read_field",
]


# The reductions of the step and the functionals, called directly: `a.max()`,
# `np.sum(a)` and their kin pass through numpy's Python wrappers to these same
# calls.  Each reduces a flat array, or the whole of a multi-axis one with
# `axis=None`.
_max, _min, _sum = np.maximum.reduce, np.minimum.reduce, np.add.reduce

# Face buffers per axis in a grid's work arrays: the flux block's u and v
# faces and the five rows.  A `face_sums` call forms at most this many face
# gradients and means.
FACE_BUFFERS = 7


def _check_dim(dim: int) -> None:
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")


@dataclass(frozen=True)
class Domain:
    """Axis-aligned interval (1D) or rectangle (2D)."""

    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        lengths = tuple(float(L) for L in self.lengths)
        _check_dim(len(lengths))
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

    # Geometry, the hash and the key that equality compares are fixed by the
    # fields, so each is computed on first use and kept; eq, hash, repr and
    # pickles still see only `domain` and `shape`.  Equality checks identity
    # first: `work_arrays` looks grids up twice a step.
    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Grid, (self.domain, self.shape)

    @cached_property
    def _key(self) -> tuple:
        return self.domain.lengths, self.shape

    @cached_property
    def _hash(self) -> int:
        return hash((self.domain, self.shape))

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

    def _face_layout(self):
        """What `work_arrays` lays out: no segment starts, and per axis
        (stride, face_scaling, junk, w, rhs_scalings), with `w` the
        dual volumes of the flat faces and `junk` None or a slice."""
        n, ny = self.num_cells, self.shape[-1]
        axes = []
        for axis, ha in enumerate(self.h):
            stride = math.prod(self.shape[axis + 1:])
            junk = slice(ny - 1, None, ny) if self.dim > 1 and stride == 1 else None
            # per flat cell, the dual volume of its face towards +axis, 0 on
            # the last cell of a line
            w = np.append(face_quadrature(self, axis), 0.0).repeat(stride)
            w = np.tile(w, n // w.size)[:n - stride]
            w.flags.writeable = False
            axes.append((stride, face_scaling(ha), junk, w, rhs_scalings(ha)))
        return None, axes


_FLOAT64 = np.dtype(np.float64)


class ScalarField:
    """One float64 value per cell, row-major over axes."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values, copy: bool = True):
        # hot path: a float64 ndarray of the grid's shape is kept as it is
        if (copy or type(values) is not np.ndarray
                or values.dtype is not _FLOAT64 or values.shape != grid.shape):
            values = np.array(values, dtype=np.float64, copy=copy)
            if values.shape != grid.shape:
                values = values.reshape(grid.shape)
        self.grid = grid
        self.values = values

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)), copy=False)

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values, copy=True)

    def __repr__(self) -> str:
        return f"ScalarField(shape={self.grid.shape}, min={self.values.min():g}, max={self.values.max():g})"


def _axis_slices(ndim: int, axis: int):
    lo = tuple(slice(0, -1) if a == axis else slice(None) for a in range(ndim))
    hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(ndim))
    return lo, hi


def integrate_array(grid: Grid, a: np.ndarray) -> float:
    """Midpoint-rule integral of the cell values `a` over the grid's domain."""
    return float(_sum(a, axis=None)) * grid.cell_volume


def integrate(f: ScalarField) -> float:
    """Midpoint-rule integral over the domain."""
    return integrate_array(f.grid, f.values)


def laplacian(f: ScalarField) -> ScalarField:
    """Divergence of the face gradient (mirror-ghost 2nd-order stencil)."""
    out = np.zeros_like(f.values)
    for axis, ha in enumerate(f.grid.h):
        g = np.diff(f.values, axis=axis) / ha / ha
        lo, hi = _axis_slices(out.ndim, axis)
        out[lo] += g
        out[hi] -= g
    return ScalarField(f.grid, out, copy=False)


def _check_lp_exponent(p: float) -> None:
    if not p >= 1:
        raise ValueError(f"L^p norm needs p >= 1 or p = inf, got {p}")


def lp_norm(f: ScalarField, p: float) -> float:
    """L^p norm via midpoint quadrature; max norm for p = inf."""
    _check_lp_exponent(p)
    if p == math.inf:
        return float(_max(np.abs(f.values), axis=None))
    return float(_sum(np.abs(f.values) ** p, axis=None)
                 * f.grid.cell_volume) ** (1.0 / p)


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


class WorkArrays(NamedTuple):
    """Work arrays of one grid, overwritten by every step (in
    `model.rhs_arrays`), every `face_sums` call and every 2D
    `inequalities.cosine_family` on that grid.

    Face passes run over flattened cells, where the faces of an axis of
    stride s join flat cells k and k + s: each pass is one contiguous
    slice, while numpy copies a strided axis-1 slice inside every ufunc
    call.  On the last axis of a 2D grid the flat faces at `junk` join the
    end of one row to the start of the next; the step zeroes them, and
    their dual volume is 0.0.  Each axis has a flux block of 2N + s values
    for N cells: u faces at [s, N), v faces at [N + s, 2N), and margins
    [0, s), [N, N + s) and [2N, 2N + s) that stay 0.0, so the block from s
    on less its first 2N values is each cell's net flux in u and in v.  For
    N a multiple of 8 every face row starts a 64-byte line: face passes
    measured slower on rows 8 bytes off a line."""

    # rows 2-4 as cell fields: the step's two mobility coefficients and u*v
    coef_d: np.ndarray
    coef_t: np.ndarray
    uv: np.ndarray
    # per axis, flat: (scale, lo, hi, junk, w, faces), with `scale` the
    # axis's `face_scaling`, `w` the read-only dual volumes and `faces` the
    # flux block's u and v faces, then views of the five rows; `junk` is
    # None without junk faces, and a batch has index `junk` and no `scale`
    # or `w` (None)
    axes: tuple
    # per axis, views of the flux block: [s, 2N), [s, 2N + s) and [0, 2N)
    flux: tuple
    # five rows, shaped (5, cells), which hold no margin
    rows: np.ndarray
    # the step's (du, dv) block, shaped (2, *shape); only `stepper.step`
    # and `stepper.run_batch` write it
    duv: np.ndarray
    # per axis, the step's `rhs_scalings`
    scalings: tuple
    # None, or for a `GridBatch` the first cell of each grid
    starts: np.ndarray | None


def face_scaling(h: float) -> tuple:
    """(ufunc, k) with ``ufunc(x, k)`` equal to ``x / h`` bit for bit for
    every float x: (multiply, 1/h) when h is a power of two whose
    reciprocal is finite, else (true_divide, h).  Then 1/h is exact, so
    x * (1/h) and x / h round the same real number, and a multiply costs
    about a third of a divide."""
    if math.frexp(h)[0] == 0.5 and math.isfinite(1.0 / h):
        return np.multiply, 1.0 / h
    return np.true_divide, h


def rhs_scalings(h: float) -> tuple:
    """How `model.rhs_arrays` scales one axis's faces: (grad, k, su, sv).

    The face means are the arithmetic ones left unhalved (d0 + d1), which
    doubles the u flux; `su` undoes that with its final division by h.
    When h is a power of two and c/h^2 is finite and normal for c in
    (0.5, 1), each face row takes one multiply: the gradients stay
    unscaled (`grad` is None), the largest |face difference| is multiplied
    by k = 1/h, and the u and v rows by 0.5/h^2 and 1/h^2.  Otherwise
    `grad` is the gradients' `face_scaling(h)`, k = 1.0, `sv` is
    `face_scaling(h)` and `su` is `face_scaling(2h)`.  Scaling by a power
    of two is exact, so both give the bits of halved means and two
    divisions by h."""
    inv = 1.0 / h
    if math.frexp(h)[0] == 0.5 and all(
            sys.float_info.min <= f * inv * inv < math.inf
            for f in (0.5, 1.0)):
        return None, inv, (np.multiply, 0.5 * inv * inv), (np.multiply,
                                                           inv * inv)
    return face_scaling(h), 1.0, face_scaling(2.0 * h), face_scaling(h)


@dataclass(frozen=True)
class GridBatch:
    """1D grids end to end on one flat axis, so that one `model.rhs_arrays`
    call serves a step of several runs (`stepper.run_batch`).

    Where one grid ends and the next begins lies a junk face, zeroed as on
    2D's last axis.  Each constant of the grids' `rhs_scalings` becomes one
    per-face array of each grid's own constant (k one per grid), and a
    ufunc applied to an array of identical doubles gives the bits of the
    scalar call, so every grid must take the same `rhs_scalings` branch.
    The batch's work arrays (`work`) are built by `work_arrays`' code but
    kept here, out of its cache; they have no face quadrature, so
    `face_sums` takes grids only."""

    grids: tuple[Grid, ...]
    dim = 1

    def __post_init__(self) -> None:
        grids = tuple(self.grids)
        if not grids or any(g.dim != 1 for g in grids):
            raise ValueError("a grid batch needs one or more 1D grids")
        kinds = {(grad and grad[0], su[0], sv[0]) for grad, _, su, sv
                 in (rhs_scalings(g.h[0]) for g in grids)}
        if len(kinds) > 1:
            raise ValueError("the grids of a batch must take one branch of "
                             "rhs_scalings: h a power of two in all or none")
        object.__setattr__(self, "grids", grids)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(g.shape[0] for g in self.grids)

    @cached_property
    def starts(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.sizes, initial=0))[:-1]

    @cached_property
    def shape(self) -> tuple[int]:
        return (sum(self.sizes),)

    @property
    def num_cells(self) -> int:
        return self.shape[0]

    @cached_property
    def work(self) -> "WorkArrays":
        return work_arrays.__wrapped__(self)

    def _face_layout(self):
        """As `Grid._face_layout`, for one axis of stride 1 with per-face
        scalings and no face quadrature."""
        n, sizes = self.num_cells, self.sizes
        ends = np.array(self.starts[1:], dtype=np.intp)
        # u faces, a margin value and v faces are one flat run of 2n - 1
        # values: the faces before a grid's first cell i are i - 1 (u) and
        # n + i - 1 (v)
        junk = np.concatenate((ends - 1, ends - 1 + n))

        def per_face(ks):  # each grid's constant on its faces and next junk
            return np.repeat(ks, sizes)[:-1]

        grads, ks, sus, svs = zip(*(rhs_scalings(g.h[0]) for g in self.grids))
        grad = grads[0]
        if grad is not None:  # it scales the u faces, margin and v faces
            hs = per_face([g[1] for g in grads])
            grad = grad[0], np.concatenate((hs, [1.0], hs))
        su, sv = ((s[0][0], per_face([k for _, k in s])) for s in (sus, svs))
        return (np.array(self.starts, dtype=np.intp),
                [(1, None, junk, None, (grad, np.array(ks), su, sv))])


@functools.lru_cache(maxsize=4)
def work_arrays(grid: Grid) -> WorkArrays:
    """The grid's work arrays, allocated on first use and then reused, so
    neither a step nor a face pass allocates field-sized temporaries.  Calls
    on one grid must not run concurrently in threads of one process.  A
    `GridBatch` keeps its own (`GridBatch.work`), built by this code."""
    def zeros(size, first=0):  # element `first` starts a 64-byte line
        raw = np.zeros(size + 8)
        return raw[-(raw.__array_interface__["data"][0] // 8 + first) % 8:][:size]
    n = grid.num_cells
    rows = zeros(5 * n).reshape(5, n)
    starts, layout = grid._face_layout()
    axes, flux = [], []
    for stride, scale, junk, w, _ in layout:
        nf = n - stride
        block = zeros(2 * n + stride, stride)
        axes.append((scale, slice(None, nf), slice(stride, None), junk, w,
                     (block[stride:n], block[n + stride:2 * n])
                     + tuple(r[:nf] for r in rows)))
        flux.append((block[stride:2 * n], block[stride:], block[:2 * n]))
    scalings = tuple(axis[4] for axis in layout)
    return WorkArrays(*(r.reshape(grid.shape) for r in rows[2:]), tuple(axes),
                      tuple(flux), rows, zeros(2 * n).reshape(2, *grid.shape),
                      scalings, starts)


def face_sums(grid: Grid, integrand, grads=(), means=()) -> list[float]:
    """Interior-face sums of several integrands in one pass over the axes.

    Per axis, the face gradients of the arrays in `grads` and the arithmetic
    face means of the arrays in `means` are formed once, over flattened
    cells in the grid's work arrays (see `WorkArrays`), and
    ``integrand(*gradients, *means, w, spare)`` is called: `w` holds the
    dual volumes and `spare` the remaining face buffers of the work arrays.
    The integrand yields face arrays, each a product with `w`, so a junk
    face adds exactly 0; the k-th total sums the k-th array it yields, and
    per-axis sums accumulate in axis order.  Each array is summed as it is
    yielded, so the integrand may then overwrite it, any spare buffer, and
    any face array it no longer needs.

    The work arrays hold `FACE_BUFFERS` face buffers per axis, so at most
    that many gradients and means together: more raise a ValueError before
    any pass.
    """
    n = len(grads) + len(means)
    if n > FACE_BUFFERS:
        raise ValueError(f"face_sums forms at most {FACE_BUFFERS} face "
                         f"gradients and means, got {n}")
    grads = [a.reshape(-1) for a in grads]
    means = [a.reshape(-1) for a in means]
    totals = []
    for (scale, k), lo, hi, _, w, faces in work_arrays(grid).axes:
        for a, out in zip(grads, faces):
            np.subtract(a[hi], a[lo], out=out)
            scale(out, k, out=out)  # out /= h
        for a, out in zip(means, faces[len(grads):n]):
            np.add(a[lo], a[hi], out=out)
            out *= 0.5
        sums = [float(_sum(f)) for f in integrand(*faces[:n], w, faces[n:])]
        totals = [t + s for t, s in zip(totals or [0.0] * len(sums), sums)]
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
        header = fh.readline()
        if not header.endswith(b"\n"):
            raise ValueError(f"truncated field header in {path}")
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
