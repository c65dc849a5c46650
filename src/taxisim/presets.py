"""Initial-data presets: nonnegative bacteria u0 and strictly positive
nutrient v0 on a given grid."""
from __future__ import annotations

import math

import numpy as np

from .grid import Grid, ScalarField

__all__ = ["PRESET_PARAMS", "preset_defaults", "check_preset", "make_initial"]

_FRONT_MODES = 4  # low-frequency cosine noise band

# Per-preset parameter names with defaults (None = computed later).
PRESET_PARAMS = {
    "constant": {"a": 1.0, "b": 1.0},
    "gaussian_colony": {"amplitude": 1.0, "width": 0.1, "v": 1.0,
                        "center": None},
    "perturbed_front": {"base": 1.0, "noise_amp": 0.01, "v": 1.0},
    "checker": {"lo": 0.5, "hi": 1.5, "tiles": 4.0, "v": 1.0},
}


def preset_defaults(preset: str) -> dict:
    """The preset's parameters with their defaults."""
    if preset not in PRESET_PARAMS:
        raise ValueError(f"unknown preset {preset!r}; "
                         f"choose from {sorted(PRESET_PARAMS)}")
    return PRESET_PARAMS[preset]


def _spread(width: float) -> float:
    """2 width^2, the Gaussian's denominator; inf where it overflows."""
    try:
        return 2.0 * width ** 2
    except OverflowError:
        return math.inf


def check_preset(params: dict, dim: int) -> None:
    """Reject `params`, a full parameter set of one preset, if it cannot
    give u0 >= 0 and v0 > 0 on a `dim`-dimensional grid.  The ValueError
    starts with the parameter's name."""
    for k, x in params.items():
        if k in ("a", "lo", "noise_amp") and not x >= 0:
            raise ValueError(f"{k} must be >= 0, got {x}")
        if k in ("b", "v", "amplitude", "width", "base") and not x > 0:
            raise ValueError(f"{k} must be > 0, got {x}")
    if "width" in params and not 0.0 < _spread(params["width"]) < math.inf:
        raise ValueError("width must keep 2 width^2 a positive finite float, "
                         f"got {params['width']}")
    if params.get("center") is not None and len(params["center"]) != dim:
        raise ValueError(f"center needs {dim} coordinates")
    if "noise_amp" in params and not params["noise_amp"] < params["base"]:
        raise ValueError("noise_amp must be below base")
    if "hi" in params and not params["lo"] <= params["hi"]:
        raise ValueError("hi must be >= lo")
    if "tiles" in params and int(params["tiles"]) < 1:
        raise ValueError("tiles must be >= 1")


def make_initial(preset: str, grid: Grid, params: dict,
                 seed: int = 0) -> tuple[ScalarField, ScalarField]:
    """(u0, v0) of `preset` on `grid`; a parameter missing from `params`
    takes its default from PRESET_PARAMS."""
    params = {**preset_defaults(preset), **params}
    if preset == "constant":
        return (ScalarField.full(grid, params["a"]),
                ScalarField.full(grid, params["b"]))

    v0 = ScalarField.full(grid, params["v"])

    if preset == "gaussian_colony":
        amplitude = params["amplitude"]
        width = params["width"]
        center = params["center"]
        if center is None:
            center = [0.5 * L for L in grid.domain.lengths]
        coords = grid.meshgrid()
        r2 = np.zeros(grid.shape)
        for axis, c in enumerate(center):
            r2 += (coords[axis] - c) ** 2
        u0 = ScalarField(grid, amplitude * np.exp(-r2 / _spread(width)),
                         copy=False)
        return u0, v0

    if preset == "perturbed_front":
        base = params["base"]
        noise_amp = params["noise_amp"]
        rng = np.random.default_rng(seed)
        coords = grid.meshgrid()
        noise = np.zeros(grid.shape)
        weight = 0.0
        for k in range(1, _FRONT_MODES + 1):
            for axis in range(grid.dim):
                c = rng.uniform(-1.0, 1.0)
                noise += c * np.cos(k * np.pi * coords[axis]
                                    / grid.domain.lengths[axis])
                weight += abs(c)
        if weight > 0.0:
            noise *= noise_amp / weight  # |perturbation| <= noise_amp < base
        u0 = ScalarField(grid, base + noise, copy=False)
        return u0, v0

    # checker
    lo = params["lo"]
    hi = params["hi"]
    tiles = int(params["tiles"])
    coords = grid.meshgrid()
    parity = np.zeros(grid.shape, dtype=int)
    for axis in range(grid.dim):
        parity += np.floor(coords[axis] / grid.domain.lengths[axis]
                           * tiles).astype(int)
    u0 = ScalarField(grid, np.where(parity % 2 == 0, lo, hi), copy=False)
    return u0, v0
