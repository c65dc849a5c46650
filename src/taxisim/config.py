"""Declarative run configuration.

The config format is line-oriented ``section.key = value`` text with at most
one dot per key; ``#`` starts a comment.  Unknown keys and duplicate keys are
hard errors, so configs stay diffable and typo-proof.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace, asdict

from .grid import Domain, Grid
from .model import ModelParams
from .stepper import StepControl

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config",
           "config_to_dict", "PRESET_PARAMS"]


class ConfigError(ValueError):
    pass


# Per-preset parameter names with defaults (None = computed later).
PRESET_PARAMS = {
    "constant": {"a": 1.0, "b": 1.0},
    "gaussian_colony": {"amplitude": 1.0, "width": 0.1, "v": 1.0,
                        "center": None},
    "perturbed_front": {"base": 1.0, "noise_amp": 0.01, "v": 1.0},
    "checker": {"lo": 0.5, "hi": 1.5, "tiles": 4.0, "v": 1.0},
}


@dataclass(frozen=True)
class RunConfig:
    dim: int
    lengths: tuple[float, ...]
    shape: tuple[int, ...]
    model: ModelParams
    T: float
    safety: float
    dt_min: float
    max_halvings: int
    preset: str
    preset_params: dict
    p_list: tuple[float, ...]
    q_alpha: tuple[tuple[float, float], ...]
    sample_interval: float
    out_dir: str
    snapshot_times: tuple[float, ...]
    images: bool
    seed: int

    def grid(self) -> Grid:
        return Grid(Domain(self.lengths), self.shape)

    def step_control(self) -> StepControl:
        return StepControl(safety=self.safety, dt_min=self.dt_min,
                           max_halvings=self.max_halvings)


_KNOWN = {
    "domain.dim": "int",
    "domain.lx": "float",
    "domain.ly": "float",
    "grid.nx": "int",
    "grid.ny": "int",
    "model.l": "float",
    "model.epsilon": "float",
    "model.b": "float",
    "model.face_mean": "str",
    "time.T": "float",
    "time.safety": "float",
    "time.dt_min": "float",
    "time.max_halvings": "int",
    "init.preset": "str",
    "diagnostics.p_list": "floats",
    "diagnostics.q_alpha": "str",
    "diagnostics.sample_interval": "float",
    "output.dir": "str",
    "output.snapshot_times": "floats",
    "output.images": "bool",
    "seed": "int",
}

_REQUIRED = ("grid.nx", "model.l", "model.epsilon", "time.T", "init.preset")


def _finite(raw: str) -> float:
    """float(raw); nan and inf raise ValueError, as no key can honour them."""
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(raw)
    return x


def _parse_value(key: str, raw: str, kind: str, lineno: int):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _finite(raw)
        if kind == "floats":
            raw = raw.strip()
            return tuple(_finite(x) for x in raw.split(",")) if raw else ()
        if kind == "bool":
            if raw in ("on", "true", "1", "yes"):
                return True
            if raw in ("off", "false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        what = "finite " + kind if kind.startswith("float") else kind
        raise ConfigError(
            f"line {lineno}: cannot parse {key} = {raw!r} as {what}") from None


def _parse_q_alpha(raw: str, lineno: int):
    out = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(
                f"line {lineno}: q_alpha entries use q:alpha, got {chunk!r}")
        try:
            out.append((_finite(parts[0]), _finite(parts[1])))
        except ValueError:
            raise ConfigError(
                f"line {lineno}: diagnostics.q_alpha entry {chunk!r} needs "
                "two finite numbers") from None
    return tuple(out)


def parse_config(text: str, name: str = "<config>") -> RunConfig:
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{name}: line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key.count(".") > 1 or not key:
            raise ConfigError(f"{name}: line {lineno}: malformed key {key!r}")
        if key in raw:
            raise ConfigError(f"{name}: line {lineno}: duplicate key {key}")
        raw[key] = (value, lineno)

    preset = raw.get("init.preset", ("", 0))[0]
    if "init.preset" not in raw:
        raise ConfigError(f"{name}: missing required key init.preset")
    if preset not in PRESET_PARAMS:
        raise ConfigError(
            f"{name}: unknown init.preset {preset!r}; "
            f"choose from {sorted(PRESET_PARAMS)}")
    init_keys = {f"init.{k}" for k in PRESET_PARAMS[preset]}

    for key, (_, lineno) in raw.items():
        if key not in _KNOWN and key not in init_keys:
            raise ConfigError(f"{name}: line {lineno}: unknown key {key}")
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"{name}: missing required key {key}")

    def get(key, default=None):
        if key not in raw:
            return default
        value, lineno = raw[key]
        return _parse_value(key, value, _KNOWN[key], lineno)

    def build(section, cls, *keys, **fields):
        """cls(**fields, plus each of `keys` set as `section.key`).  The
        class validates its fields; its ValueError starts with the field
        name, so the re-raised ConfigError names the key."""
        for k in keys:
            if f"{section}.{k}" in raw:
                fields[k] = get(f"{section}.{k}")
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ConfigError(f"{name}: {section}.{exc}") from None

    dim = get("domain.dim", 1)
    if dim not in (1, 2):
        raise ConfigError(f"{name}: domain.dim must be 1 or 2, got {dim}")
    lx = get("domain.lx", 1.0)
    ly = get("domain.ly", lx)
    nx = get("grid.nx")
    ny = get("grid.ny", nx)
    grid = build("grid", Grid,
                 domain=build("domain", Domain,
                              lengths=(lx,) if dim == 1 else (lx, ly)),
                 shape=(nx,) if dim == 1 else (nx, ny))
    model = build("model", ModelParams, "l", "epsilon", "b", "face_mean")
    ctrl = build("time", StepControl, "safety", "dt_min", "max_halvings")
    T = get("time.T")
    if T <= 0.0:
        raise ConfigError(f"{name}: time.T must be positive, got {T}")

    preset_params = {}
    for pname, default in PRESET_PARAMS[preset].items():
        key = f"init.{pname}"
        if key in raw:
            value, lineno = raw[key]
            kind = "floats" if pname == "center" else "float"
            preset_params[pname] = _parse_value(key, value, kind, lineno)
        else:
            preset_params[pname] = default
    _validate_preset(name, preset, preset_params, dim)

    p_list = get("diagnostics.p_list", (2.0, 4.0))
    if any(p < 1 for p in p_list):
        raise ConfigError(f"{name}: diagnostics.p_list entries must be >= 1")
    if "diagnostics.q_alpha" in raw:
        value, lineno = raw["diagnostics.q_alpha"]
        q_alpha = _parse_q_alpha(value, lineno)
    else:
        q_alpha = ((4.0, 3.0), (6.0, 5.0))
    for q, a in q_alpha:
        if not (q > 2 and 0 < a < q):
            raise ConfigError(
                f"{name}: q_alpha entry ({q},{a}) needs q > 2 and 0 < alpha < q")
    sample_interval = get("diagnostics.sample_interval", T / 100.0)
    if sample_interval <= 0.0:
        raise ConfigError(f"{name}: diagnostics.sample_interval must be positive")
    snapshot_times = get("output.snapshot_times", ())
    if any(not 0.0 <= t <= T for t in snapshot_times):
        raise ConfigError(
            f"{name}: output.snapshot_times must lie in [0, time.T = {T:g}]")

    return RunConfig(
        dim=dim, lengths=grid.domain.lengths, shape=grid.shape, model=model,
        T=T, safety=ctrl.safety, dt_min=ctrl.dt_min,
        max_halvings=ctrl.max_halvings,
        preset=preset, preset_params=preset_params,
        p_list=p_list, q_alpha=q_alpha, sample_interval=sample_interval,
        out_dir=get("output.dir", "out"),
        snapshot_times=snapshot_times,
        images=get("output.images", False),
        seed=get("seed", 0),
    )


def _validate_preset(name: str, preset: str, params: dict, dim: int) -> None:
    def bad(msg):
        raise ConfigError(f"{name}: init.{msg}")

    if preset == "constant":
        if params["a"] < 0:
            bad(f"a must be >= 0, got {params['a']}")
        if params["b"] <= 0:
            bad(f"b must be > 0, got {params['b']}")
        return
    if params.get("v", 1.0) <= 0:
        bad(f"v must be > 0, got {params['v']}")
    if preset == "gaussian_colony":
        if params["amplitude"] <= 0:
            bad(f"amplitude must be > 0, got {params['amplitude']}")
        if params["width"] <= 0:
            bad(f"width must be > 0, got {params['width']}")
        if params["center"] is not None and len(params["center"]) != dim:
            bad(f"center needs {dim} coordinates")
    elif preset == "perturbed_front":
        if params["base"] <= 0:
            bad(f"base must be > 0, got {params['base']}")
        if not 0 <= params["noise_amp"] < params["base"]:
            bad("noise_amp must satisfy 0 <= noise_amp < base")
    elif preset == "checker":
        if params["lo"] < 0 or params["hi"] < params["lo"]:
            bad("checker needs 0 <= lo <= hi")
        if int(params["tiles"]) < 1:
            bad("tiles must be >= 1")


def load_config(path) -> RunConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read(), name=str(path))


def config_to_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    d["model"] = {"l": cfg.model.l, "epsilon": cfg.model.epsilon,
                  "b": cfg.model.b, "face_mean": cfg.model.face_mean}
    d["q_alpha"] = [list(qa) for qa in cfg.q_alpha]
    return d
