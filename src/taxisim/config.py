"""Declarative run configuration.

The config format is line-oriented ``section.key = value`` text with at most
one dot per key; ``#`` starts a comment.  Unknown keys and duplicate keys are
hard errors, so configs stay diffable and typo-proof.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace, asdict

from .diagnostics import _check_exponents
from .grid import Domain, Grid
from .model import ModelParams
from .presets import check_preset, preset_defaults
from .stepper import StepControl

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config",
           "config_to_dict"]


class ConfigError(ValueError):
    pass


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
    "domain.lx": "finite float",
    "domain.ly": "finite float",
    "grid.nx": "int",
    "grid.ny": "int",
    "model.l": "finite float",
    "model.epsilon": "finite float",
    "model.b": "finite float",
    "model.face_mean": "str",
    "time.T": "finite float",
    "time.safety": "finite float",
    "time.dt_min": "finite float",
    "time.max_halvings": "int",
    "init.preset": "str",
    "diagnostics.p_list": "finite floats",
    "diagnostics.q_alpha": "finite q:alpha pairs",
    "diagnostics.sample_interval": "finite float",
    "output.dir": "str",
    "output.snapshot_times": "finite floats",
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


def _parse_value(raw: str, kind: str):
    """`raw` as a value of `kind`; a ValueError if it is not one."""
    if kind == "int":
        return int(raw)
    if kind == "finite float":
        return _finite(raw)
    if kind == "finite floats":
        raw = raw.strip()
        return tuple(_finite(x) for x in raw.split(",")) if raw else ()
    if kind == "finite q:alpha pairs":
        return tuple((_finite(q), _finite(a)) for q, a in
                     (chunk.split(":") for chunk in raw.split(",")
                      if chunk.strip()))
    if kind == "bool":
        if raw in ("on", "true", "1", "yes"):
            return True
        if raw in ("off", "false", "0", "no"):
            return False
        raise ValueError(raw)
    return raw


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

    def check(prefix, rule, *args, **kwargs):
        """rule(*args, **kwargs); a ValueError becomes a ConfigError."""
        try:
            return rule(*args, **kwargs)
        except ValueError as exc:
            raise ConfigError(f"{name}: {prefix}{exc}") from None

    if "init.preset" not in raw:
        raise ConfigError(f"{name}: missing required key init.preset")
    preset = raw["init.preset"][0]
    defaults = check("init.preset: ", preset_defaults, preset)
    init_keys = {f"init.{k}" for k in defaults}

    for key, (_, lineno) in raw.items():
        if key not in _KNOWN and key not in init_keys:
            raise ConfigError(f"{name}: line {lineno}: unknown key {key}")
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"{name}: missing required key {key}")

    def get(key, default=None, kind=None):
        if key not in raw:
            return default
        value, lineno = raw[key]
        kind = kind or _KNOWN[key]
        try:
            return _parse_value(value, kind)
        except ValueError:
            raise ConfigError(f"{name}: line {lineno}: cannot parse {key} = "
                              f"{value!r} as {kind}") from None

    def build(section, cls, *keys, **fields):
        """cls(**fields, plus each of `keys` set as `section.key`).  The
        class validates its fields; its ValueError starts with the field
        name, so the ConfigError names the key."""
        for k in keys:
            if f"{section}.{k}" in raw:
                fields[k] = get(f"{section}.{k}")
        return check(f"{section}.", cls, **fields)

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

    preset_params = {
        k: get(f"init.{k}", default,
               "finite floats" if k == "center" else "finite float")
        for k, default in defaults.items()}
    check("init.", check_preset, preset_params, dim)

    p_list = get("diagnostics.p_list", (2.0, 4.0))
    if any(p < 1 for p in p_list):
        raise ConfigError(f"{name}: diagnostics.p_list entries must be >= 1")
    q_alpha = get("diagnostics.q_alpha", ((4.0, 3.0), (6.0, 5.0)))
    for qa in q_alpha:
        check("diagnostics.q_alpha: ", _check_exponents, *qa)
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


def load_config(path) -> RunConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read(), name=str(path))


def config_to_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    d["model"] = {"l": cfg.model.l, "epsilon": cfg.model.epsilon,
                  "b": cfg.model.b, "face_mean": cfg.model.face_mean}
    d["q_alpha"] = [list(qa) for qa in cfg.q_alpha]
    return d
