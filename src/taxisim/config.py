"""Declarative run configuration.

The config format is line-oriented ``section.key = value`` text with at most
one dot per key; ``#`` starts a comment.  Unknown keys and duplicate keys are
hard errors, so configs stay diffable and typo-proof.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .diagnostics import DEFAULT_Q_ALPHA, _check_columns, _check_exponents
from .grid import Domain, Grid, _check_dim, _check_lp_exponent
from .model import ModelParams
from .presets import PRESET_PARAMS, check_preset, preset_defaults
from .stepper import StepControl

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    pass


def labels(values, output: str) -> dict:
    """{`%g` label: value} of `values`.  Each label names an `output`, so two
    values sharing one, equal ones included, are a ValueError."""
    seen = {}
    for x in values:
        label = f"{x:g}"
        if label in seen:
            raise ValueError(f"{seen[label]!r} and {x!r} share the label "
                             f"{label}, so they would share the {output}")
        seen[label] = x
    return seen


def _keyed(prefix: str, rule, *args, **kwargs):
    """rule(*args, **kwargs); its ValueError is raised again starting with
    `prefix`, which names the config key."""
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """One run, as a config file states it.  Every rule a run relies on is
    checked when a RunConfig is built, by `parse_config`,
    `dataclasses.replace` or a caller; the ValueError starts with the config
    key it is about.  `preset_params` holds every parameter of the preset,
    each one not given taking its default."""

    dim: int
    lengths: tuple[float, ...]
    shape: tuple[int, ...]
    model: ModelParams
    T: float
    preset: str
    sample_interval: float
    preset_params: dict = field(default_factory=dict)
    safety: float = StepControl.safety
    dt_min: float = StepControl.dt_min
    max_halvings: int = StepControl.max_halvings
    p_list: tuple[float, ...] = (2.0, 4.0)
    q_alpha: tuple[tuple[float, float], ...] = DEFAULT_Q_ALPHA
    out_dir: str = "out"
    snapshot_times: tuple[float, ...] = ()
    images: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        _keyed("domain.", _check_dim, self.dim)
        grid = _keyed("grid.", Grid, _keyed("domain.", Domain, self.lengths),
                      self.shape)
        if grid.dim != self.dim:
            raise ValueError(f"domain.dim is {self.dim} but the lengths are "
                             f"{grid.domain.lengths}")
        object.__setattr__(self, "lengths", grid.domain.lengths)
        object.__setattr__(self, "shape", grid.shape)
        _keyed("time.", self.step_control)
        if not self.T > 0.0:
            raise ValueError(f"time.T must be positive, got {self.T}")

        defaults = _keyed("init.preset: ", preset_defaults, self.preset)
        for k in self.preset_params:
            if k not in defaults:
                raise ValueError(f"init.{k} is not a parameter of preset "
                                 f"{self.preset}; it has {sorted(defaults)}")
        params = {**defaults, **self.preset_params}
        _keyed("init.", check_preset, params, self.dim)
        object.__setattr__(self, "preset_params", params)

        for p in self.p_list:
            _keyed("diagnostics.p_list: ", _check_lp_exponent, p)
        for qa in self.q_alpha:
            _keyed("diagnostics.q_alpha: ", _check_exponents, *qa)
        _keyed("diagnostics.", _check_columns, self.p_list, self.q_alpha)
        if not self.sample_interval > 0.0:
            raise ValueError("diagnostics.sample_interval must be positive")
        if any(not 0.0 <= t <= self.T for t in self.snapshot_times):
            raise ValueError("output.snapshot_times must lie in "
                             f"[0, time.T = {self.T:g}]")
        _keyed("output.snapshot_times: ", labels, self.snapshot_times,
               "snapshot files")

    def grid(self) -> Grid:
        return Grid(Domain(self.lengths), self.shape)

    def step_control(self) -> StepControl:
        return StepControl(safety=self.safety, dt_min=self.dt_min,
                           max_halvings=self.max_halvings)


# key: (value kind, the RunConfig field it sets as it is, if one)
_KNOWN = {
    "domain.dim": ("int", None),
    "domain.lx": ("finite float", None),
    "domain.ly": ("finite float", None),
    "grid.nx": ("int", None),
    "grid.ny": ("int", None),
    "model.l": ("finite float", None),
    "model.epsilon": ("finite float", None),
    "model.b": ("finite float", None),
    "model.face_mean": ("str", None),
    "time.T": ("finite float", "T"),
    "time.safety": ("finite float", "safety"),
    "time.dt_min": ("finite float", "dt_min"),
    "time.max_halvings": ("int", "max_halvings"),
    "init.preset": ("str", "preset"),
    "diagnostics.p_list": ("finite floats", "p_list"),
    "diagnostics.q_alpha": ("finite q:alpha pairs", "q_alpha"),
    "diagnostics.sample_interval": ("finite float", "sample_interval"),
    "output.dir": ("str", "out_dir"),
    "output.snapshot_times": ("finite floats", "snapshot_times"),
    "output.images": ("bool", "images"),
    "seed": ("int", "seed"),
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
    """The RunConfig `text` states.  A ConfigError names `name` and the line
    or key: a line that is not `key = value`, an unknown, duplicate or
    missing key, a value of the wrong kind, or a rule RunConfig checks."""
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

    preset_keys = PRESET_PARAMS.get(raw.get("init.preset", ("",))[0], {})
    values = {}
    for key, (value, lineno) in raw.items():
        section, _, k = key.partition(".")
        if key in _KNOWN:
            kind = _KNOWN[key][0]
        elif section == "init" and k in preset_keys:
            kind = "finite floats" if k == "center" else "finite float"
        else:
            raise ConfigError(f"{name}: line {lineno}: unknown key {key}")
        try:
            values[key] = _parse_value(value, kind)
        except ValueError:
            raise ConfigError(f"{name}: line {lineno}: cannot parse {key} = "
                              f"{value!r} as {kind}") from None
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"{name}: missing required key {key}")

    # lengths, shape and the interval follow from other keys; RunConfig
    # holds every other default
    dim, lx, nx = (values.get("domain.dim", 1), values.get("domain.lx", 1.0),
                   values["grid.nx"])
    fields = {f: values[key] for key, (_, f) in _KNOWN.items()
              if f and key in values}
    fields.setdefault("sample_interval", fields["T"] / 100.0)
    try:
        return RunConfig(
            dim=dim,
            lengths=(lx,) if dim == 1 else (lx, values.get("domain.ly", lx)),
            shape=(nx,) if dim == 1 else (nx, values.get("grid.ny", nx)),
            model=_keyed("model.", ModelParams, **{
                k[6:]: x for k, x in values.items() if k[:6] == "model."}),
            preset_params={k[5:]: x for k, x in values.items()
                           if k[:5] == "init." and k != "init.preset"},
            **fields)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                              f"{exc.start}") from None
    return parse_config(text, name=str(path))

