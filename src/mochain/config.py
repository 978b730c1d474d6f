"""Run-configuration schema: JSON in, validated RunConfig out.

A run selects one system of the registry systems.SYSTEMS and gives a flat
name->value parameter map, optionally swept along one or two axes. The
parameter names are the fields of the system's parameter dataclass (a field
with a default is optional), except for the general chain, whose per-mode
tuples are spelled as indexed names (omega_1.., g_mid_1.., kappa_mid_1..),
from one table that both the schema and build_chain_params read.
Every parameter value, and each sweep axis's end points, is checked by
building the system's parameter object, so a value the physics rejects is a
config error too. Time grids are specified in multiples of the
characteristic time so sweeps stay well scaled as the coupling varies.
Every section is read by one object reader, which rejects unknown keys with
the offending key path in the message; an absent section reads as empty, so
its defaults apply. JSON syntax errors keep their line/column from the parser.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .chain import ChainParams, EffectiveModel
from . import chain as chain_mod
from .errors import ConfigError, ParameterError, SingularCouplingError
# comm_to_chain and eom_to_chain stay bound here as before the registry:
# perfbench's tracer rebinds them in every module that holds them, and its
# self-test checks that they are restored
from .systems import SYSTEMS, System, comm_to_chain, eom_to_chain  # noqa: F401

FORMATS = ("csv", "json")


@dataclass(frozen=True)
class SweepAxis:
    name: str
    minimum: float
    maximum: float
    points: int
    scale: str = "linear"

    def values(self) -> list[float]:
        if self.scale == "log":
            lo, hi = math.log10(self.minimum), math.log10(self.maximum)
            return [10.0 ** (lo + (hi - lo) * i / (self.points - 1)) for i in range(self.points)]
        return [
            self.minimum + (self.maximum - self.minimum) * i / (self.points - 1)
            for i in range(self.points)
        ]


@dataclass(frozen=True)
class OutputSpec:
    path: str | None = None
    format: str = "csv"


@dataclass(frozen=True)
class RunConfig:
    system: str
    parameters: dict[str, float]
    sweep: tuple[SweepAxis, ...] = ()
    t_end_in_tau: float = 2.0
    samples: int = 201
    outputs: OutputSpec = OutputSpec()


# The chain's per-mode tuples, spelled as indexed names stem_1 .. stem_k:
# (ChainParams field, name stem, k - n for n intermediaries, required). An
# optional entry that is not given is 0.0.
_CHAIN_TUPLES = (("omegas", "omega_", 0, True), ("kappa_mid", "kappa_mid_", 0, True),
                 ("g_mid", "g_mid_", -1, True), ("n_mid", "n_mid_", 0, False))
_CHAIN_REQUIRED = ("n", "delta_a", "theta", "phi", "g_a", "g_c", "kappa_a", "kappa_c")
_CHAIN_OPTIONAL = {"delta_c": None, "n_a": 0.0, "n_c": 0.0}  # None: matched


def _chain_required_count(n: int) -> int:
    """3n + 7: how many names a chain of n intermediaries requires, without building them."""
    return len(_CHAIN_REQUIRED) + sum(n + extra for _, _, extra, req in _CHAIN_TUPLES if req)


def _reject_unknown(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _object(value: Any, allowed: set[str], path: str) -> dict:
    """A config object at path whose keys are all in allowed."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    _reject_unknown(value, allowed, path)
    return value


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
    if not math.isfinite(float(value)):
        raise ConfigError(f"{path}: value must be finite")
    return float(value)


def _count(value: Any, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {type(value).__name__}")
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _parse_axis(raw: Any, path: str) -> SweepAxis:
    _object(raw, {"name", "min", "max", "points", "scale"}, path)
    for key in ("name", "min", "max", "points"):
        if key not in raw:
            raise ConfigError(f"{path}.{key}: required")
    name = raw["name"]
    if not isinstance(name, str):
        raise ConfigError(f"{path}.name: expected a string")
    lo = _number(raw["min"], f"{path}.min")
    hi = _number(raw["max"], f"{path}.max")
    points = _count(raw["points"], f"{path}.points", 2)
    scale = raw.get("scale", "linear")
    if scale not in ("linear", "log"):
        raise ConfigError(f"{path}.scale: must be 'linear' or 'log'")
    if scale == "log" and (lo <= 0 or hi <= 0):
        raise ConfigError(f"{path}: log scale needs positive bounds")
    if hi <= lo:
        raise ConfigError(f"{path}: max must exceed min")
    return SweepAxis(name=name, minimum=lo, maximum=hi, points=points, scale=scale)


def _flat_schema(system: str, n: int) -> tuple[set[str], set[str]]:
    """Required and allowed names of a system's flat parameter map.

    The names are the fields of the system's parameter dataclass (a field with
    a default is optional), except for the chain, whose per-mode tuples are
    indexed names whose count follows n. The per-cell build_params needs no
    names, so a sweep computes them once, when its config is parsed.
    """
    kind = system_entry(system).params
    if kind is ChainParams:
        required, optional = set(_CHAIN_REQUIRED), set(_CHAIN_OPTIONAL)
        for _, stem, extra, needed in _CHAIN_TUPLES:
            (required if needed else optional).update(
                f"{stem}{s}" for s in range(1, n + extra + 1))
        return required, required | optional
    fields = dataclasses.fields(kind)
    required = {f.name for f in fields if f.default is dataclasses.MISSING}
    return required, {f.name for f in fields}


def parse_config(raw: dict, source: str = "config") -> RunConfig:
    """Validate a decoded JSON object into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be an object")
    _reject_unknown(raw, {"system", "parameters", "sweep", "times", "outputs", "unit"}, source)
    system = raw.get("system")
    system_entry(system, f"{source}.system")
    raw_params = raw.get("parameters")
    if not isinstance(raw_params, dict) or not raw_params:
        raise ConfigError(f"{source}.parameters: required non-empty object")
    params: dict[str, float] = {}
    for key, value in raw_params.items():
        if key == "n":
            params[key] = float(_count(value, f"{source}.parameters.n", 1))
        else:
            params[key] = _number(value, f"{source}.parameters.{key}")
    n = int(params.get("n", 0))
    # an n past the size of the given map is refused before any name is built,
    # so memory and the missing-key message stay within a few times the
    # config's own size
    if system_entry(system).params is ChainParams and n > len(params):
        raise ConfigError(f"{source}.parameters.n: {n} intermediaries need "
                          f"{_chain_required_count(n)} parameters, {len(params)} given")
    required, allowed = _flat_schema(system, n)
    _reject_unknown(params, allowed, f"{source}.parameters")
    missing = required - set(params)
    if missing:
        raise ConfigError(f"{source}.parameters: missing {sorted(missing)}")

    # an absent section reads as {}, so every default comes from .get
    sweep = _object(raw.get("sweep", {}), {"axis1", "axis2"}, f"{source}.sweep")
    if "axis2" in sweep and "axis1" not in sweep:
        raise ConfigError(f"{source}.sweep: axis2 given without axis1")
    axes: list[SweepAxis] = []
    for key in ("axis1", "axis2"):
        if key in sweep:
            axis = _parse_axis(sweep[key], f"{source}.sweep.{key}")
            if axis.name not in allowed:
                raise ConfigError(f"{source}.sweep.{key}.name: {axis.name!r} is not a "
                                  f"parameter of system {system!r}")
            if axis.name == "n":
                raise ConfigError(f"{source}.sweep.{key}.name: 'n' cannot be swept, "
                                  "it sets which parameters are required")
            axes.append(axis)
    if len(axes) == 2 and axes[0].name == axes[1].name:
        raise ConfigError(f"{source}.sweep: both axes sweep {axes[0].name!r}")

    # each dataclass __post_init__ check bounds a single field, so the end
    # points of an axis cover the whole axis for those checks. A resonance
    # (SingularCouplingError) is a joint property of delta_a and the chain's
    # frequencies that only the chain meets when it is built, so it is left to
    # the run, which reports it as a library error for every system, naming a
    # swept cell
    points = [("", params)]
    points += [(f" at {axis.name} = {end!r}", {**params, axis.name: end})
               for axis in axes for end in (axis.minimum, axis.maximum)]
    for where, point in points:
        try:
            build_params(system, point)
        except ParameterError as exc:
            raise ConfigError(f"{source}.parameters: {exc}{where}") from exc
        except SingularCouplingError:
            pass

    times = _object(raw.get("times", {}), {"t_end_in_tau", "samples"}, f"{source}.times")
    t_end_in_tau = _number(times.get("t_end_in_tau", RunConfig.t_end_in_tau),
                           f"{source}.times.t_end_in_tau")
    if t_end_in_tau <= 0:
        raise ConfigError(f"{source}.times.t_end_in_tau: must be positive")
    samples = _count(times.get("samples", RunConfig.samples), f"{source}.times.samples", 2)

    out = _object(raw.get("outputs", {}), {"path", "format"}, f"{source}.outputs")
    fmt = out.get("format", OutputSpec.format)
    if fmt not in FORMATS:
        raise ConfigError(f"{source}.outputs.format: must be one of {FORMATS}")
    path = out.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"{source}.outputs.path: expected a string")

    if "unit" in raw and not isinstance(raw["unit"], str):
        raise ConfigError(f"{source}.unit: expected a string (documentation only)")

    return RunConfig(system=system, parameters=params, sweep=tuple(axes), t_end_in_tau=t_end_in_tau,
                     samples=samples, outputs=OutputSpec(path=path, format=fmt))


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file; an unreadable file is a ConfigError too."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_config(raw, source=str(path))


def build_chain_params(params: dict[str, Any]) -> ChainParams:
    """Chain parameters from the flat map; delta_c is matched when not given."""
    fields = {name: params[name] for name in _CHAIN_REQUIRED} | {"n": int(params["n"])}
    fields |= {name: params.get(name, default) for name, default in _CHAIN_OPTIONAL.items()}
    for field, stem, extra, required in _CHAIN_TUPLES:
        names = (f"{stem}{s}" for s in range(1, fields["n"] + extra + 1))
        fields[field] = tuple(params[k] if required else params.get(k, 0.0) for k in names)
    return ChainParams(**fields)


def system_entry(system: str, path: str = "system") -> System:
    """The registry entry of a system name; an unknown name is a ConfigError at `path`."""
    if not isinstance(system, str) or system not in SYSTEMS:
        raise ConfigError(f"{path}: must be one of {tuple(SYSTEMS)}, got {system!r}")
    return SYSTEMS[system]


def build_params(system: str, params: dict[str, Any]) -> Any:
    """The parameter object of a registered system from its flat parameter map."""
    kind = system_entry(system).params
    return build_chain_params(params) if kind is ChainParams else kind(**params)


def reduce_point(system: str, params: dict[str, Any]
                 ) -> tuple[ChainParams | None, EffectiveModel]:
    """A configured point's chain mapping and effective two-mode model.

    A value of params may be a float or the (B,) values of a sweep chunk's
    cells; each object is then built once, with (B,) fields, for all of them.
    The chain is None for the effective model, which is its own reduction;
    every other system is mapped onto the chain once and reduced from it. A
    ParameterError of any step (a finite coupling that overflows the mapping
    or whose square overflows, say) is a ConfigError with the same message; a
    library error stays what it is.
    """
    to_chain = system_entry(system).to_chain
    try:
        p = build_params(system, params)
        chain = None if to_chain is None else to_chain(p)
        model = p if chain is None else chain_mod.reduce(chain)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    return chain, model
