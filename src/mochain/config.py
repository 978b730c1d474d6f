"""Run-configuration schema: JSON in, validated RunConfig out.

A run selects one system of the registry systems.SYSTEMS and gives a flat
name->value parameter map, optionally swept along one or two axes. The
parameter names are the fields of the system's parameter dataclass (a field
with a default is optional), except for the general chain, whose per-mode
tuples are spelled as indexed names (omega_1.., g_mid_1.., kappa_mid_1..).
Every parameter value, and each sweep axis's end points, is checked by
building the system's parameter object, so a value the physics rejects is a
config error too. Time grids are specified in multiples of the
characteristic time so sweeps stay well scaled as the coupling varies.
Unknown keys are rejected everywhere with the offending key path in the
message; JSON syntax errors keep their line/column from the parser.
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
from .errors import ConfigError, ParameterError
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


def _reject_unknown(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


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
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    _reject_unknown(raw, {"name", "min", "max", "points", "scale"}, path)
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
        required = {"n", "delta_a", "theta", "phi", "g_a", "g_c", "kappa_a", "kappa_c"}
        required |= {f"omega_{s}" for s in range(1, n + 1)}
        required |= {f"kappa_mid_{s}" for s in range(1, n + 1)}
        required |= {f"g_mid_{s}" for s in range(1, n)}
        optional = {"delta_c", "n_a", "n_c"} | {f"n_mid_{s}" for s in range(1, n + 1)}
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
    required, allowed = _flat_schema(system, int(params.get("n", 0)))
    _reject_unknown(params, allowed, f"{source}.parameters")
    missing = required - set(params)
    if missing:
        raise ConfigError(f"{source}.parameters: missing {sorted(missing)}")

    axes: list[SweepAxis] = []
    if "sweep" in raw:
        sweep = raw["sweep"]
        if not isinstance(sweep, dict):
            raise ConfigError(f"{source}.sweep: expected an object")
        _reject_unknown(sweep, {"axis1", "axis2"}, f"{source}.sweep")
        if "axis2" in sweep and "axis1" not in sweep:
            raise ConfigError(f"{source}.sweep: axis2 given without axis1")
        for key in ("axis1", "axis2"):
            if key in sweep:
                axis = _parse_axis(sweep[key], f"{source}.sweep.{key}")
                if axis.name not in allowed:
                    raise ConfigError(
                        f"{source}.sweep.{key}.name: {axis.name!r} is not a parameter "
                        f"of system {system!r}"
                    )
                if axis.name == "n":
                    raise ConfigError(f"{source}.sweep.{key}.name: 'n' cannot be swept, "
                                      "it sets which parameters are required")
                axes.append(axis)
        if len(axes) == 2 and axes[0].name == axes[1].name:
            raise ConfigError(f"{source}.sweep: both axes sweep {axes[0].name!r}")

    # each dataclass __post_init__ check bounds a single field, so the end
    # points of an axis cover the whole axis for those checks; the chain's
    # joint resonance of delta_a and omega_s can still lie inside an axis and
    # is only met by the cell that hits it
    points = [("", params)]
    points += [(f" at {axis.name} = {end!r}", {**params, axis.name: end})
               for axis in axes for end in (axis.minimum, axis.maximum)]
    for where, point in points:
        try:
            build_params(system, point)
        except ValueError as exc:
            raise ConfigError(f"{source}.parameters: {exc}{where}") from exc

    t_end_in_tau, samples = 2.0, 201
    if "times" in raw:
        times = raw["times"]
        if not isinstance(times, dict):
            raise ConfigError(f"{source}.times: expected an object")
        _reject_unknown(times, {"t_end_in_tau", "samples"}, f"{source}.times")
        if "t_end_in_tau" in times:
            t_end_in_tau = _number(times["t_end_in_tau"], f"{source}.times.t_end_in_tau")
            if t_end_in_tau <= 0:
                raise ConfigError(f"{source}.times.t_end_in_tau: must be positive")
        if "samples" in times:
            samples = _count(times["samples"], f"{source}.times.samples", 2)

    outputs = OutputSpec()
    if "outputs" in raw:
        out = raw["outputs"]
        if not isinstance(out, dict):
            raise ConfigError(f"{source}.outputs: expected an object")
        _reject_unknown(out, {"path", "format"}, f"{source}.outputs")
        fmt = out.get("format", "csv")
        if fmt not in FORMATS:
            raise ConfigError(f"{source}.outputs.format: must be one of {FORMATS}")
        path = out.get("path")
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"{source}.outputs.path: expected a string")
        outputs = OutputSpec(path=path, format=fmt)

    if "unit" in raw and not isinstance(raw["unit"], str):
        raise ConfigError(f"{source}.unit: expected a string (documentation only)")

    return RunConfig(
        system=system,
        parameters=params,
        sweep=tuple(axes),
        t_end_in_tau=t_end_in_tau,
        samples=samples,
        outputs=outputs,
    )


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
    n = int(params["n"])
    return ChainParams(
        n=n,
        delta_a=params["delta_a"],
        delta_c=params.get("delta_c"),
        omegas=tuple(params[f"omega_{s}"] for s in range(1, n + 1)),
        g_a=params["g_a"],
        g_c=params["g_c"],
        g_mid=tuple(params[f"g_mid_{s}"] for s in range(1, n)),
        theta=params["theta"],
        phi=params["phi"],
        kappa_a=params["kappa_a"],
        kappa_c=params["kappa_c"],
        kappa_mid=tuple(params[f"kappa_mid_{s}"] for s in range(1, n + 1)),
        n_a=params.get("n_a", 0.0),
        n_c=params.get("n_c", 0.0),
        n_mid=tuple(params.get(f"n_mid_{s}", 0.0) for s in range(1, n + 1)),
    )


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
                 ) -> tuple[Any, ChainParams | None, EffectiveModel]:
    """A configured point's parameter object, chain mapping and effective two-mode model.

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
    return p, chain, model
