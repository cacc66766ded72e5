"""Experiment configuration: flat key-value files, overrides, canonical hashing.

A configuration is a plain text file of ``section.key = value`` lines (``#``
comments allowed).  Command-line ``--set key=value`` overrides win over the
file.  The canonical serialization (all keys, defaults materialized, sorted)
is hashed and stamped into the first header line of every output file, so
identical configurations reproduce byte-identical artifacts.

Each key is declared once, as a field of ``ExperimentConfig`` or of one of
its section dataclasses, and ``KEYS`` is derived from those fields.  A
section's field is the key ``section.field`` (``network.n``); a top-level
field's first underscore is the dot (``sweep_axis`` is ``sweep.axis``).  The
field's annotation picks the value parser.  The output section and ``jobs``
do not alter the produced data, so they stay out of the hash.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, is_dataclass
from operator import attrgetter

import numpy as np

from .csvio import format_value
from .equilibrium import ModelParams
from .network import IONetwork, build_plain_network, build_random_exponential_network, load_network

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "KEYS",
    "NetworkConfig",
    "OutputConfig",
    "RunConfig",
    "apply_axis",
    "build_network",
    "config_hash",
    "config_to_text",
    "default_config",
    "load_config",
    "parse_overrides",
    "set_key",
]


class ConfigError(ValueError):
    """Malformed configuration file or override."""


@dataclass(frozen=True)
class NetworkConfig:
    kind: str = "plain"  # plain | random_exp | file
    n: int = 64
    seed: int = 0
    path: str = ""


@dataclass(frozen=True)
class RunConfig:
    steps: int = 5000
    burn_in: int = 1000
    replicas: int = 1
    seed: int = 12345
    initial_kick: float = 1e-6

    def __post_init__(self) -> None:
        # a sweep without replicas would write statistics of nothing
        if self.replicas < 1:
            raise ValueError("run.replicas must be at least 1")


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    per_sector: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkConfig = field(default_factory=NetworkConfig)
    params: ModelParams = field(default_factory=ModelParams)
    run: RunConfig = field(default_factory=RunConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    sweep_axis: str = "gamma"
    sweep_values: tuple[float, ...] = (0.05, 0.1, 0.15)
    sweep_statistic: str = "volatility"
    phase_q_grid: tuple[float, ...] = tuple(np.round(np.arange(-1.0, 1.0001, 0.1), 10))
    reduced_n_values: tuple[int, ...] = (25, 100, 400)
    jobs: int = 1


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


_BOOLS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# the value parser of each field annotation: (what it accepts, for error
# messages; parser of the text).  The annotations are the strings written in
# the dataclasses, as ``from __future__ import annotations`` keeps them.
_PARSERS = {
    "str": ("text", str),
    "int": ("integer", int),
    "float": ("real number", float),
    "float | None": ("real number", float),
    "bool": ("boolean", lambda raw: _BOOLS[raw.lower()]),
    "tuple[float, ...]": ("comma-separated reals",
                          lambda raw: tuple(float(v) for v in raw.split(",") if v.strip())),
    "tuple[int, ...]": ("comma-separated integers",
                        lambda raw: tuple(int(v) for v in raw.split(",") if v.strip())),
}


def _keys() -> dict:
    """Every configuration key, derived from the fields of ExperimentConfig."""
    keys = {}
    for top in fields(ExperimentConfig):
        hashed = top.name not in ("output", "jobs")  # they do not alter the data
        if is_dataclass(top.default_factory):  # a section: each field is a key
            for item in fields(top.default_factory):
                path = f"{top.name}.{item.name}"
                keys[path] = (path, _PARSERS[item.type], hashed)
        else:
            keys[top.name.replace("_", ".", 1)] = (top.name, _PARSERS[top.type], hashed)
    return keys


# Every configuration key, each declared once by its field (module
# docstring): key -> (attribute path in ExperimentConfig, value type from
# _PARSERS, whether the key enters the hashed canonical text)
KEYS = _keys()

# the hashed keys in canonical (sorted) order, with their attribute getters
_HASHED = sorted((key, attrgetter(attr)) for key, (attr, _, hashed) in KEYS.items() if hashed)


def _lookup(key: str):
    try:
        return KEYS[key]
    except KeyError:
        raise ConfigError(f"unknown key {key!r}") from None


def _replaced(obj, name: str, value):
    # dataclasses.replace without its per-field introspection: every field of
    # the config dataclasses is an init field, so the constructor (and with
    # it ModelParams' range checks) sees the full set
    return type(obj)(**{**vars(obj), name: value})


def set_key(conf: ExperimentConfig, key: str, value) -> ExperimentConfig:
    """New config with one key set to an already-typed value.

    Setting ``params.q`` moves ``params.q0`` along while q0 still equals the
    old q, as q0 defaults to q.
    """
    section, _, name = _lookup(key)[0].partition(".")
    try:
        if name:
            obj = getattr(conf, section)
            value = _replaced(obj, name, value)
            if key == "params.q" and obj.q0 == obj.q:
                value = _replaced(value, "q0", value.q)
        return _replaced(conf, section, value)
    except ValueError as exc:  # ModelParams and RunConfig range checks
        raise ConfigError(str(exc)) from exc


def _assign(conf: ExperimentConfig, key: str, raw: str) -> ExperimentConfig:
    """Parse ``raw`` by the key's value type and set the key."""
    key, raw = key.strip(), raw.strip()
    kind, parse = _lookup(key)[1]
    try:
        value = parse(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{kind} expected for {key}, got {raw!r}") from exc
    return set_key(conf, key, value)


def load_config(path: str | None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Parse a key-value file (optional) and apply --set overrides on top."""
    conf = default_config()
    if path:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        for lineno, line in enumerate(lines, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            conf = _assign(conf, *stripped.split("=", 1))
    return parse_overrides(conf, overrides or [])


def parse_overrides(conf: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply ``key=value`` overrides in order; later ones win."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        conf = _assign(conf, *item.split("=", 1))
    return conf


def config_to_text(conf: ExperimentConfig) -> str:
    """Canonical serialization of the hashed keys, sorted, defaults materialized.

    A file network adds the SHA-256 of its loaded matrix, so two tables
    written to the same path get different stamps.
    """
    lines = []
    for key, get in _HASHED:
        value = get(conf)
        if isinstance(value, tuple):
            value = ",".join(map(format_value, value))
        lines.append(f"{key} = {format_value(value)}")
    if conf.network.kind == "file":
        matrix = build_network(conf).w.tobytes()
        lines.append(f"network.matrix_sha256 = {hashlib.sha256(matrix).hexdigest()}")
    return "\n".join(lines) + "\n"


def config_hash(conf: ExperimentConfig) -> str:
    return hashlib.sha256(config_to_text(conf).encode()).hexdigest()[:16]


def build_network(conf: ExperimentConfig) -> IONetwork:
    net = conf.network
    if net.kind == "plain":
        return build_plain_network(net.n)
    if net.kind == "random_exp":
        return build_random_exponential_network(net.n, net.seed)
    if net.kind == "file":
        if not net.path:
            raise ConfigError("network.kind = file requires network.path")
        return load_network(net.path)
    raise ConfigError(f"unknown network.kind {net.kind!r}")


def _axis_key(conf: ExperimentConfig, axis: str) -> str:
    """The key that a sweep along ``axis`` sets; n can be swept only on a
    network built from its size."""
    if axis in ("gamma", "sigma"):
        return f"params.{axis}"
    if axis != "n":
        raise ConfigError(f"unknown sweep axis {axis!r} (gamma, sigma or n)")
    if conf.network.kind == "file":
        raise ConfigError("the n axis needs a network built from network.n; "
                          "network.kind = file fixes n by its matrix")
    return "network.n"


def apply_axis(conf: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    """New config with one swept parameter changed.  An n value must be an
    integer, and n can be swept only on a network built from its size."""
    key = _axis_key(conf, axis)
    if key == "network.n":
        if not float(value).is_integer():
            raise ConfigError(f"n-axis value {value!r} is not an integer")
        value = int(value)
    return set_key(conf, key, value)
