"""Run configuration: schema, parsing, and emission.

Configs are JSON text with a fixed field set.  Each dataclass field declares
its default, JSON kind and bound once, in its metadata; one walker over
`dataclasses.fields` parses every section, rejects unknown fields and
non-finite numbers, and names the field's dotted path in every error.  Then
`model_graph` checks the model block as a whole; in configs built in Python
it is the only check.  `parse_config(emit_config(cfg))` round-trips exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Optional, Tuple, Union

from .errors import SchemaError
from .models import (EXPERIMENT_KINDS, FULL_BASIS, IQLE, MEASUREMENT_MODES, QUBIT_CAP,
                     InteractionGraph)
from .simulate import EVALUATOR_MODES, EXACT


def _fail(path: str, message: str) -> "SchemaError":
    return SchemaError(f"{path}: {message}")


# JSON kinds: each takes the raw value and its dotted path, and returns the
# field's value or raises SchemaError.

def _typed(noun: str, *types):
    def parse(value, path: str):
        # JSON true/false are Python bools, which are also ints.
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise _fail(path, f"expected {noun}, got {value!r}")
        return value
    return parse


_integer = _typed("an integer", int)
_boolean = _typed("a boolean", bool)
_path_or_null = _typed("a path string or null", str, type(None))


def _number(value, path: str) -> float:
    value = _typed("a number", int, float)(value, path)
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        return math.inf if value > 0 else -math.inf


def _one_of(choices):
    def parse(value, path: str) -> str:
        if value not in choices:
            raise _fail(path, f"expected one of {sorted(choices)}, got {value!r}")
        return value
    return parse


def _numbers(values, path: str) -> Tuple[float, ...]:
    return tuple(_convert(v, f"{path}[{i}]", _number) for i, v in enumerate(values))


def _box(value, path: str) -> Tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise _fail(path, "expected [low, high]")
    low, high = (_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    if not low < high:
        raise _fail(path, f"low must be below high, got [{low}, {high}]")
    return _numbers((low, high), path)  # then each end must be finite


def _couplings(value, path: str) -> Optional[Tuple[float, ...]]:
    if value is not None and not isinstance(value, (list, tuple)):
        raise _fail(path, "expected a list of couplings or null")
    return None if value is None else _numbers(value, path)


def _graph(value, path: str):
    if isinstance(value, str):
        return _one_of(("complete", "line"))(value, path)
    if not isinstance(value, (list, tuple)):
        raise _fail(path, f"expected a family name or edge list, got {value!r}")
    edges = []
    for k, pair in enumerate(value):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise _fail(path, "edge list must contain [i, j] pairs")
        edges.append(tuple(_integer(v, f"{path}[{k}][{m}]") for m, v in enumerate(pair)))
    return tuple(edges)


# Bounds: (holds, message); the message formats the rejected value.
_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative, got {}")


def _at_least(minimum: int):
    return (lambda v: v >= minimum, f"must be at least {minimum}, got {{}}")


def _lies_in(interval: str):
    """Bound for an interval written as its message shows it, e.g. "(0, 1]"."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    return (lambda v: (low < v if interval[0] == "(" else low <= v)
            and (v < high if interval[-1] == ")" else v <= high),
            f"must lie in {interval}, got {{}}")


def _convert(value, path: str, kind, bound=None):
    """Parse one value by its kind, then check its bound and finiteness."""
    value = kind(value, path)
    if bound is not None and not bound[0](value):
        raise _fail(path, bound[1].format(value))
    if isinstance(value, float) and not math.isfinite(value):
        raise _fail(path, f"must be finite, got {value}")
    return value


def _walk_fields(cls, data, path: str):
    """Walk the fields of `cls` over a JSON object; absent fields keep their defaults."""
    if not isinstance(data, dict):
        raise _fail(path or "<config>", f"expected an object, got {type(data).__name__}")
    prefix = f"{path}." if path else ""
    known = {f.name: f for f in fields(cls)}
    for key in data:
        if key not in known:
            raise _fail(prefix + key, "unknown field")
    values = {}
    for name, f in known.items():
        if name in data:
            # A field with no kind is a section: a nested config dataclass.
            kind = f.metadata.get("kind") or partial(_walk_fields, f.default_factory)
            values[name] = _convert(data[name], prefix + name, kind, f.metadata.get("bound"))
    return cls(**values)


def _field(default, kind, bound=None):
    return field(default=default, metadata={"kind": kind, "bound": bound})


@dataclass(frozen=True)
class ModelConfig:
    """System under study: model family, graph, and parameter box.

    `graph` is a family name or an explicit edge list; `degenerate_couplings`
    switches the per-trial truth draw to one shared value on the box plus
    small Gaussian jitter (s.d. 0.01 per edge).
    """

    kind: str = _field("ising", _one_of(("ising", "single")))
    graph: Union[str, Tuple[Tuple[int, int], ...]] = _field("complete", _graph)
    n: int = _field(3, _integer, _at_least(2))
    box: Tuple[float, float] = _field((-0.5, 0.5), _box)
    degenerate_couplings: bool = _field(False, _boolean)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = _field(IQLE, _one_of(EXPERIMENT_KINDS))
    measurement: str = _field(FULL_BASIS, _one_of(MEASUREMENT_MODES))


@dataclass(frozen=True)
class ResampleConfig:
    a: float = _field(0.9, _number, _lies_in("[0, 1]"))
    threshold: float = _field(0.5, _number, _lies_in("(0, 1]"))


@dataclass(frozen=True)
class EvaluatorConfig:
    mode: str = _field(EXACT, _one_of(EVALUATOR_MODES))
    n_samp: int = _field(100, _integer, _at_least(1))
    noise: float = _field(0.0, _number, _NONNEGATIVE)


@dataclass(frozen=True)
class PghSettings:
    t_max: float = _field(1e6, _number, _POSITIVE)
    min_separation: float = _field(1e-12, _number, _POSITIVE)
    max_redraws: int = _field(100, _integer, _at_least(1))


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    particles: int = _field(2000, _integer, _at_least(2))
    resample: ResampleConfig = field(default_factory=ResampleConfig)
    evaluator: EvaluatorConfig = field(default_factory=EvaluatorConfig)
    bitflip_alpha: float = _field(0.0, _number, _lies_in("[0, 0.5]"))
    n_experiments: int = _field(100, _integer, _at_least(1))
    trials: int = _field(10, _integer, _at_least(1))
    seed: int = _field(0, _integer, _at_least(0))
    out: Optional[str] = _field(None, _path_or_null)
    pgh: PghSettings = field(default_factory=PghSettings)
    fit_window: float = _field(0.1, _number, _lies_in("[0, 1)"))
    truth: Optional[Tuple[float, ...]] = _field(None, _couplings)


def model_graph(model: ModelConfig) -> InteractionGraph:
    """The interaction graph of a model block; SchemaError names a field it cannot serve.

    Kind "single" is the one-coupling echo: the 2-qubit pair, whatever `graph` and `n` say.
    """
    if model.kind == "single":
        return InteractionGraph.line(2)
    if model.n > QUBIT_CAP:
        raise _fail("model.n", f"must be at most {QUBIT_CAP}, got {model.n}")
    try:
        if isinstance(model.graph, str):
            return getattr(InteractionGraph, model.graph)(model.n)
        return InteractionGraph(model.n, model.graph)
    except ValueError as exc:
        raise _fail("model.graph", str(exc)) from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate JSON configuration text into a RunConfig."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    config = _walk_fields(RunConfig, data, "")
    dimension = model_graph(config.model).dimension
    if config.truth is not None and len(config.truth) != dimension:
        raise _fail("truth", f"expected length {dimension}, got {len(config.truth)}")
    return config


def parse_config_file(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def config_to_dict(config: RunConfig) -> dict:
    """Plain-data view of a config; the JSON writers emit its tuples as lists."""
    return asdict(config)


def emit_config(config: RunConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2) + "\n"
