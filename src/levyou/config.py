"""Experiment configuration: JSON schemas, file loading, dot-path overrides,
and ExperimentConfig, the parsed config that every subcommand runs from.

CONFIG_SCHEMA and REPORT_SCHEMA below are the only copies of the config and
report schemas; docs/example_gamma_ou.json is a worked example.
ExperimentConfig.from_dict holds its document to CONFIG_SCHEMA, and
ExperimentConfig holds its own fields to it as well, so a config built in
code meets the rules of a config file.
validate_config checks a config against CONFIG_SCHEMA with a small
interpreter of the draft-07 keywords that schema uses, which also requires
every number to be finite; the tests check it against jsonschema.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .cumulants import (
    R_MAX,
    CumulantTable,
    CumulantVector,
    ModelParams,
    cumulant_table,
    stationary_cumulants,
)
from .simulate import DriverSpec, driver_cumulants

__all__ = ["CONFIG_SCHEMA", "REPORT_SCHEMA", "ConfigError", "ExperimentConfig",
           "load_config", "apply_override", "validate_config"]

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "levyou experiment configuration",
    "type": "object",
    "required": ["params", "driver", "T_grid", "n_samples", "seed"],
    "additionalProperties": False,
    "properties": {
        "params": {
            "type": "object",
            "required": ["lam", "gamma", "beta", "rho"],
            "additionalProperties": False,
            "properties": {
                "lam": {"type": "number", "exclusiveMinimum": 0},
                "gamma": {"type": "number"},
                "beta": {"type": "number", "not": {"const": 0}},
                "rho": {"type": "number"},
            },
        },
        "driver": {
            "type": "object",
            "required": ["variant"],
            "additionalProperties": False,
            "properties": {
                "variant": {"enum": ["gaussian", "cpexp", "mixed"]},
                "b": {"type": "number"},
                "C": {"type": "number", "minimum": 0},
                "c": {"type": "number", "exclusiveMinimum": 0},
                "alpha": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "T_grid": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "p_orders": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "integer", "minimum": 2, "maximum": R_MAX},
        },
        "n_samples": {"type": "integer", "minimum": 100},
        "seed": {"type": "integer", "minimum": 0},
        "test_points": {"type": "array", "minItems": 1, "items": {"type": "number"}},
        "workers": {"type": "integer", "minimum": 0},
        "density_grid": {
            "type": "object",
            "required": ["lo", "hi", "n"],
            "additionalProperties": False,
            "properties": {
                "lo": {"type": "number"},
                "hi": {"type": "number"},
                "n": {"type": "integer", "minimum": 1},
            },
        },
        "sim": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_steps": {"type": "integer", "minimum": 1},
                "n_paths": {"type": "integer", "minimum": 1},
            },
        },
        "moments": {"type": "array", "items": {"type": "integer", "minimum": 0}},
    },
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "levyou validation report",
    "type": "object",
    "required": ["config_hash", "degenerate", "partial",
                 "cells", "cumulants", "checks", "footnotes"],
    "properties": {
        "config_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "degenerate": {"type": "boolean"},
        "partial": {"type": "boolean"},
        "cells": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["T", "a", "p", "empirical", "se", "psi_p",
                             "gap", "informative"],
                "properties": {
                    "T": {"type": "number"},
                    "a": {"type": "number"},
                    "p": {"type": "integer"},
                    "empirical": {"type": "number"},
                    "se": {"type": "number", "minimum": 0},
                    "psi_p": {"type": "number"},
                    "gap": {"type": "number", "minimum": 0},
                    "informative": {"type": "boolean"},
                },
            },
        },
        "cumulants": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["T", "r", "k_stat", "se", "predicted"],
                "properties": {
                    "T": {"type": "number"},
                    "r": {"type": "integer", "minimum": 1, "maximum": 4},
                    "k_stat": {"type": "number"},
                    "se": {"type": "number", "minimum": 0},
                    "predicted": {"type": "number"},
                },
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed"],
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "detail": {"type": "string"},
                },
            },
        },
        "footnotes": {"type": "array", "items": {"type": "string"}},
        "meta": {"type": "object"},
    },
}


class ConfigError(ValueError):
    """Invalid configuration file, override, or schema violation."""


def load_config(path: str | Path) -> dict:
    """Read and parse the JSON config file (no validation yet)."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config document must be a JSON object")
    return cfg


def apply_override(cfg: dict, assignment: str) -> None:
    """Apply one `dot.path.key=value` override in place.

    The value is parsed as JSON when possible and kept as a raw string
    otherwise, so `--set params.lam=2.0` and `--set driver.variant=cpexp`
    both work.
    """
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Draft-07 types: bool is not a number, and a float with no fraction (1e6)
# is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _equal(a, b) -> bool:
    """JSON equality, where true and false are not the numbers 1 and 0."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


# Each keyword check takes (the keyword's argument, the value, its path, the
# enclosing schema) and yields the (path, message) of every violation.

def _type(name, value, path, schema):
    if not _TYPES[name](value):
        yield path, f"{value!r} is not of type {name!r}"
    elif isinstance(value, float) and not math.isfinite(value):
        # Python's json reads NaN and Infinity, which draft-07 calls numbers
        yield path, f"{value!r} is not a finite number"


def _required(names, value, path, schema):
    if isinstance(value, dict):
        for name in names:
            if name not in value:
                yield path, f"{name!r} is a required property"


def _properties(subschemas, value, path, schema):
    if isinstance(value, dict):
        for key, sub in subschemas.items():
            if key in value:
                yield from _violations(sub, value[key], path + (key,))


def _additional_properties(allowed, value, path, schema):
    if not isinstance(value, dict):
        return
    extras = [key for key in value if key not in schema.get("properties", {})]
    if allowed is False and extras:
        yield path, f"additional properties are not allowed: {', '.join(map(repr, extras))}"


def _enum(options, value, path, schema):
    if not any(_equal(value, option) for option in options):
        yield path, f"{value!r} is not one of {options!r}"


def _const(const, value, path, schema):
    if not _equal(value, const):
        yield path, f"{const!r} was expected"


def _not(sub, value, path, schema):
    if not any(_violations(sub, value, path)):
        yield path, f"{value!r} should not be valid under {sub!r}"


def _bound(fails, relation):
    """The check of a keyword that bounds a number."""
    def check(bound, value, path, schema):
        if _is_number(value) and fails(value, bound):
            yield path, f"{value!r} is {relation} {bound!r}"
    return check


def _min_items(count, value, path, schema):
    if isinstance(value, list) and len(value) < count:
        yield path, f"{value!r} has fewer than {count} items"


def _items(sub, value, path, schema):
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _violations(sub, item, path + (i,))


def _annotation(*_):
    return ()


# Every keyword CONFIG_SCHEMA uses, and only those.
_KEYWORDS = {
    "$schema": _annotation,
    "title": _annotation,
    "type": _type,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "enum": _enum,
    "const": _const,
    "not": _not,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "minItems": _min_items,
    "items": _items,
}


def _violations(schema: dict, value, path: tuple = ()):
    """Yield (path, message) for every violation of `schema` by `value`, in
    the order of the schema's keywords."""
    for keyword, arg in schema.items():
        yield from _KEYWORDS[keyword](arg, value, path, schema)


def validate_config(cfg: dict) -> None:
    """Validate against CONFIG_SCHEMA, whose numbers must also be finite;
    raise ConfigError naming the shallowest violation (the first in schema
    order among equals)."""
    error = min(_violations(CONFIG_SCHEMA, cfg), key=lambda e: len(e[0]), default=None)
    if error is not None:
        path = ".".join(str(p) for p in error[0]) or "<root>"
        raise ConfigError(f"config schema violation at {path}: {error[1]}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed configuration of one run: every field that determines output."""

    params: ModelParams
    driver: DriverSpec
    T_grid: tuple[float, ...]
    p_orders: tuple[int, ...] = (2, 3, 4)
    n_samples: int = 100_000
    seed: int = 0
    test_points: tuple[float, ...] = (-1.0, 0.0, 1.0)
    workers: int = 0  # 0 -> hardware parallelism
    density_grid: tuple[float, float, int] = (-6.0, 6.0, 241)  # (lo, hi, n)
    moments: tuple[int, ...] = (1, 2, 3)
    n_steps: int = 64  # sim.n_steps
    n_paths: int = 1  # sim.n_paths

    def __post_init__(self):
        # CONFIG_SCHEMA states the per-field rules; DriverSpec checks the
        # driver's own fields (the canonical form's c = 0.0 of a Gaussian
        # driver is not a schema-valid document).
        validate_config({**self.canonical_dict(), "driver": {"variant": self.driver.variant},
                         "workers": self.workers})

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Parse a config document, held to CONFIG_SCHEMA (ConfigError
        otherwise); absent optional keys take the field defaults."""
        validate_config(d)
        params = ModelParams(**{k: float(v) for k, v in d["params"].items()})
        drv = dict(d["driver"])
        variant = drv.pop("variant")
        driver = DriverSpec(variant=variant, **{k: float(v) for k, v in drv.items()})
        grid = d.get("density_grid")
        sim = d.get("sim", {})
        return cls(
            params=params,
            driver=driver,
            T_grid=tuple(float(t) for t in d["T_grid"]),
            p_orders=tuple(int(p) for p in d.get("p_orders", cls.p_orders)),
            n_samples=int(d["n_samples"]),
            seed=int(d["seed"]),
            test_points=tuple(float(a) for a in d.get("test_points", cls.test_points)),
            workers=int(d.get("workers", cls.workers)),
            density_grid=((float(grid["lo"]), float(grid["hi"]), int(grid["n"]))
                          if grid is not None else cls.density_grid),
            moments=tuple(int(m) for m in d.get("moments", cls.moments)),
            n_steps=int(sim.get("n_steps", cls.n_steps)),
            n_paths=int(sim.get("n_paths", cls.n_paths)),
        )

    def canonical_dict(self) -> dict:
        """Output-determining fields in canonical form (workers excluded:
        the worker count never changes outputs)."""
        lo, hi, n = self.density_grid
        return {
            "params": {"lam": self.params.lam, "gamma": self.params.gamma,
                       "beta": self.params.beta, "rho": self.params.rho},
            "driver": {"variant": self.driver.variant, "b": self.driver.b,
                       "C": self.driver.C, "c": self.driver.c,
                       "alpha": self.driver.alpha},
            "T_grid": list(self.T_grid),
            "p_orders": list(self.p_orders),
            "n_samples": self.n_samples,
            "seed": self.seed,
            "test_points": list(self.test_points),
            "density_grid": {"lo": lo, "hi": hi, "n": n},
            "moments": list(self.moments),
            "sim": {"n_steps": self.n_steps, "n_paths": self.n_paths},
        }

    def config_hash(self) -> str:
        import hashlib  # imported here so that `import levyou` does not pay for it

        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def resolved_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)

    @property
    def table_order(self) -> int:
        """The highest cumulant order any output needs: the largest expansion
        order, and at least 4."""
        return max(max(self.p_orders), 4)

    @cached_property
    def kappa_f(self) -> CumulantVector:
        """Stationary cumulants of orders 1 to `table_order`."""
        return stationary_cumulants(driver_cumulants(self.driver, self.table_order),
                                    self.params.lam)

    def table(self, T: float) -> CumulantTable:
        """Closed-form cumulant table at horizon T, of orders 2 to `table_order`."""
        return cumulant_table(self.table_order, self.params, self.kappa_f, T)
