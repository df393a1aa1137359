"""Experiment configuration: JSON schema, file loading, dot-path overrides.

One JSON document configures every subcommand; the schema below is also
shipped as docs/config_schema.json together with a worked example.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema

__all__ = ["CONFIG_SCHEMA", "REPORT_SCHEMA", "ConfigError",
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
            "items": {"type": "integer", "minimum": 2, "maximum": 12},
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
        "chi_override": {
            "type": "object",
            "propertyNames": {"pattern": "^[0-9]+$"},
            "additionalProperties": {"type": "number"},
        },
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
                "required": ["T", "r", "k_stat", "se_boot", "predicted"],
                "properties": {
                    "T": {"type": "number"},
                    "r": {"type": "integer", "minimum": 1, "maximum": 4},
                    "k_stat": {"type": "number"},
                    "se_boot": {"type": "number", "minimum": 0},
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


class ConfigError(Exception):
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


def validate_config(cfg: dict) -> None:
    """Validate against the documented schema; raise ConfigError on failure."""
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as e:
        path = ".".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(f"config schema violation at {path}: {e.message}") from e
