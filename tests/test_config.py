"""validate_config against jsonschema's draft-07 validator as the oracle.

On finite configs both accept exactly the same documents, and where a config
breaks the schema once, both name the same place.  Non-finite numbers, which
Python's json reads and draft-07 counts as numbers, are rejected as well.
ExperimentConfig, built directly or from a document, is held to the same
schema.
"""

import copy
import dataclasses
import json
import re
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyou import ExperimentConfig
from levyou.config import _KEYWORDS, CONFIG_SCHEMA, ConfigError, validate_config
from levyou.cumulants import R_MAX

EXAMPLE = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "example_gamma_ou.json").read_text())
ORACLE = jsonschema.Draft7Validator(CONFIG_SCHEMA)


def subschemas(schema):
    """The schema and every schema nested in it."""
    yield schema
    for keyword in ("items", "not", "propertyNames", "additionalProperties"):
        if isinstance(schema.get(keyword), dict):
            yield from subschemas(schema[keyword])
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)


def object_paths(schema, path=()):
    """Paths of the schema's objects and of their properties."""
    yield path
    for key, sub in schema.get("properties", {}).items():
        yield path + (key,)
        if sub.get("type") == "object":
            yield from object_paths(sub, path + (key,))


PATHS = sorted(set(object_paths(CONFIG_SCHEMA)) - {()}
               | {p + ("extra",) for p in object_paths(CONFIG_SCHEMA)})

BOUNDS = sorted({sub[k] for sub in subschemas(CONFIG_SCHEMA)
                 for k in ("minimum", "maximum", "exclusiveMinimum") if k in sub})
# each bound, its neighbours, as int and float; integral floats; -0.0
EDGES = ([v for b in BOUNDS for v in (b - 1, b, b + 1)]
         + [float(v) for b in BOUNDS for v in (b - 1, b, b + 1)]
         + [-0.0, 0.5, 2.5, 1e6, -1e-300, 1e-300, 12.000000000000002])
SCALARS = st.one_of(
    st.sampled_from(EDGES),
    st.sampled_from([True, False, None, "", "x", "gaussian", "cpexp", "mixed"]),
    st.integers(-3, 120),
    st.floats(allow_nan=False, allow_infinity=False),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["lo", "hi", "n", "n_steps", "2", "a", "12\n"]),
                    SCALARS, max_size=3),
)
# (path, value, delete): delete the key at path, or set it to value, making
# missing objects on the way
MUTATIONS = st.tuples(st.sampled_from(PATHS), VALUES, st.booleans())


def mutated(mutations):
    cfg = copy.deepcopy(EXAMPLE)
    for path, value, delete in mutations:
        node = cfg
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        if delete:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return cfg


def violation_path(cfg):
    """The dot path validate_config names, or None when it accepts cfg."""
    try:
        validate_config(cfg)
    except ConfigError as e:
        prefix = "config schema violation at "
        assert str(e).startswith(prefix)
        return str(e)[len(prefix):].split(": ")[0]
    return None


def oracle_paths(cfg):
    return [".".join(map(str, e.absolute_path)) or "<root>" for e in ORACLE.iter_errors(cfg)]


def assert_agrees_with_oracle(cfg):
    ours, theirs = violation_path(cfg), oracle_paths(cfg)
    assert (ours is None) == (not theirs), (ours, theirs)
    if theirs:
        # the shallowest violation; with one violation, the only one
        depth = min(p.count(".") + (p != "<root>") for p in theirs)
        assert ours in {p for p in theirs if p.count(".") + (p != "<root>") == depth}


def test_example_is_accepted():
    assert violation_path(EXAMPLE) is None and oracle_paths(EXAMPLE) == []


@pytest.mark.parametrize("mutations", [
    [(("n_samples",), 1e6, False)],  # an integral float is an integer
    [(("n_samples",), 99.0, False)],
    [(("n_samples",), 100.5, False)],
    [(("n_samples",), True, False)],  # bool is not a number
    [(("params", "beta"), 0, False)],
    [(("params", "beta"), -0.0, False)],
    [(("params", "beta"), False, False)],
    [(("params", "lam"), 0, False)],
    [(("params", "lam"), 1e-300, False)],
    [(("driver", "C"), 0, False)],
    [(("driver", "C"), -1e-300, False)],
    [(("driver", "variant"), "Gaussian", False)],
    [(("p_orders",), [12], False)],
    [(("p_orders",), [13], False)],
    [(("p_orders",), [2.0], False)],
    [(("T_grid",), [], False)],
    [(("moments",), [], False)],
    [(("seed",), None, True)],
    [(("params", "rho"), None, True)],
    [(("extra",), 1, False)],
    [(("sim", "extra"), 1, False)],
    [(("density_grid",), {"lo": 0.0, "hi": 1.0}, False)],
    [(("params", "lam"), -1, False), (("n_samples",), 5, False)],
    [(("params",), None, True), (("driver", "variant"), 1, False)],
], ids=lambda m: repr(m)[:60])
def test_named_cases_agree_with_jsonschema(mutations):
    assert_agrees_with_oracle(mutated(mutations))


def test_order_cap_follows_r_max():
    # p_orders takes the orders up to R_MAX and no higher
    for order, accepted in ((R_MAX, True), (R_MAX + 1, False)):
        cfg = mutated([(("p_orders",), [order], False)])
        assert_agrees_with_oracle(cfg)
        assert (violation_path(cfg) is None) == accepted


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.lists(MUTATIONS, min_size=1, max_size=3))
def test_mutations_agree_with_jsonschema(mutations):
    cfg = mutated(mutations)
    assert_agrees_with_oracle(cfg)
    theirs = oracle_paths(cfg)
    if len(theirs) == 1:
        assert violation_path(cfg) == theirs[0]


def numeric_paths(schema, path=()):
    """Paths of the schema's numbers, array items as index 0."""
    if schema.get("type") in ("number", "integer"):
        yield path
    for key, sub in schema.get("properties", {}).items():
        yield from numeric_paths(sub, path + (key,))
    if "items" in schema:
        yield from numeric_paths(schema["items"], path + (0,))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_numbers_are_rejected_where_they_stand(value):
    for path in numeric_paths(CONFIG_SCHEMA):
        cfg = copy.deepcopy(EXAMPLE)
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if isinstance(path[-1], int):
            node[:] = [value]
        else:
            node[path[-1]] = value
        assert violation_path(cfg) == ".".join(map(str, path))


def test_every_schema_keyword_is_implemented():
    # a keyword added to the schema without a check would pass silently, and
    # the check of a keyword dropped from it would stay as dead code
    used = {k for sub in subschemas(CONFIG_SCHEMA) for k in sub}
    assert set(_KEYWORDS) == used | {"$schema", "title"}, set(_KEYWORDS) ^ used
    assert set(_KEYWORDS) <= set(jsonschema.Draft7Validator.VALIDATORS) | {"$schema", "title"}


# Each schema path, and ExperimentConfig fields that break it there.
BAD_FIELDS = {
    "T_grid": {"T_grid": ()},
    "T_grid.1": {"T_grid": (5.0, -1.0)},
    "p_orders.0": {"p_orders": (1, 2)},
    "p_orders.1": {"p_orders": (2, 13)},
    "n_samples": {"n_samples": 99},
    "workers": {"workers": -1},
    "density_grid.n": {"density_grid": (-6.0, 6.0, 0)},
    "sim.n_steps": {"n_steps": 0},
    "sim.n_paths": {"n_paths": 0},
    "moments.1": {"moments": (1, -1)},
}


@pytest.mark.parametrize("path", BAD_FIELDS)
def test_experiment_config_is_held_to_the_schema(path):
    # built directly, not from a document that validate_config has seen
    example = ExperimentConfig.from_dict(EXAMPLE)
    with pytest.raises(ConfigError, match=rf"^config schema violation at {re.escape(path)}: "):
        dataclasses.replace(example, **BAD_FIELDS[path])



# Documents that from_dict parsed (a string read as a number, a string read
# as a one-horizon grid, an ignored key) or failed on with a TypeError.
BAD_DOCUMENTS = {
    "n_samples": {**EXAMPLE, "n_samples": "100000"},
    "T_grid": {**EXAMPLE, "T_grid": "5"},
    "<root>": {**EXAMPLE, "n_sample": 100000},
    "params": {**EXAMPLE, "params": {**EXAMPLE["params"], "lambda": 1.0}},
}


@pytest.mark.parametrize("path", BAD_DOCUMENTS)
def test_from_dict_holds_its_document_to_the_schema(path):
    with pytest.raises(ConfigError, match=rf"^config schema violation at {re.escape(path)}: "):
        ExperimentConfig.from_dict(BAD_DOCUMENTS[path])
