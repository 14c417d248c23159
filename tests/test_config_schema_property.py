"""Property check: the package's schema reader against jsonschema.

``jsonschema.Draft202012Validator`` is the reference here, as scipy is
elsewhere; the package never imports it.  Every shipped config is mutated
in one or two places (a value replaced, a key deleted, an undeclared key
added).  The reader and the reference must agree on every verdict, and
after one mutation the reader must report the path of ``best_match``.
Every single replacement by an edge value, deletion and undeclared key is
also swept.
"""
import copy
import glob
import json
import os
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match

from usdlab.errors import ConfigError
from usdlab.experiments import validate_config
from usdlab.schema import Schema

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = json.loads(resources.files("usdlab").joinpath("config_schema.json").read_text())
READER = Schema(SHIPPED)
REFERENCE = jsonschema.Draft202012Validator(SHIPPED)
CONFIGS = []
for _path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
    with open(_path) as _fh:
        CONFIGS.append(json.load(_fh))


def _declared_keys(schema):
    """Every property name the schema declares anywhere."""
    if isinstance(schema, dict):
        return set(schema.get("properties", {})).union(
            *(_declared_keys(v) for v in schema.values()))
    if isinstance(schema, list):
        return set().union(*(_declared_keys(v) for v in schema))
    return set()


KEYS = sorted(_declared_keys(SHIPPED)) + ["undeclared_key"]
scalars = st.one_of(
    st.sampled_from([0, 1, 2, -1, 0.5, 1.0, 2.0, 1e20, 2**64, True, False, None,
                     "", "x", "none", "mean_by_x"] + SHIPPED["properties"]["kind"]["enum"]),
    st.integers(-3, 70), st.floats(-2, 3))
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3), max_leaves=6)


def _places(x, path=()):
    yield path
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield from _places(value, path + (key,))


def _at(x, path):
    for key in path:
        x = x[key]
    return x


@st.composite
def mutated(draw, count):
    """A shipped config after ``count`` mutations."""
    x = copy.deepcopy(draw(st.sampled_from(CONFIGS)))
    for _ in range(count):
        path = draw(st.sampled_from(list(_places(x))))
        target = _at(x, path)
        ops = ["replace"] * bool(path) + ["add"] * isinstance(target, dict)
        ops += ["delete"] * (bool(path) and isinstance(_at(x, path[:-1]), dict))
        op = draw(st.sampled_from(ops))
        if op == "add":
            target[draw(st.sampled_from(KEYS))] = draw(values)
        elif op == "delete":
            del _at(x, path[:-1])[path[-1]]
        else:
            _at(x, path[:-1])[path[-1]] = draw(values)
    return x


def _agree(x, single):
    ours, theirs = READER.first_error(x), best_match(REFERENCE.iter_errors(x))
    assert (ours is None) == (theirs is None), x
    if single and theirs is not None:
        assert ours[0] == tuple(theirs.absolute_path), x


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(st.just(n), mutated(n))))
def test_reader_agrees_with_draft_2020_12_validator(case):
    count, x = case
    _agree(x, count == 1)


EDGES = [True, False, None, 0, -1, 1, 2, 0.5, 1.0, 2**64, "x", [], [0], {},
         {"undeclared_key": 1}]


def _single_faults(cfg):
    """Copies of ``cfg`` with one undeclared key added, one key deleted or
    one value replaced by an edge value."""
    for path in _places(cfg):
        if isinstance(_at(cfg, path), dict):
            x = copy.deepcopy(cfg)
            _at(x, path)["undeclared_key"] = 1
            yield x
        if path and isinstance(_at(cfg, path[:-1]), dict):
            x = copy.deepcopy(cfg)
            del _at(x, path[:-1])[path[-1]]
            yield x
        for edge in EDGES if path else ():
            x = copy.deepcopy(cfg)
            _at(x, path[:-1])[path[-1]] = copy.deepcopy(edge)
            yield x


def test_every_single_edge_fault_is_reported_where_best_match_reports_it():
    for cfg in CONFIGS:
        for x in _single_faults(cfg):
            _agree(x, True)


@pytest.mark.parametrize("kind, key, value", [
    ("usd_verify", "points", {"equispaced": 0}),
    ("usd_verify", "points", {"equispaced": 0.5}),
    ("usd_verify", "points", {"grid": 4}),
    ("usd_verify", "points", {"equispaced": 4, "bogus": 1}),
    ("usd_verify", "points", {"equispaced": 4, "file": 2.0}),
    ("usd_verify", "points", {"seeded": {"m": 0}}),
    ("usd_verify", "points", {"seeded": 5}),
    ("usd_verify", "points", [1]),
    ("usd_verify", "epsilon", 0),
    ("usd_verify", "epsilon", 1),
    ("usd_verify", "epsilon", 0.75),
    ("usd_verify", "p", True),
    ("usd_search", "m", 8.0),
    ("chaining_compare", "sup_bound", 0),
    ("recovery_rate", "support_cap", None),
    ("recovery_rate", "support_cap", 0),
])
def test_edge_params_are_judged_as_best_match_judges_them(kind, key, value):
    cfg = copy.deepcopy(next(c for c in CONFIGS if c["kind"] == kind))
    cfg["params"][key] = value
    _agree(cfg, True)


def test_failing_points_branch_names_its_field():
    cfg = {"kind": "usd_verify", "seed": 1, "out": "x",
           "params": {"max_abs_freq": 2, "v": 2, "p": 2, "points": {"equispaced": 0}}}
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert exc.value.path == "params.points.equispaced"


@pytest.mark.parametrize("where, extra", [
    ((), {"pattern": "^a"}),
    (("$defs", "count"), {"multipleOf": 2}),
    (("$defs", "opts"), {"additionalProperties": {"type": "integer"}}),
    (("$defs", "sweep", "items"), {"$ref": "#/$defs/absent"}),
    (("properties", "seed"), {"type": "bigint"}),
])
def test_unsupported_schema_keywords_raise_on_load(where, extra):
    schema = copy.deepcopy(SHIPPED)
    _at(schema, where).update(extra)
    with pytest.raises(ValueError):
        Schema(schema)
