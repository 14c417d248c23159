"""A reader of the JSON Schema keywords that ``config_schema.json`` uses.

The package checks configs against its shipped schema with this reader,
not with a schema library.  It implements exactly the keywords the schema
uses, with their Draft 2020-12 meaning: ``$ref`` (local ``#/$defs/...``),
``type`` (one name or a list), ``const``, ``enum``, ``minimum``,
``maximum``, ``exclusiveMinimum``, ``exclusiveMaximum``, ``minItems``,
``maxItems``, ``items``, ``required``, ``properties``,
``additionalProperties: false``, ``allOf``, ``if``/``then``, ``anyOf``,
``oneOf`` and ``unevaluatedProperties: false``.  A schema holding any
other keyword (the annotations ``$schema``, ``title`` and ``description``
aside) raises ``ValueError`` on load, so it cannot outgrow the reader
unnoticed.  As in JSON Schema, a bool is never a number, an integral float
is an integer, and ``True`` never equals 1.
"""

from __future__ import annotations

import operator

_REF_PREFIX = "#/$defs/"
_NOT_CHECKED = frozenset({"$schema", "title", "description", "$defs", "then"})
_TYPES = {"string": str, "boolean": bool, "null": type(None), "array": list,
          "object": dict}


def _is_type(x, name):
    if name == "number" or name == "integer":
        return (not isinstance(x, bool) and isinstance(x, (int, float))
                and (name == "number" or isinstance(x, int) or x.is_integer()))
    return isinstance(x, _TYPES[name])


def _equal(x, value):
    """JSON equality with a scalar ``value``: a bool equals only a bool."""
    return isinstance(x, bool) == isinstance(value, bool) and x == value


def _unexpected(keys):
    keys = sorted(keys, key=str)
    return f"{', '.join(map(repr, keys))} {'was' if len(keys) == 1 else 'were'} unexpected"


def _ref(reader, ref, x, schema, path):
    yield from reader.errors(x, reader.resolve(ref), path)


def _type(reader, names, x, schema, path):
    names = names if isinstance(names, list) else [names]
    if not any(_is_type(x, name) for name in names):
        yield path, f"{x!r} is not of type {', '.join(map(repr, names))}"


def _const(reader, value, x, schema, path):
    if not _equal(x, value):
        yield path, f"{value!r} was expected"


def _enum(reader, values, x, schema, path):
    if not any(_equal(x, value) for value in values):
        yield path, f"{x!r} is not one of {values!r}"


def _bound(fails, text):
    def check(reader, bound, x, schema, path):
        if _is_type(x, "number") and fails(x, bound):
            yield path, f"{x!r} is {text} {bound!r}"
    return check


def _min_items(reader, least, x, schema, path):
    if isinstance(x, list) and len(x) < least:
        yield path, f"{x!r} {'should be non-empty' if least == 1 else 'is too short'}"


def _max_items(reader, most, x, schema, path):
    if isinstance(x, list) and len(x) > most:
        yield path, f"{x!r} {'is expected to be empty' if most == 0 else 'is too long'}"


def _items(reader, item_schema, x, schema, path):
    if isinstance(x, list):
        for i, item in enumerate(x):
            yield from reader.errors(item, item_schema, path + (i,))


def _required(reader, keys, x, schema, path):
    if isinstance(x, dict):
        for key in keys:
            if key not in x:
                yield path, f"{key!r} is a required property"


def _properties(reader, properties, x, schema, path):
    if isinstance(x, dict):
        for key, value_schema in properties.items():
            if key in x:
                yield from reader.errors(x[key], value_schema, path + (key,))


def _additional(reader, _, x, schema, path):
    if isinstance(x, dict):
        extra = x.keys() - schema.get("properties", {}).keys()
        if extra:
            yield path, f"Additional properties are not allowed ({_unexpected(extra)})"


def _unevaluated(reader, _, x, schema, path):
    if isinstance(x, dict):
        seen = reader.evaluated(x, schema)
        extra = [key for key in x if key not in seen]
        if extra:
            yield path, f"Unevaluated properties are not allowed ({_unexpected(extra)})"


def _all_of(reader, branches, x, schema, path):
    for branch in branches:
        yield from reader.errors(x, branch, path)


def _if(reader, test, x, schema, path):
    if "then" in schema and reader.valid(x, test):
        yield from reader.errors(x, schema["then"], path)


def _combinator(exactly_one):
    """``oneOf`` or ``anyOf``.  On failure it reports, as jsonschema's
    ``best_match`` does, its branches' deepest error, or itself when two
    errors share that depth and path."""
    def check(reader, branches, x, schema, path):
        results = [list(reader.errors(x, branch, path)) for branch in branches]
        passing = results.count([])
        if passing == 1 or passing and not exactly_one:
            return
        if passing:
            yield path, f"{x!r} is valid under more than one of the given schemas"
            return
        errors = sorted((e for errors in results for e in errors),
                        key=lambda error: (-len(error[0]), error[0]))
        if len(errors) == 1 or errors[0][0] != errors[1][0]:
            yield errors[0]
        else:
            yield path, f"{x!r} is not valid under any of the given schemas"
    return check


_KEYWORDS = {
    "$ref": _ref, "type": _type, "const": _const, "enum": _enum,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": _bound(operator.ge, "greater than or equal to the maximum of"),
    "minItems": _min_items, "maxItems": _max_items, "items": _items,
    "required": _required, "properties": _properties,
    "additionalProperties": _additional, "unevaluatedProperties": _unevaluated,
    "allOf": _all_of, "if": _if, "anyOf": _combinator(False), "oneOf": _combinator(True),
}


class Schema:
    """A loaded schema; ``first_error`` checks an instance against it."""

    def __init__(self, root: dict):
        self.root = root
        self._check(root)

    def _check(self, schema):
        if not isinstance(schema, dict):
            raise ValueError(f"a schema must be an object, got {schema!r}")
        unknown = schema.keys() - _KEYWORDS.keys() - _NOT_CHECKED
        if unknown:
            raise ValueError(f"unsupported schema keywords {sorted(unknown)}")
        if any(schema.get(key, False) is not False
               for key in ("additionalProperties", "unevaluatedProperties")):
            raise ValueError("additionalProperties and unevaluatedProperties must be false")
        ref = schema.get("$ref")
        if ref is not None and not (ref.startswith(_REF_PREFIX) and
                                    ref[len(_REF_PREFIX):] in self.root.get("$defs", {})):
            raise ValueError(f"$ref {ref!r} names no local definition")
        names = schema.get("type", [])
        if not set(names if isinstance(names, list) else [names]) <= {
                "integer", "number", *_TYPES}:
            raise ValueError(f"unknown type in {names!r}")
        if not all(isinstance(v, (str, int, float, bool, type(None)))
                   for v in schema.get("enum", []) + [schema.get("const")]):
            raise ValueError("const and enum values must be scalars")
        for child in [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values(),
                      *(schema[key] for key in ("items", "if", "then") if key in schema),
                      *(c for key in ("allOf", "anyOf", "oneOf") for c in schema.get(key, []))]:
            self._check(child)

    def resolve(self, ref):
        return self.root["$defs"][ref[len(_REF_PREFIX):]]

    def errors(self, x, schema, path=()):
        """Every ``(path, message)`` error of ``x``, keyword by keyword."""
        for keyword, value in schema.items():
            check = _KEYWORDS.get(keyword)
            if check is not None:
                yield from check(self, value, x, schema, path)

    def valid(self, x, schema):
        return next(self.errors(x, schema), None) is None

    def evaluated(self, x, schema):
        """Keys of the object ``x`` that ``schema`` evaluates: its own
        properties, its ``$ref``'s, its passing ``allOf``/``anyOf``/``oneOf``
        branches', and its ``if`` and ``then``'s when ``if`` passes."""
        keys = schema.get("properties", {}).keys() & x.keys()
        if "$ref" in schema:
            keys |= self.evaluated(x, self.resolve(schema["$ref"]))
        for key in ("allOf", "anyOf", "oneOf"):
            for branch in schema.get(key, []):
                if self.valid(x, branch):
                    keys |= self.evaluated(x, branch)
        if "if" in schema and self.valid(x, schema["if"]):
            keys |= self.evaluated(x, schema["if"]) | self.evaluated(x, schema.get("then", {}))
        return keys

    def first_error(self, x):
        """``(path, message)`` of the error to report, or None when ``x`` is
        valid: the shallowest, ties to the greatest path, as jsonschema's
        ``best_match`` chooses."""
        return max(self.errors(x, self.root), default=None,
                   key=lambda error: (-len(error[0]), error[0]))
