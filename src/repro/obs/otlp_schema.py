"""A checked-in schema for the OTLP-style JSON export, plus its validator.

Third-party schema validators are a dependency this repo does not take,
so :func:`validate` implements the small JSON-Schema subset this repo's
documents need — ``type``, ``required``, ``properties``,
``additionalProperties`` (schema-valued), ``items``, ``enum``,
``minimum``, ``maximum``, ``pattern`` — and :data:`OTLP_SCHEMA` is the
embedded source of truth.  ``schemas/repro.obs.otlp.schema.json`` at the repository root
is the same schema checked in for external tooling (CI validates exports
against the file; a unit test pins file == dict so they cannot drift).

``python -m repro otlp-validate <export.json>`` runs the validation from
the command line and exits non-zero on the first violation.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List

from repro.errors import ReproError

#: Matches OTLP's stringified unsigned integers ("0", "12500000000").
_UINT_PATTERN = r"^[0-9]+$"

_ATTRIBUTES = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["key", "value"],
        "properties": {
            "key": {"type": "string"},
            "value": {"type": "object"},
        },
    },
}

_NUMBER_POINT = {
    "type": "object",
    "required": ["timeUnixNano"],
    "properties": {
        "timeUnixNano": {"type": "string", "pattern": _UINT_PATTERN},
        "asDouble": {"type": "number"},
        "asInt": {"type": "string", "pattern": _UINT_PATTERN},
        "attributes": _ATTRIBUTES,
    },
}

#: The OTLP-style export document produced by :func:`repro.obs.exporters.to_otlp`.
OTLP_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": "repro.obs.otlp.schema.json",
    "title": "repro OTLP-style export",
    "type": "object",
    "required": ["resourceSpans", "resourceMetrics"],
    "properties": {
        "resourceSpans": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["resource", "scopeSpans"],
                "properties": {
                    "resource": {
                        "type": "object",
                        "required": ["attributes"],
                        "properties": {"attributes": _ATTRIBUTES},
                    },
                    "scopeSpans": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["scope", "spans"],
                            "properties": {
                                "scope": {
                                    "type": "object",
                                    "required": ["name"],
                                    "properties": {
                                        "name": {"type": "string"},
                                        "version": {"type": "string"},
                                    },
                                },
                                "spans": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": [
                                            "traceId", "spanId", "name",
                                            "kind", "startTimeUnixNano",
                                            "endTimeUnixNano",
                                        ],
                                        "properties": {
                                            "traceId": {
                                                "type": "string",
                                                "pattern":
                                                    "^[0-9a-f]{32}$",
                                            },
                                            "spanId": {
                                                "type": "string",
                                                "pattern":
                                                    "^[0-9a-f]{16}$",
                                            },
                                            "name": {"type": "string"},
                                            "kind": {"enum": [1, 2, 3, 4, 5]},
                                            "startTimeUnixNano": {
                                                "type": "string",
                                                "pattern": _UINT_PATTERN,
                                            },
                                            "endTimeUnixNano": {
                                                "type": "string",
                                                "pattern": _UINT_PATTERN,
                                            },
                                            "attributes": _ATTRIBUTES,
                                            "events": {
                                                "type": "array",
                                                "items": {
                                                    "type": "object",
                                                    "required": [
                                                        "name",
                                                        "timeUnixNano",
                                                    ],
                                                    "properties": {
                                                        "name": {
                                                            "type": "string",
                                                        },
                                                        "timeUnixNano": {
                                                            "type": "string",
                                                            "pattern":
                                                                _UINT_PATTERN,
                                                        },
                                                        "attributes":
                                                            _ATTRIBUTES,
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
        "resourceMetrics": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["resource", "scopeMetrics"],
                "properties": {
                    "resource": {
                        "type": "object",
                        "required": ["attributes"],
                        "properties": {"attributes": _ATTRIBUTES},
                    },
                    "scopeMetrics": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["scope", "metrics"],
                            "properties": {
                                "scope": {
                                    "type": "object",
                                    "required": ["name"],
                                    "properties": {
                                        "name": {"type": "string"},
                                        "version": {"type": "string"},
                                    },
                                },
                                "metrics": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["name"],
                                        "properties": {
                                            "name": {"type": "string"},
                                            "gauge": {
                                                "type": "object",
                                                "required": ["dataPoints"],
                                                "properties": {
                                                    "dataPoints": {
                                                        "type": "array",
                                                        "items":
                                                            _NUMBER_POINT,
                                                    },
                                                },
                                            },
                                            "sum": {
                                                "type": "object",
                                                "required": [
                                                    "dataPoints",
                                                    "aggregationTemporality",
                                                    "isMonotonic",
                                                ],
                                                "properties": {
                                                    "aggregationTemporality":
                                                        {"enum": [1, 2]},
                                                    "isMonotonic": {
                                                        "type": "boolean",
                                                    },
                                                    "dataPoints": {
                                                        "type": "array",
                                                        "items":
                                                            _NUMBER_POINT,
                                                    },
                                                },
                                            },
                                            "summary": {
                                                "type": "object",
                                                "required": ["dataPoints"],
                                                "properties": {
                                                    "dataPoints": {
                                                        "type": "array",
                                                        "items": {
                                                            "type": "object",
                                                            "required": [
                                                                "count",
                                                                "sum",
                                                                "timeUnixNano",
                                                                "quantileValues",
                                                            ],
                                                            "properties": {
                                                                "count": {
                                                                    "type":
                                                                        "string",
                                                                    "pattern":
                                                                        _UINT_PATTERN,
                                                                },
                                                                "sum": {
                                                                    "type":
                                                                        "number",
                                                                },
                                                                "timeUnixNano": {
                                                                    "type":
                                                                        "string",
                                                                    "pattern":
                                                                        _UINT_PATTERN,
                                                                },
                                                                "quantileValues": {
                                                                    "type":
                                                                        "array",
                                                                    "items": {
                                                                        "type":
                                                                            "object",
                                                                        "required": [
                                                                            "quantile",
                                                                            "value",
                                                                        ],
                                                                        "properties": {
                                                                            "quantile": {
                                                                                "type": "number",
                                                                                "minimum": 0,
                                                                            },
                                                                            "value": {
                                                                                "type": "number",
                                                                            },
                                                                        },
                                                                    },
                                                                },
                                                            },
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(document: Any, schema: Dict[str, Any],
             path: str = "$") -> List[str]:
    """Violations of ``schema`` in ``document`` (empty list = valid).

    Supports the JSON-Schema subset the checked-in schemas use:
    ``type``, ``required``, ``properties``, ``additionalProperties``,
    ``items``, ``enum``, ``minimum``, ``maximum``, ``pattern``.  Keys a
    schema does not name are allowed (OTLP is forward-extensible) unless
    ``additionalProperties`` gives the schema their values must satisfy;
    unknown keywords in the *schema* are ignored.
    """
    errors: List[str] = []
    expected = schema.get("type")
    if expected is not None:
        check = _TYPE_CHECKS.get(expected)
        if check is None:
            raise ReproError(f"unsupported schema type {expected!r}")
        if not check(document):
            errors.append(f"{path}: expected {expected}, "
                          f"got {type(document).__name__}")
            return errors  # structural mismatch; nothing deeper to check
    if "enum" in schema and document not in schema["enum"]:
        errors.append(f"{path}: {document!r} not in {schema['enum']!r}")
    if isinstance(document, (int, float)) and not isinstance(document, bool):
        if "minimum" in schema and document < schema["minimum"]:
            errors.append(f"{path}: {document} < minimum "
                          f"{schema['minimum']}")
        if "maximum" in schema and document > schema["maximum"]:
            errors.append(f"{path}: {document} > maximum "
                          f"{schema['maximum']}")
    if "pattern" in schema and isinstance(document, str) \
            and not re.search(schema["pattern"], document):
        errors.append(f"{path}: {document!r} does not match "
                      f"{schema['pattern']!r}")
    if isinstance(document, dict):
        for key in schema.get("required", ()):
            if key not in document:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, subschema in properties.items():
            if key in document:
                errors.extend(validate(document[key], subschema,
                                       f"{path}.{key}"))
        if "additionalProperties" in schema:
            for key, value in document.items():
                if key not in properties:
                    errors.extend(validate(
                        value, schema["additionalProperties"],
                        f"{path}.{key}"))
    if isinstance(document, list) and "items" in schema:
        for index, item in enumerate(document):
            errors.extend(validate(item, schema["items"],
                                   f"{path}[{index}]"))
    return errors


def validate_otlp(document: Any) -> List[str]:
    """Violations of the export schema in ``document`` (empty = valid)."""
    return validate(document, OTLP_SCHEMA)


def schema_main(argv: Any = None) -> int:
    """``repro otlp-validate <export.json> [--schema <file>]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro otlp-validate",
        description="Validate an OTLP-style JSON export against the "
                    "checked-in schema.")
    parser.add_argument("path", help="export document to validate")
    parser.add_argument("--schema", default=None,
                        help="validate against this schema file instead of "
                             "the embedded schema")
    args = parser.parse_args(argv)
    with open(args.path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    schema = OTLP_SCHEMA
    if args.schema is not None:
        with open(args.schema, "r", encoding="utf-8") as handle:
            schema = json.load(handle)
    errors = validate(document, schema)
    if errors:
        for error in errors:
            print(f"INVALID {error}")
        return 1
    print(f"OK {args.path} conforms to {schema.get('$id', 'schema')}")
    return 0
