"""JSON schemas of the machine-readable command outputs, which the CLI tests
validate them against."""

_THRESHOLD_SHAPE = {
    "type": "object",
    "required": ["estimate", "diverging", "trend", "window", "last_ratio",
                 "infinity_threshold"],
    "additionalProperties": False,
    "properties": {
        "estimate": {"type": ["number", "string"]},
        "diverging": {"type": "boolean"},
        "trend": {"enum": ["increasing", "decreasing", "flat", "mixed"]},
        "window": {"type": "array", "items": {"type": "integer"},
                   "minItems": 2, "maxItems": 2},
        "last_ratio": {"type": ["number", "string"]},
        "infinity_threshold": {"type": "number"},
    },
}

_INTERVAL = {"type": ["string", "null"]}

CLASSIFY_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "system", "params", "result"],
    "additionalProperties": False,
    "properties": {
        "command": {"const": "classify"},
        "system": {"type": "object"},
        "params": {"type": "object"},
        "result": {
            "type": "object",
            "required": ["case", "threshold", "pp_window", "sc_contains",
                         "sc_within", "ac", "essential", "negative_axis",
                         "caveats", "diagnostics"],
            "additionalProperties": False,
            "properties": {
                "case": {"enum": ["case_i_delta", "case_i_delta_prime",
                                  "case_ii", "no_conclusion"]},
                "threshold": _THRESHOLD_SHAPE,
                "pp_window": _INTERVAL,
                "sc_contains": _INTERVAL,
                "sc_within": _INTERVAL,
                "ac": {"enum": ["empty", "unknown"]},
                "essential": _INTERVAL,
                "negative_axis": {"enum": ["excluded_by_positivity",
                                           "unknown"]},
                "caveats": {"type": "array", "items": {"type": "string"}},
                "diagnostics": {"type": "object"},
            },
        },
    },
}

AVALUE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "system", "params", "result"],
    "additionalProperties": False,
    "properties": {
        "command": {"const": "avalue"},
        "system": {"type": "object"},
        "params": {"type": "object"},
        "result": _THRESHOLD_SHAPE,
    },
}

TABLE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "system", "params", "columns", "rows", "footers"],
    "additionalProperties": False,
    "properties": {
        "command": {"enum": ["growth", "eigs", "propagate"]},
        "system": {"type": "object"},
        "params": {"type": "object"},
        "columns": {"type": "array", "items": {"type": "string"}},
        "rows": {"type": "array", "items": {"type": "array"}},
        "footers": {"type": "array", "items": {"type": "string"}},
    },
}
