"""Versioned JSON serialization of online schemes (compile once, deploy anywhere).

A synthesized :class:`~repro.core.scheme.OnlineScheme` is a *compilation
artifact*: producing it can take minutes of search, running it is O(1) per
element.  This module gives schemes a canonical, human-readable on-disk form
so the two phases can happen in different processes (and on different
machines)::

    {
      "format": "repro/online-scheme",
      "version": 1,
      "provenance": "opera:variance",
      "initializer": [["int", "0"], ["int", "0"], ["int", "0"]],
      "program": "(online (state v s n) (elem x) (outputs ...))"
    }

Design notes:

* the online program is stored as one canonical s-expression
  (:func:`repro.ir.pretty.online_program_to_sexpr`), re-parsed with strict
  validation by :func:`repro.ir.parser.parse_online_program` — arity, name
  scoping, and online-ness are all re-checked on load;
* initializer values use a small tagged encoding (below) so exact rationals
  survive the round trip bit-for-bit — serializing Welford's scheme must not
  quietly turn ``1/3`` into ``0.3333...``;
* the envelope is versioned; loading rejects unknown formats/versions
  instead of guessing.

Value encoding
    ``true``/``false`` stay JSON booleans; other values are tagged arrays:
    ``["int", "<decimal>"]`` (string, so bignums survive JSON readers with
    53-bit numbers), ``["rat", "<num>", "<den>"]``, ``["float", "<repr>"]``
    (``repr`` round-trips exactly, including ``inf``/``nan``),
    ``["str", "<text>"]`` (checkpoint partition keys), and
    ``["tuple", [...]]`` / ``["list", [...]]`` for containers.  Digit
    strings have any length: past CPython's int/str conversion limit
    (``sys.get_int_max_str_digits()``) they go through
    :class:`decimal.Decimal`, and the process-wide limit is left alone.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction
from typing import Any

from ..ir.nodes import OnlineProgram
from ..ir.parser import ParseError, parse_online_program
from ..ir.pretty import online_program_to_sexpr
from ..ir.values import Value

#: Envelope identifiers checked on load.
SCHEME_FORMAT = "repro/online-scheme"
SCHEME_FORMAT_VERSION = 1

_INT_RE = re.compile(r"^-?\d+$")
_POS_INT_RE = re.compile(r"^\d+$")


class SchemeFormatError(ValueError):
    """The serialized form is malformed, inconsistent, or from the future."""


def _digits(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past sys.get_int_max_str_digits()
        return str(Decimal(n))


def _integer(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past sys.get_int_max_str_digits()
        return int(Decimal(digits))


def encode_value(value: Value) -> Any:
    """Encode one runtime value as a JSON-safe tagged form.

    Strings are not IR values, but checkpoint partition keys (user IDs,
    category names) routinely are strings, so the codec carries them too.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return ["str", value]
    if isinstance(value, int):
        return ["int", _digits(value)]
    if isinstance(value, Fraction):
        return ["rat", _digits(value.numerator), _digits(value.denominator)]
    if isinstance(value, float):
        return ["float", repr(value)]
    if isinstance(value, tuple):
        return ["tuple", [encode_value(v) for v in value]]
    if isinstance(value, list):
        return ["list", [encode_value(v) for v in value]]
    raise SchemeFormatError(f"cannot serialize value of type {type(value).__name__}")


def decode_value(data: Any) -> Value:
    """Strict inverse of :func:`encode_value`."""
    if isinstance(data, bool):
        return data
    if not (isinstance(data, list) and data and isinstance(data[0], str)):
        raise SchemeFormatError(f"malformed encoded value: {data!r}")
    tag, *rest = data
    if tag == "str" and len(rest) == 1 and isinstance(rest[0], str):
        return rest[0]
    if tag == "int" and len(rest) == 1 and isinstance(rest[0], str):
        if not _INT_RE.match(rest[0]):
            raise SchemeFormatError(f"malformed int literal {rest[0]!r}")
        return _integer(rest[0])
    if (
        tag == "rat"
        and len(rest) == 2
        and all(isinstance(r, str) for r in rest)
        and _INT_RE.match(rest[0])
        and _POS_INT_RE.match(rest[1])
        and rest[1] != "0"
    ):
        return Fraction(_integer(rest[0]), _integer(rest[1]))
    if tag == "float" and len(rest) == 1 and isinstance(rest[0], str):
        try:
            return float(rest[0])
        except ValueError:
            raise SchemeFormatError(f"malformed float literal {rest[0]!r}") from None
    if tag in ("tuple", "list") and len(rest) == 1 and isinstance(rest[0], list):
        items = [decode_value(v) for v in rest[0]]
        return tuple(items) if tag == "tuple" else items
    raise SchemeFormatError(f"malformed encoded value: {data!r}")


def scheme_to_dict(scheme) -> dict:
    """The JSON-ready envelope for one scheme (see module docstring)."""
    return {
        "format": SCHEME_FORMAT,
        "version": SCHEME_FORMAT_VERSION,
        "provenance": scheme.provenance,
        "initializer": [encode_value(v) for v in scheme.initializer],
        "program": online_program_to_sexpr(scheme.program),
    }


def scheme_from_dict(data: dict):
    """Rebuild a scheme from its envelope, validating everything.

    Raises :class:`SchemeFormatError` on any malformed, inconsistent, or
    unknown-version input; never returns a partially-valid scheme.
    """
    from .scheme import OnlineScheme

    if not isinstance(data, dict):
        raise SchemeFormatError(f"scheme envelope must be an object, got {type(data).__name__}")
    if data.get("format") != SCHEME_FORMAT:
        raise SchemeFormatError(f"not a serialized online scheme: format={data.get('format')!r}")
    if data.get("version") != SCHEME_FORMAT_VERSION:
        raise SchemeFormatError(
            f"unsupported scheme format version {data.get('version')!r} "
            f"(this build reads version {SCHEME_FORMAT_VERSION})"
        )
    provenance = data.get("provenance", "deserialized")
    if not isinstance(provenance, str):
        raise SchemeFormatError("provenance must be a string")
    raw_init = data.get("initializer")
    if not isinstance(raw_init, list):
        raise SchemeFormatError("initializer must be an array of encoded values")
    initializer = tuple(decode_value(v) for v in raw_init)
    raw_program = data.get("program")
    if not isinstance(raw_program, str):
        raise SchemeFormatError("program must be an s-expression string")
    try:
        program: OnlineProgram = parse_online_program(raw_program)
    except ParseError as exc:
        raise SchemeFormatError(f"invalid online program: {exc}") from None
    if len(initializer) != program.arity:
        raise SchemeFormatError(
            f"initializer arity {len(initializer)} != program arity {program.arity}"
        )
    return OnlineScheme(initializer, program, provenance=provenance)


def dumps_scheme(scheme, *, indent: int | None = 2) -> str:
    """Serialize to canonical JSON text (stable key order)."""
    return json.dumps(scheme_to_dict(scheme), indent=indent, sort_keys=True)


def loads_scheme(text: str):
    """Parse JSON text produced by :func:`dumps_scheme`, strictly validated."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemeFormatError(f"not valid JSON: {exc}") from None
    return scheme_from_dict(data)
