"""Reads every input file: config, transcript, events, suite, instance and
heuristic files.  Each error is a ValueError of one line that names the file
and says what is wrong with it.  Imports no other cdeoh module."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path
from typing import Iterator, get_args, get_origin

_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
          bool: ("a boolean", "booleans"), str: ("a string", "strings"),
          type(None): ("null", "nulls"), tuple: ("a non-empty list", "non-empty lists"),
          list: ("a list", "lists"), dict: ("an object", "objects")}


def has_type(want, value) -> bool:
    """Whether the JSON value `value` has type `want`: a scalar type, `X | None`,
    `list[X]`, `tuple[X, ...]` (a non-empty list) or `dict[str, X]`."""
    if want is float:  # finite: abs() of NaN, an infinity or a huge int is not <= max
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if type(want) is type:
        return type(value) is want  # so a JSON bool is not an int
    origin, args = get_origin(want), get_args(want)
    if origin is types.UnionType:
        return any(has_type(a, value) for a in args)
    if origin is dict:  # JSON object keys are strings
        return type(value) is dict and all(has_type(args[1], v) for v in value.values())
    return (type(value) is list and (origin is list or bool(value))
            and all(has_type(args[0], x) for x in value))


def type_name(want, plural: bool = False) -> str:
    """`want` as an error message names it, e.g. "a non-empty list of integers",
    or "non-empty lists of integers" if `plural`."""
    origin, args = get_origin(want), get_args(want)
    if origin is types.UnionType:
        return " or ".join(type_name(a, plural) for a in args)
    name = _NAMES[origin or want][plural]
    if origin is None:
        return name
    return f"{name} of {type_name(args[1] if origin is dict else args[0], True)}"


def check_fields(obj: dict, fields: dict, where: str) -> None:
    """ValueError naming `where` unless `obj` has each key of `fields` with a
    value of its declared type; keys not in `fields` are ignored."""
    for key, want in fields.items():
        if key not in obj:
            raise ValueError(f"{where}: missing key {key!r}")
        if not has_type(want, obj[key]):
            raise ValueError(f"{where}: {key!r} must be {type_name(want)}")


def read_text(path: Path, what: str) -> str:
    """The text of the UTF-8 file `path`, which holds a `what`."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise ValueError(f"cannot read {what} {path}: {e.strerror or e}") from None
    except UnicodeDecodeError:
        raise ValueError(f"{what} {path} is not UTF-8 text") from None


def decode(text: str, error: str):
    """The JSON value of `text`; ValueError "<error>: <why>" if it is not JSON."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # also a too-long integer, or nested too deep
        raise ValueError(f"{error}: {e}") from None


def read_object(path: Path, what: str) -> dict:
    """The JSON object in the file `path`, which holds a `what`."""
    data = decode(read_text(path, what), f"{what} {path} is not valid JSON")
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return data


def json_lines(text: str, source: str) -> Iterator[tuple[str, object]]:
    """`("source:line", value)` of each nonblank line of JSON-lines `text`."""
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip():
            where = f"{source}:{lineno}"
            yield where, decode(line, f"{where}: invalid JSON")
