"""Hashing, canonical serialization, and presentation rounding helpers."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import fields
from decimal import ROUND_HALF_UP, Decimal
from functools import cache
from pathlib import Path
from typing import Any

from .errors import IoError, ParseError


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_text(text: str) -> str:
    return sha256_bytes(text.encode("utf-8"))


def sha256_file(path: Path | str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@cache
def _public_fields(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if not f.name.startswith("_"))


@cache
def _float_fields(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.type in ("float", float))


def record_json(record: Any) -> dict:
    """The public fields of a dataclass record (names not starting with ``_``), by name.

    Shallow: values are not copied, so a record nested in another reaches
    ``json.dumps`` as a record and serializes through ``default=record_json``.
    Raises ``TypeError`` for anything that is not a dataclass instance.
    """
    return {name: getattr(record, name) for name in _public_fields(type(record))}


def canonical_json(obj: Any) -> str:
    """Stable serialization: sorted keys, compact separators, no ASCII escaping."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, default=record_json
    )


_FOUR_PLACES = Decimal("0.0001")


def round4(value: float) -> float:
    """Presentation rounding: 4 decimal places, half-up.

    Applied only at serialization boundaries; internal arithmetic stays
    full precision. ``round()`` is unsuitable here (banker's rounding).
    """
    text = repr(float(value))
    _, dot, fraction = text.partition(".")
    # The shortest repr already has at most 4 decimals and no exponent:
    # quantizing cannot change it, so skip the Decimal round trip.
    if dot and len(fraction) <= 4 and "e" not in fraction:
        return float(text)
    return float(Decimal(text).quantize(_FOUR_PLACES, rounding=ROUND_HALF_UP))


def present(obj: Any) -> Any:
    """Recursively apply presentation rounding to every float in a JSON-like tree."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return round4(obj)
    if isinstance(obj, dict):
        return {k: present(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [present(v) for v in obj]
    return obj


def present_record(record: Any) -> dict:
    """``present(record_json(record))`` for a flat record, rounding only its ``float`` fields.

    Serializes to the same JSON as ``present`` gives, without walking the
    other values; each field declared ``float`` must hold a float.
    """
    obj = record_json(record)
    for name in _float_fields(type(record)):
        obj[name] = round4(obj[name])
    return obj


def write_text(path: Path | str, text: str) -> None:
    """Write ``text`` as UTF-8; a path that cannot be written raises ``IoError`` naming it."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc


def make_output_dir(path: Path | str) -> Path:
    """Create the directory ``path`` and its parents where missing.

    A path that cannot be a directory (an existing file, a file among its
    parents) raises ``IoError`` naming it.
    """
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {path}: {exc.strerror or exc}") from exc
    return path


def write_json(path: Path | str, obj: Any, *, rounded: bool = True) -> None:
    """Write a deterministic JSON document (sorted keys, trailing newline).

    Rounding reaches floats in dicts and lists only: a record nested in
    ``obj`` is serialized unrounded, through ``record_json``. A path that
    cannot be written raises ``IoError`` naming it.
    """
    payload = present(obj) if rounded else obj
    text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False, default=record_json)
    write_text(path, text + "\n")


def json_names(directory: Path | str) -> list[str]:
    """Names of the entries in ``directory`` that end ``.json``, sorted as strings.

    The same names in the same order as ``sorted(Path(directory).glob("*.json"))``:
    dotfiles and subdirectories are included, matching is case-sensitive, and
    a directory that is missing, not a directory or not readable lists nothing.
    """
    try:
        names = os.listdir(directory)
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []
    return sorted(name for name in names if name.endswith(".json"))


def read_entry(path: Path | str) -> bytes:
    """The bytes of one file, or of one listed directory entry.

    A path that cannot be read as a file (a directory named ``*.json``,
    say) raises ``ParseError`` naming it; a missing path raises
    ``FileNotFoundError``.
    """
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ParseError(f"{os.path.basename(path)}: cannot read: {exc.strerror or exc}") from exc


def decode_json(data: bytes | str) -> Any:
    """``json.loads`` of text or UTF-8 bytes, where every decode failure is a ``ValueError``.

    Bytes that are not UTF-8 (``UnicodeDecodeError``), text that is not JSON
    (``JSONDecodeError``) and a document nested deeper than the decoder can
    recurse (``RecursionError`` inside ``json``) all raise ``ValueError``, so
    each caller names its own error from one ``except ValueError``.
    """
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except RecursionError:
        raise ValueError("nested too deeply") from None


def read_json_document(path: Path | str, error: type[Exception]) -> tuple[Any, str]:
    """Read and parse one JSON file; returns it with the SHA-256 of the bytes parsed.

    Bytes that are not UTF-8, not JSON or nested too deeply raise ``error``
    naming the file; a path that cannot be read as a file (a directory, say)
    raises ``ParseError``.
    """
    path = Path(path)
    data = read_entry(path)
    try:
        document = decode_json(data)
    except ValueError as exc:
        raise error(f"{path.name}: not valid JSON: {exc}") from exc
    return document, sha256_bytes(data)


_ABSENT = object()
_KIND_NAMES = {str: "a string", bool: "a boolean", int: "an integer", list: "a list", dict: "a JSON object"}


def json_field(obj: dict, key: str, kind: type, where: str, error: type[Exception], default: Any = _ABSENT) -> Any:
    """``obj[key]`` of a parsed JSON object, checked to be exactly a ``kind``.

    An absent key gives ``default``; with no default it raises ``error``
    (``"<where>: missing field '<key>'"``). A present ``default`` value (a
    ``null`` where the default is ``None``) is accepted as is. Types are
    exact, so a boolean is never an integer.
    """
    value = obj.get(key, default)
    if type(value) is kind or value is default is not _ABSENT:
        return value
    if value is _ABSENT:
        raise error(f"{where}: missing field {key!r}")
    raise error(f"{where}: field {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")


def read_json(path: Path | str) -> Any:
    """Read and parse one JSON file; bytes that are not UTF-8 or not JSON raise ``ParseError``."""
    return read_json_document(path, ParseError)[0]
