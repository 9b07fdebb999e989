"""Parsing of call-relationship logs, performance logs, and type catalogs;
writing of the two logs and of every JSON output file.

Call log: CSV with columns
    caller_method,callee_method,caller_class,callee_class,caller_params,callee_params
where a params field is a ``;``-separated list of type names, each with an
optional ``[]`` suffix per array rank. Empty field means no params. Lines
starting with ``#`` are comments.

Perf log: CSV with columns ``class,cpu_time,retained_memory``. Either log
may open with these column names as its header row (see :func:`_read_rows`).

Type catalog: an indented tree format, see :func:`parse_type_catalog`.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

log = logging.getLogger(__name__)

_NAME_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$.]*")

#: Primitive JVM types and their scalar sizes in bytes. A boolean declared
#: alone occupies 4 bytes; inside an array each element occupies 1 byte.
PRIMITIVE_SIZES = {
    "byte": 1,
    "short": 2,
    "int": 4,
    "long": 8,
    "char": 2,
    "float": 4,
    "double": 8,
    "boolean": 4,
}

BOOLEAN_ARRAY_ELEMENT_SIZE = 1

#: The JVM's limit on array dimensions (JVMS 4.3.2); it also bounds the
#: cost model's recursion through array element types.
MAX_ARRAY_RANK = 255


class LogParseError(ValueError):
    """Malformed log or catalog input; carries the file path and line number,
    and its message starts with ``path:line: ``."""

    def __init__(self, message: str, path: str | Path, line: int):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


class ArgumentError(ValueError):
    """An argument outside its documented values; carries ``param``, the
    name of the library parameter at fault, for a caller to name its flag."""

    def __init__(self, message: str, param: str):
        self.param = param
        super().__init__(message)


class _TypeRefFields(NamedTuple):
    name: str
    array_rank: int = 0


class TypeRef(_TypeRefFields):
    """A type name plus array rank (0 = scalar), hashed and compared by value
    in C; a subclass, as a named tuple cannot define the checking ``__new__``."""

    __slots__ = ()

    def __new__(cls, name: str, array_rank: int = 0):
        if not name:
            raise ValueError("type name must be non-empty")
        if not 0 <= array_rank <= MAX_ARRAY_RANK:
            raise ValueError(f"array rank {array_rank} of {name!r} is not in "
                             f"[0, {MAX_ARRAY_RANK}]")
        return super().__new__(cls, name, array_rank)

    def __str__(self) -> str:
        return self.name + "[]" * self.array_rank

    @classmethod
    def parse(cls, token: str) -> "TypeRef":
        token = token.strip()
        rank = 0
        while token.endswith("[]"):
            token = token[:-2]
            rank += 1
        if not _NAME_RE.fullmatch(token):
            raise ValueError(f"invalid type name {token!r}")
        return cls(token, rank)


class CallRecord(NamedTuple):
    """One line of the call-relationship log: an immutable, hashable tuple
    whose fields follow ``CALL_HEADER``."""

    caller_method: str
    callee_method: str
    caller_class: str
    callee_class: str
    caller_params: tuple[TypeRef, ...]
    callee_params: tuple[TypeRef, ...]


@dataclass(frozen=True)
class PerfRecord:
    """One line of the performance log: per-class CPU time and retained memory."""

    class_id: str
    cpu_time: float  # milliseconds
    retained_bytes: float


# --- type catalog -----------------------------------------------------------


@dataclass(frozen=True)
class ObjectLayout:
    fields: tuple[TypeRef, ...]


@dataclass(frozen=True)
class OpaqueLayout:
    size_bytes: int


@dataclass(frozen=True)
class TypeCatalog:
    """Read-only layouts of the declared types, which may not name a
    primitive (a primitive is sized by ``PRIMITIVE_SIZES`` alone). The
    caller's mapping is copied, never changed."""

    layouts: Mapping[str, ObjectLayout | OpaqueLayout] = field(default_factory=dict)

    def __post_init__(self):
        for name in self.layouts:
            if name in PRIMITIVE_SIZES:
                raise ValueError(f"cannot redefine primitive type {name!r}")
        object.__setattr__(self, "layouts", MappingProxyType(dict(self.layouts)))


# --- parsing ----------------------------------------------------------------

#: The documented header rows of the call log and the perf log.
CALL_HEADER = ("caller_method", "callee_method", "caller_class", "callee_class",
               "caller_params", "callee_params")
PERF_HEADER = ("class", "cpu_time", "retained_memory")


def _parse_params(text: str, path, lineno) -> tuple[TypeRef, ...]:
    if not text:
        return ()
    refs = []
    for token in text.split(";"):
        try:
            refs.append(TypeRef.parse(token))
        except ValueError as exc:
            raise LogParseError(str(exc), path, lineno) from exc
    return tuple(refs)


def _numbered_lines(path: str | Path):
    """Yield (line number, text) of each line of a UTF-8 text file, less a
    leading byte-order mark; a line that is not valid UTF-8 raises
    LogParseError naming it."""
    # undecodable bytes are read as lone surrogates, which do not encode
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(raw[exc.start]) - 0xDC00
                    raise LogParseError(f"not valid UTF-8 (byte 0x{byte:02x})",
                                        path, lineno) from None
            yield lineno, raw


def _read_rows(path: str | Path, header: tuple[str, ...]):
    """Yield (line number, stripped fields) of each data row of a CSV log.
    Blank and ``#`` lines are skipped, each physical line is parsed on its
    own, and a first data row equal to ``header`` is skipped. A line with no
    ``"`` is split at its commas: ``_numbered_lines`` ends lines only at
    ``\r`` and ``\n``, so that gives the fields ``csv`` would. A line with a
    ``"`` goes through ``csv``, whose errors (a field over
    ``csv.field_size_limit()``, say) name the line."""
    first = True
    for lineno, raw in _numbered_lines(path):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if '"' in raw:
            try:
                (row,) = csv.reader([raw])
            except csv.Error as exc:
                raise LogParseError(str(exc), path, lineno) from None
            row = tuple(map(str.strip, row))
        elif " " not in line and line.isprintable():
            # every whitespace character but the space is unprintable, so
            # no field of this line has any to strip
            row = tuple(line.split(","))
        else:
            row = tuple(map(str.strip, raw.split(",")))
        if len(row) != len(header):
            raise LogParseError(f"expected {len(header)} columns, got {len(row)}", path, lineno)
        if first:
            first = False
            if row == header:
                continue
        yield lineno, row


def parse_call_log(path: str | Path) -> Iterator[CallRecord]:
    """Yield the records of a call-relationship log as its lines are read;
    no list of them is built. Duplicate lines are preserved; their
    multiplicity matters when edge weights are aggregated. Each distinct
    params text is parsed once per call: rows share its (frozen) TypeRef
    tuple, and a text that fails is never stored, so the error names the
    first line that holds it."""
    parsed: dict[str, tuple[TypeRef, ...]] = {}
    for lineno, row in _read_rows(path, CALL_HEADER):
        caller_method, callee_method, caller_class, callee_class, caller_text, callee_text = row
        if not (caller_method and callee_method and caller_class and callee_class):
            raise LogParseError(f"empty {CALL_HEADER[row.index('')]}", path, lineno)
        caller_params = parsed.get(caller_text)
        if caller_params is None:
            caller_params = parsed[caller_text] = _parse_params(caller_text, path, lineno)
        callee_params = parsed.get(callee_text)
        if callee_params is None:
            callee_params = parsed[callee_text] = _parse_params(callee_text, path, lineno)
        # tuple.__new__ skips the named tuple's __new__, a Python-level call per row
        yield tuple.__new__(CallRecord, (caller_method, callee_method, caller_class,
                                         callee_class, caller_params, callee_params))


def parse_perf_log(path: str | Path) -> list[PerfRecord]:
    """Parse a performance log. Classes absent from the file are treated as
    having zero CPU time and zero retained memory downstream."""
    records = []
    seen: set[str] = set()
    for lineno, (class_id, cpu_text, retained_text) in _read_rows(path, PERF_HEADER):
        if not class_id:
            raise LogParseError("empty class_id", path, lineno)
        if class_id in seen:
            raise LogParseError(f"duplicate class_id {class_id!r}", path, lineno)
        seen.add(class_id)
        try:
            cpu = float(cpu_text)
            retained = float(retained_text)
        except ValueError as exc:
            raise LogParseError(f"non-numeric field: {exc}", path, lineno) from exc
        if not math.isfinite(cpu) or not math.isfinite(retained):
            raise LogParseError("non-finite cpu_time or retained_bytes", path, lineno)
        if cpu < 0:
            raise LogParseError("negative cpu_time", path, lineno)
        if retained < 0:
            raise LogParseError("negative retained_bytes", path, lineno)
        records.append(PerfRecord(class_id, cpu, retained))
    return records


def parse_type_catalog(path: str | Path | None) -> TypeCatalog:
    """Parse a type catalog file.

    Grammar (indentation-sensitive, ``#`` comments)::

        Account: object
            long
            int
            String[]
        Blob: opaque 128

    A top-level line declares a type as exactly ``object`` or the two words
    ``opaque N``; the indented lines under an object declaration list its
    field types, one TypeRef per line. Cyclic object definitions are
    accepted (the cost model bounds recursion). ``path=None`` yields the
    empty catalog, which leaves only the primitives sized.
    """
    if path is None:
        return TypeCatalog()
    layouts: dict[str, OpaqueLayout | list[TypeRef]] = {}  # an object as its field list
    fields: list[TypeRef] | None = None  # the list that indented lines add to
    for lineno, raw in _numbered_lines(path):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indented = stripped[0] in (" ", "\t")
        if indented:
            if fields is None:
                raise LogParseError("indented field outside an object declaration", path, lineno)
            try:
                fields.append(TypeRef.parse(stripped.strip()))
            except ValueError as exc:
                raise LogParseError(str(exc), path, lineno) from exc
            continue
        fields = None
        if ":" not in stripped:
            raise LogParseError("expected 'Name: object' or 'Name: opaque N'", path, lineno)
        name, decl = (part.strip() for part in stripped.split(":", 1))
        if not _NAME_RE.fullmatch(name):
            raise LogParseError(f"invalid type name {name!r}", path, lineno)
        if name in PRIMITIVE_SIZES:
            raise LogParseError(f"cannot redefine primitive type {name!r}", path, lineno)
        if name in layouts:
            raise LogParseError(f"type {name!r} declared twice", path, lineno)
        if decl == "object":
            fields = layouts[name] = []
        elif decl.split()[:1] == ["opaque"]:
            try:
                (size,) = map(int, decl.split()[1:])
            except ValueError as exc:
                raise LogParseError("opaque declaration needs an integer size", path, lineno) from exc
            if size < 0:
                raise LogParseError("opaque size must be >= 0", path, lineno)
            layouts[name] = OpaqueLayout(size)
        else:
            raise LogParseError(f"unknown layout kind {decl!r}", path, lineno)
    return TypeCatalog({name: ObjectLayout(tuple(layout)) if isinstance(layout, list) else layout
                        for name, layout in layouts.items()})


# --- serialization: the logs (round-trip support) and every JSON output file


def format_params(params: tuple[TypeRef, ...]) -> str:
    return ";".join(str(p) for p in params)


def write_call_log(records: list[CallRecord], path: str | Path) -> None:
    """Write ``CALL_HEADER``, so that a first record spelling it is data, then the records."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CALL_HEADER)
        writer.writerows(
            [r.caller_method, r.callee_method, r.caller_class, r.callee_class,
             format_params(r.caller_params), format_params(r.callee_params)] for r in records)


def write_perf_log(records: list[PerfRecord], path: str | Path) -> None:
    """Write ``PERF_HEADER`` and one row per record."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PERF_HEADER)
        writer.writerows([r.class_id, repr(r.cpu_time), repr(r.retained_bytes)] for r in records)


def write_json(doc: dict, path: str | Path) -> None:
    """Write ``doc`` as every JSON output file is written: UTF-8, sorted keys,
    two-space indent and one final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
