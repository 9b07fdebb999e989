"""Remote-call overhead of parameter types under JVM object-layout rules.

A plain object instance is header + field data, padded so the total is a
multiple of the alignment unit; arrays carry a longer header (the extra word
holds the length). Referenced object fields are costed deeply, since a remote
call serializes the whole object graph; recursion is depth-limited and
cycle-safe, beyond which a reference costs one reference slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .records import (
    BOOLEAN_ARRAY_ELEMENT_SIZE,
    MAX_ARRAY_RANK,
    PRIMITIVE_SIZES,
    ObjectLayout,
    OpaqueLayout,
    TypeCatalog,
    TypeRef,
)


@dataclass(frozen=True)
class SizeModel:
    """Knobs of the object-layout cost model (bytes unless noted)."""

    header_plain: int = 12
    header_array: int = 16
    ref_slot: int = 4
    alignment: int = 8
    default_unknown: int = 16
    max_depth: int = 8
    assumed_array_len: int = 0

    def __post_init__(self):
        # non-negative sizes keep every edge cost at 1 or more
        for name in ("header_plain", "header_array", "ref_slot", "default_unknown",
                     "assumed_array_len"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.alignment <= 0 or self.alignment & (self.alignment - 1):
            raise ValueError("alignment must be a power of two")
        if self.header_plain > self.header_array:
            raise ValueError("header_plain must be <= header_array")
        # _estimate recurses two frames per object level and one per array
        # rank, one more for a primitive array's element: near 766 frames with
        # both capped at 255, under Python's default recursion limit of 1000
        if not 1 <= self.max_depth <= MAX_ARRAY_RANK:
            raise ValueError(f"max_depth must be in [1, {MAX_ARRAY_RANK}]")

    def align(self, size: int) -> int:
        return -(-size // self.alignment) * self.alignment


def api_estimate(t: TypeRef, catalog: TypeCatalog, model: SizeModel = SizeModel()) -> int:
    """Estimated serialized size, in bytes, of one parameter of type ``t``.

    Unknown type names cost ``default_unknown`` rather than failing, so an
    incomplete catalog degrades gracefully.
    """
    return _estimate(t, catalog, model, depth=0, visiting=frozenset(), memo={})


def _estimate(t: TypeRef, catalog: TypeCatalog, model: SizeModel,
              depth: int, visiting: frozenset[str], memo: dict) -> int:
    """Size of ``t`` met at ``depth`` below the estimated parameter, with the
    object types on the path to it in ``visiting``. ``memo`` holds the
    object sizes of one estimate, keyed on (name, depth, the names in
    ``visiting`` that the type can reach): only those can cut its recursion,
    so the key is exact, and in an acyclic catalog each (type, depth) is
    costed once, where unmemoized an object with two fields of the type one
    level down is costed 2^depth times."""
    if t.array_rank > 0:
        element = TypeRef(t.name, t.array_rank - 1)
        elem_size = (BOOLEAN_ARRAY_ELEMENT_SIZE if (t.name, t.array_rank) == ("boolean", 1)
                     else _estimate(element, catalog, model, depth + 1, visiting, memo))
        return model.align(model.header_array + model.assumed_array_len * elem_size)

    if t.name in PRIMITIVE_SIZES:
        return PRIMITIVE_SIZES[t.name]
    layout = catalog.layouts.get(t.name)
    if layout is None:
        return model.default_unknown
    if isinstance(layout, OpaqueLayout):
        return layout.size_bytes
    assert isinstance(layout, ObjectLayout)
    if depth >= model.max_depth or t.name in visiting:
        return model.ref_slot
    key = (t.name, depth, visiting & _reachable(t.name, catalog))
    if key not in memo:
        inner = visiting | {t.name}
        data = sum(_estimate(f, catalog, model, depth + 1, inner, memo) for f in layout.fields)
        memo[key] = model.align(model.header_plain + data)
    return memo[key]


def _reachable(name: str, catalog: TypeCatalog) -> set[str]:
    """``name`` and every type name its object fields lead to, at any depth."""
    seen, stack = {name}, [name]
    while stack:
        layout = catalog.layouts.get(stack.pop())
        if isinstance(layout, ObjectLayout):
            for f in layout.fields:
                if f.name not in seen:
                    seen.add(f.name)
                    stack.append(f.name)
    return seen
