import pytest
from hypothesis import example, given, settings, strategies as st

from naive_oracles import build_class_graph, hand_object_size, naive_api_estimate
from servicecut import cost_model
from servicecut.cost_model import SizeModel, api_estimate
from servicecut.records import (
    CallRecord,
    ObjectLayout,
    OpaqueLayout,
    PRIMITIVE_SIZES,
    TypeCatalog,
    TypeRef,
)

CAT = TypeCatalog()


@pytest.mark.parametrize(
    "name,size",
    [("byte", 1), ("short", 2), ("int", 4), ("long", 8),
     ("char", 2), ("float", 4), ("double", 8), ("boolean", 4)],
)
def test_primitive_sizes(name, size):
    assert api_estimate(TypeRef(name), CAT) == size


def test_boolean_scalar_vs_array_element():
    assert api_estimate(TypeRef("boolean"), CAT) == 4
    model = SizeModel(assumed_array_len=8)
    # 16-byte array header + 8 * 1 byte = 24, already aligned
    assert api_estimate(TypeRef("boolean", 1), CAT, model) == 24


def test_object_single_int_field():
    cat = TypeCatalog({"Holder": ObjectLayout((TypeRef("int"),))})
    assert api_estimate(TypeRef("Holder"), cat) == 16  # 12 + 4


def test_object_single_long_field_padded():
    cat = TypeCatalog({"Holder": ObjectLayout((TypeRef("long"),))})
    assert api_estimate(TypeRef("Holder"), cat) == 24  # 12 + 8 -> pad to 24


def test_empty_array_costs_header_only():
    assert api_estimate(TypeRef("int", 1), CAT) == 16


def test_unknown_type_default():
    assert api_estimate(TypeRef("Mystery"), CAT) == 16
    assert api_estimate(TypeRef("Mystery"), CAT, SizeModel(default_unknown=32)) == 32


def test_opaque_passthrough():
    cat = TypeCatalog({"Blob": OpaqueLayout(128)})
    assert api_estimate(TypeRef("Blob"), cat) == 128


def test_nested_object_costed_deeply():
    cat = TypeCatalog({"Inner": ObjectLayout((TypeRef("int"),)),          # 16
                       "Outer": ObjectLayout((TypeRef("Inner"), TypeRef("int")))})
    assert api_estimate(TypeRef("Outer"), cat) == 32  # 12 + 16 + 4 -> 32


def test_cyclic_type_terminates():
    cat = TypeCatalog({"Node": ObjectLayout((TypeRef("Node"), TypeRef("int")))})
    size = api_estimate(TypeRef("Node"), cat)
    # inner self-reference collapses to one ref slot: 12 + 4 + 4 -> 24
    assert size == 24


def test_depth_limit():
    cat = TypeCatalog({"L0": ObjectLayout((TypeRef("int"),)),
                       **{f"L{i}": ObjectLayout((TypeRef(f"L{i-1}"),)) for i in range(1, 12)}})
    shallow = api_estimate(TypeRef("L11"), cat, SizeModel(max_depth=1))
    deep = api_estimate(TypeRef("L11"), cat, SizeModel(max_depth=12))
    assert shallow < deep
    assert shallow == 16  # 12 + ref_slot(4)


def edge_cost(callee_params, catalog):
    """The weight of the one edge of a one-row call log."""
    row = CallRecord("f", "g", "A", "B", (), tuple(callee_params))
    (weight,) = build_class_graph([row], catalog).weight.tolist()
    return weight


def test_edge_cost_examples():
    assert edge_cost([], CAT) == 1
    assert edge_cost([TypeRef("int"), TypeRef("double")], CAT) == 13
    cat = TypeCatalog({"Holder": ObjectLayout((TypeRef("int"),))})
    assert edge_cost([TypeRef("Holder")], cat) == 17


def test_model_validation():
    with pytest.raises(ValueError):
        SizeModel(alignment=6)
    with pytest.raises(ValueError):
        SizeModel(header_plain=20, header_array=16)
    with pytest.raises(ValueError):
        SizeModel(max_depth=0)
    for name in ("header_plain", "header_array", "ref_slot", "default_unknown",
                 "assumed_array_len"):
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            SizeModel(**{name: -1})
        SizeModel(**{"header_plain": 0, name: 0})
    with pytest.raises(ValueError, match="max_depth"):
        SizeModel(max_depth=256)
    SizeModel(max_depth=255)


_prim = st.sampled_from(sorted(PRIMITIVE_SIZES))
_fields = st.lists(st.builds(TypeRef, name=_prim, array_rank=st.just(0)), max_size=12)


@given(_fields)
def test_object_size_is_aligned_and_matches_hand_layout(fields):
    cat = TypeCatalog({"T": ObjectLayout(tuple(fields))})
    size = api_estimate(TypeRef("T"), cat)
    assert size % 8 == 0
    assert size == hand_object_size([PRIMITIVE_SIZES[f.name] for f in fields])


@given(_fields, st.builds(TypeRef, name=_prim, array_rank=st.just(0)))
def test_adding_a_field_never_decreases_size(fields, extra):
    cat = TypeCatalog({"T": ObjectLayout(tuple(fields)),
                       "T2": ObjectLayout(tuple(fields) + (extra,))})
    assert api_estimate(TypeRef("T2"), cat) >= api_estimate(TypeRef("T"), cat)


@given(st.lists(st.builds(TypeRef, name=_prim, array_rank=st.integers(0, 1)), max_size=5))
def test_edge_cost_is_one_plus_sum(params):
    assert edge_cost(params, CAT) == 1 + sum(api_estimate(p, CAT) for p in params)


def _doubling_chain(fields):
    """Forty levels: each type named in ``fields`` has at level i > 0 one
    field per entry of ``fields``, naming level i - 1, and an int at level 0.
    ("D", "D") is the binary chain; ("D", "E") also meets 2^depth distinct
    sets of visited types."""
    layouts = {}
    for name in dict.fromkeys(fields):
        layouts[f"{name}0"] = ObjectLayout((TypeRef("int"),))
        for i in range(1, 40):
            layouts[f"{name}{i}"] = ObjectLayout(tuple(TypeRef(f"{m}{i - 1}") for m in fields))
    return TypeCatalog(layouts)


@pytest.mark.parametrize("fields", [("D", "D"), ("D", "E")], ids=["binary-chain", "two-types"])
def test_doubling_chains_cost_every_level_once(fields, monkeypatch):
    cat = _doubling_chain(fields)
    for depth in (1, 6, 12):
        model = SizeModel(max_depth=depth)
        assert api_estimate(TypeRef("D39"), cat, model) == naive_api_estimate(
            TypeRef("D39"), cat, model)
    # at max_depth=255 all forty levels are expanded: unmemoized that is 2^40
    # objects, memoized one per (type, level), with one call per field
    calls = []
    estimate = cost_model._estimate

    def counting(*args, **kwargs):
        calls.append(1)
        assert len(calls) <= 1 + 2 * 40 * len(set(fields)), "an object was costed twice"
        return estimate(*args, **kwargs)

    monkeypatch.setattr(cost_model, "_estimate", counting)
    size = hand_object_size([4])
    for _ in range(39):
        size = hand_object_size([size, size])
    assert api_estimate(TypeRef("D39"), cat, SizeModel(max_depth=255)) == size


_NAMES = ["T0", "T1", "T2", "T3", "T4"]
# the declared types, every primitive and one undeclared name, up to rank 2
_POOL = _NAMES + sorted(PRIMITIVE_SIZES) + ["Missing"]
_FIELD = st.builds(TypeRef, name=st.sampled_from(_POOL), array_rank=st.integers(0, 2))
_LAYOUT = st.one_of(st.builds(ObjectLayout, st.lists(_FIELD, min_size=1, max_size=4).map(tuple)),
                    st.builds(OpaqueLayout, st.integers(0, 64)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_LAYOUT, min_size=len(_NAMES), max_size=len(_NAMES)),
       st.integers(1, 12), st.integers(0, 2))
# T3 is met at depth 2 both after T1, which T3 holds, and after T2: the first
# path cuts T3's field to a reference slot, the second expands it
@example([ObjectLayout((TypeRef("T1"), TypeRef("T2"))), ObjectLayout((TypeRef("T3"),)),
          ObjectLayout((TypeRef("T3"),)), ObjectLayout((TypeRef("T1"),)), OpaqueLayout(8)], 8, 0)
def test_estimate_equals_the_unmemoized_reference_on_cyclic_catalogs(layouts, max_depth,
                                                                     array_len):
    # fields may name any of the types, the type itself included, so most
    # catalogs have cycles; array lengths above 0 make arrays cost their
    # elements
    cat = TypeCatalog(dict(zip(_NAMES, layouts)))
    model = SizeModel(max_depth=max_depth, assumed_array_len=array_len)
    for t in [TypeRef(name, rank) for name in _POOL for rank in (0, 1, 2)]:
        assert api_estimate(t, cat, model) == naive_api_estimate(t, cat, model)


@pytest.mark.parametrize("order", [1, -1], ids=["object-first", "array-first"])
def test_the_deepest_arrays_and_objects_stay_under_the_recursion_limit(order):
    # every array rank and object level at its cap: 255 array frames, one for
    # the primitive element, and two per object level
    model = SizeModel(max_depth=255, assumed_array_len=1)
    for name in ("int", "boolean"):  # 24 bytes at rank 1, then 16 more per rank
        assert api_estimate(TypeRef(name, 255), CAT, model) == 24 + 16 * 254 == 4088
    cat = TypeCatalog({f"L{i}": ObjectLayout((TypeRef(f"L{i + 1}"), TypeRef("int", 255))[::order])
                       for i in range(300)})
    size = 4  # the object at depth 255 is a reference slot
    for _ in range(255):
        size = hand_object_size([size, 4088])
    assert api_estimate(TypeRef("L0"), cat, model) == size == 1_046_520
    assert naive_api_estimate(TypeRef("L0"), cat, model) == size


def test_reachable_names_follow_object_fields():
    cat = TypeCatalog({"A": ObjectLayout((TypeRef("B", 1), TypeRef("int"))),
                       "B": ObjectLayout((TypeRef("A"),))})
    assert cost_model._reachable("A", cat) == {"A", "B", "int"}
    assert cost_model._reachable("int", cat) == {"int"}
