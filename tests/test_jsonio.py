import enum
import errno
import gc
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskmodes._jsonio import _Payload, decode_array, dumps, encode_array, text_pieces
from maskmodes.diffraction import (
    CustomSampled,
    ImpulseResponse,
    UnitaryMatrix,
    mask_from_json,
    mask_to_json,
)
from maskmodes.errors import MalformedDocument
from maskmodes.fock import MultimodeFockState
from maskmodes.modes import Grid2D
from util import orthogonal_matrix

# bit patterns: signed zeros, subnormals, extremes, nan with payloads and sign, infinities
EDGE_BITS = [0x0, 0x8000000000000000, 0x1, 0x800FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF,
             0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001, 0x7FF4000000000ABC,
             0x7FF0000000000000, 0xFFF0000000000000, 0x3FB999999999999A]
words = st.one_of(st.sampled_from(EDGE_BITS), st.integers(0, 2**64 - 1))


@st.composite
def arrays(draw):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    bits = draw(st.lists(words, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(bits, dtype=np.uint64).view(np.complex128).reshape(rows, cols)


@settings(max_examples=300, derandomize=True)
@given(values=arrays(), extra=st.integers(1, 40), junk=st.sampled_from("!*-_ \n=é"))
def test_array_codec_round_trips_bit_exactly(values, extra, junk):
    text = encode_array(values)
    got = decode_array(text, values.shape)
    assert got.dtype == np.complex128 and got.shape == values.shape
    assert np.array_equal(got.view(np.uint64), values.view(np.uint64))
    # json carries the text unchanged
    assert decode_array(json.loads(json.dumps(text)), values.shape).tobytes() == values.tobytes()
    rows, cols = values.shape
    for shape in ((rows + 1, cols), (rows, cols + 1), (rows * cols + 1,)):
        if np.prod(shape) != values.size:
            with pytest.raises(MalformedDocument, match="bytes"):
                decode_array(text, shape)
    padded = encode_array(np.zeros(values.size + extra))
    with pytest.raises(MalformedDocument, match="bytes"):
        decode_array(padded, values.shape)
    with pytest.raises(MalformedDocument, match="not base64"):
        decode_array(text[:2] + junk + text[2:], values.shape)
    with pytest.raises(MalformedDocument, match="not base64"):
        decode_array(text + "A", values.shape)


@settings(max_examples=100, derandomize=True)
@given(values=st.lists(st.integers(-2**63, 2**63 - 1), max_size=12), cols=st.integers(1, 3))
def test_array_codec_round_trips_int64(values, cols):
    values = np.array(values[: len(values) // cols * cols], dtype=np.int64).reshape(-1, cols)
    text = encode_array(values, "<i8")
    got = decode_array(text, values.shape, "<i8")
    assert got.dtype == np.int64 and np.array_equal(got, values)
    assert encode_array(values.astype(">i8"), "<i8") == text  # the bytes are little-endian
    with pytest.raises(MalformedDocument, match="of int64 needs"):
        decode_array(text, (len(values) + 1, cols), "<i8")
    if values.size:  # read as complex128, the same bytes hold half the entries
        with pytest.raises(MalformedDocument, match="of complex128 needs"):
            decode_array(text, values.shape)


def test_array_codec_refuses_what_is_not_text_or_a_shape():
    with pytest.raises(MalformedDocument, match="not base64"):
        decode_array(5, (0,))
    with pytest.raises(MalformedDocument, match="negative"):
        decode_array("", (-1, 0))


@pytest.mark.parametrize("reader, doc", [
    (UnitaryMatrix.from_json, {"type": "unitary", "dim": 1, "matrix": [[[1.0, 0.0]]]}),
])
def test_pair_list_matrices_are_refused(reader, doc):
    with pytest.raises(MalformedDocument, match="matrix_b64"):
        reader({**doc, "schema_version": 1})


@pytest.mark.parametrize("matrix", [UnitaryMatrix.su2(0.7, 0.2), UnitaryMatrix.identity(0)])
def test_compiled_matrices_round_trip_bit_exactly(matrix):
    doc = json.loads(dumps(matrix.to_json()))
    assert doc["schema_version"] == 2 and "matrix" not in doc
    back = type(matrix).from_json(doc)
    assert back.matrix.tobytes() == matrix.matrix.tobytes()
    assert back.provenance == matrix.provenance


# --------------------------------------------------------------------------
# Complex payloads: float64 when every imaginary part is +0.0


def _parts(draw, n, floats):
    return np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=float)


@st.composite
def _complex_values(draw, shape, floats):
    """A complex array of ``shape`` whose imaginary parts are all +0.0, +0.0 but
    for one -0.0, or drawn."""
    n = int(np.prod(shape))
    values = _parts(draw, n, floats).reshape(shape).astype(complex)
    how = draw(st.sampled_from(["real", "one negative zero", "drawn"]))
    if how == "one negative zero" and n:
        values.imag.flat[draw(st.integers(0, n - 1))] = -0.0
    elif how == "drawn":
        values.imag = _parts(draw, n, floats).reshape(shape)
    return values


@st.composite
def _unitaries(draw):
    n = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = orthogonal_matrix(rng, n) if n else np.eye(0)
    how = draw(st.sampled_from(["float64", "complex, real-valued", "one negative zero", "phases"]))
    if how == "float64":
        return UnitaryMatrix(q)
    m = q.astype(complex)
    if how == "one negative zero" and n:
        m.imag[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = -0.0
    elif how == "phases":
        m = m * np.exp(1j * _parts(draw, n, st.floats(-np.pi, np.pi)))
    return UnitaryMatrix(m)


_grids = st.builds(Grid2D, st.sampled_from([2, 4]), st.sampled_from([2, 4]), st.just(0.5),
                   st.just(0.25))
_samples = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _stored_objects(draw):
    """``(writer, reader, name, values)`` for one object that stores a complex array."""
    kind = draw(st.sampled_from(["unitary", "mask", "kernel"]))
    if kind == "unitary":
        u = draw(_unitaries())
        return u.to_json, UnitaryMatrix.from_json, "matrix", u.matrix
    grid = draw(_grids)
    values = draw(_complex_values((grid.ny, grid.nx), _samples))
    if kind == "mask":
        mask = CustomSampled(grid, values)
        return lambda: mask_to_json(mask), mask_from_json, "values", mask.values
    h = ImpulseResponse(grid, values, spectral_cap=draw(_samples),
                        provenance={"eps_rel": 1e-6, "lost_fraction": draw(_samples)})
    return h.to_json, ImpulseResponse.from_json, "values", h.values


def _real_valued(values):
    return not values.imag.view(np.uint64).any()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stored=_stored_objects())
def test_complex_payloads_are_float64_exactly_when_every_imaginary_part_is_plus_zero(stored):
    writer, reader, name, values = stored
    text = dumps(writer())
    doc = json.loads(text)
    assert (f"{name}_dtype" in doc) == _real_valued(values)
    if _real_valued(values):
        assert doc[f"{name}_dtype"] == "float64"
        stored_bytes = decode_array(doc[f"{name}_b64"], values.shape, "<f8").tobytes()
        assert stored_bytes == values.real.tobytes()
    back = reader(doc)
    got = back.matrix if name == "matrix" else back.values
    assert got.dtype == np.complex128 and got.flags.c_contiguous and not got.flags.writeable
    assert got.tobytes() == values.tobytes()
    assert dumps(writer()) == text
    if hasattr(back, "provenance"):
        assert back.provenance == writer()["provenance"]


def test_one_negative_zero_keeps_the_complex_payload():
    m = np.eye(3, dtype=complex)
    m.imag[2, 0] = -0.0
    doc = UnitaryMatrix(m).to_json()
    assert "matrix_dtype" not in doc and doc["matrix_b64"] == encode_array(m)
    back = UnitaryMatrix.from_json(json.loads(dumps(doc)))
    assert back.matrix.tobytes() == m.tobytes() and np.signbit(back.matrix.imag[2, 0])
    assert "matrix_dtype" in UnitaryMatrix(np.eye(3)).to_json()


def test_complex_documents_keep_their_text():
    # a complex unitary: its complex128 payload and no dtype key, byte for byte
    assert dumps(UnitaryMatrix.su2(0.7, 0.2).to_json()) == (
        '{\n "dim": 2,\n "matrix_b64": "t+UNXVcP7j8AAAAAAAAAABxkwQsNgtU/m1fX'
        '8oZwsT8cZMELDYLVv5tX1/KGcLE/t+UNXVcP7j8AAAAAAAAAAA==",\n "provenance": {},\n '
        '"schema_version": 2,\n "type": "unitary",\n '
        '"unitarity_residual": 7.729193353152502e-18\n}\n'
    )


def test_a_unitary_written_with_a_connectivity_flag_still_loads():
    # an earlier writer stored a "connected" key, which the reader does not read
    text = (
        '{\n "connected": true,\n "dim": 2,\n "matrix_b64": "t+UNXVcP7j8AAAAAAAAAABxkwQsNgtU/m1fX'
        '8oZwsT8cZMELDYLVv5tX1/KGcLE/t+UNXVcP7j8AAAAAAAAAAA==",\n "provenance": {},\n '
        '"schema_version": 2,\n "type": "unitary",\n '
        '"unitarity_residual": 7.729193353152502e-18\n}\n'
    )
    back, want = UnitaryMatrix.from_json(json.loads(text)), UnitaryMatrix.su2(0.7, 0.2)
    assert back.matrix.tobytes() == want.matrix.tobytes()
    assert back.residual == want.residual == 7.729193353152502e-18
    assert dumps(back.to_json()) == dumps(want.to_json())


def _documents_of_each_reader():
    """``(reader, name, real document, complex document)`` for each object with a payload."""
    grid = Grid2D(2, 4, 0.5, 0.5)
    real = np.arange(8.0).reshape(4, 2) / 16
    phased = real * (1 + 1j)
    return [
        (UnitaryMatrix.from_json, "matrix", UnitaryMatrix.balanced_splitter().to_json(),
         UnitaryMatrix.su2(0.7, 0.2).to_json()),
        (mask_from_json, "values", mask_to_json(CustomSampled(grid, real)),
         mask_to_json(CustomSampled(grid, phased))),
        (ImpulseResponse.from_json, "values", ImpulseResponse(grid, real).to_json(),
         ImpulseResponse(grid, phased).to_json()),
    ]


@pytest.mark.parametrize("reader, name, real, cplx", _documents_of_each_reader(),
                         ids=["unitary", "mask", "kernel"])
def test_payload_types_are_checked_by_name(reader, name, real, cplx):
    key = f"{name}_dtype"
    assert real[key] == "float64" and key not in cplx
    for doc in (real, cplx):
        reader(json.loads(dumps(doc)))
    for bad in ("complex128", "float32", "", "Float64", 5, 64.0, None, True, ["float64"],
                {"float64": 1}):
        with pytest.raises(MalformedDocument, match=f"{key} "):
            reader({**real, key: bad})
    # a float64 payload read as complex128, and a complex128 one read as float64
    float_as_complex = {k: v for k, v in real.items() if k != key}
    for doc in (float_as_complex, {**cplx, key: "float64"}):
        with pytest.raises(MalformedDocument, match=f"{name}_b64: array payload holds .* bytes"):
            reader(doc)
    with pytest.raises(MalformedDocument, match=f"missing key '{name}_b64'"):
        reader({k: v for k, v in real.items() if k != f"{name}_b64"})


# each reader, and a document of its own type that lacks a field it needs
_READERS = [
    (UnitaryMatrix.from_json, {"type": "unitary", "dim": 0}),
    (UnitaryMatrix.from_json, {"type": "unitary", "matrix_b64": ""}),
    (MultimodeFockState.from_json,
     {"type": "state", "terms": 0, "occupations_b64": "", "values_b64": ""}),
    (mask_from_json, {"kind": "custom"}),
    (ImpulseResponse.from_json, {"type": "impulse_response"}),
]


@pytest.mark.parametrize("reader, lacking", _READERS)
def test_readers_raise_one_typed_error(reader, lacking):
    for doc in ([1, 2], "text", None, {}, {"type": "other", "kind": "other"}):
        with pytest.raises(MalformedDocument):
            reader(doc)
    with pytest.raises(MalformedDocument, match="missing key"):
        reader(lacking)
    with pytest.raises(ValueError):  # the typed error is also a ValueError
        reader({**lacking, "matrix_b64": "abc", "amplitudes": [[1]], "grid": 5})


def test_load_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not json {")
    for reader in (UnitaryMatrix.load, MultimodeFockState.load):
        with pytest.raises(MalformedDocument, match=f"{path}: not JSON"):
            reader(path)


# strings the splice could mistake for its stub: the stubs themselves, a stub after a quote,
# and text that needs escaping
_AWKWARD = ["\0", "\0\0", "\0\0\0", '"\0', 'x"\0\0', "\\", '"', "\n\t\x1f", "é", "日本", "\ud800",
            "\U0001f600", ""]
_payloads = st.builds(lambda n: encode_array(np.arange(n) * (1 + 0.5j)), st.integers(0, 5))


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 7


# scalars json writes through a subclass of its types: bool, IntEnum, np.float64, _Payload
_subclassed = st.one_of(st.booleans(), st.sampled_from(list(_Level)),
                        st.floats().map(np.float64), _payloads)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.sampled_from(_AWKWARD),
    st.text(max_size=6), _payloads, _subclassed,
    # lists the writer joins whole, non-finite floats among them, and near misses
    st.lists(st.floats(), min_size=1, max_size=5),
    st.lists(st.sampled_from([0.5, -0.0, float("nan"), float("inf"), -float("inf")]), min_size=1,
             max_size=4),
    st.lists(st.integers(), min_size=1, max_size=5),
    st.lists(st.one_of(st.integers(), st.floats(), _subclassed), min_size=1, max_size=5),
)
_str_keys = st.one_of(st.sampled_from(_AWKWARD), st.text(max_size=4))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_str_keys, children, max_size=4),
    )


@st.composite
def _deep(draw, leaves):
    """A leaf under 20-150 levels of lists, tuples and one-key dictionaries."""
    doc = draw(leaves)
    for kind in draw(st.lists(st.sampled_from("ltd"), min_size=20, max_size=150)):
        doc = [doc] if kind == "l" else (doc, 1) if kind == "t" else {"k": doc}
    return doc


_documents = st.one_of(st.recursive(_leaves, _containers, max_leaves=24), _deep(_leaves))


@settings(max_examples=600, derandomize=True)
@given(doc=_documents)
def test_dumps_is_json_dumps_with_sorted_keys_and_one_space_indent(doc):
    want = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    assert dumps(doc) == want
    assert "".join(text_pieces(doc)) == want


@st.composite
def _record_lists(draw):
    """Lists of 1-6 dictionaries that share their keys (``%`` among them), as a scan
    report writes its bipartitions, under 0-3 levels of nesting.  Values are
    scalars or flat lists; some columns mix kinds, hold empty or non-finite
    lists, or hold a nested value, and some rows differ in their keys, so the
    general path writes them instead."""
    keys = draw(st.lists(st.one_of(_str_keys, st.sampled_from(["%", "%s", "a%d"])),
                         min_size=1, max_size=5, unique=True))
    value = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3), _subclassed,
        st.lists(st.integers(), max_size=4), st.lists(st.floats(), min_size=1, max_size=4),
        st.lists(st.one_of(st.integers(), st.floats()), min_size=1, max_size=3),
        st.dictionaries(_str_keys, st.integers(), max_size=2), st.lists(st.lists(st.integers())),
    )
    columns = {key: draw(st.sampled_from(["int", "float", "ints", "floats", "nonfinite", "any"]))
               for key in keys}
    kinds = {"int": st.integers(), "float": st.floats(allow_nan=False),
             "ints": st.lists(st.integers(), min_size=1, max_size=9),
             "floats": st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                                max_size=8),
             "nonfinite": st.lists(st.sampled_from([0.5, -0.0, float("nan"), float("inf")]),
                                   min_size=1, max_size=3),
             "any": value}
    rows = draw(st.lists(st.fixed_dictionaries({key: kinds[kind] for key, kind in columns.items()}),
                         min_size=1, max_size=6))
    if draw(st.booleans()):  # one row with a key more or less than the others
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row.pop(keys[0]) if draw(st.booleans()) else row.setdefault("extra", 1)
    doc = rows
    for _ in range(draw(st.integers(0, 3))):
        doc = {"result": doc, "n": 1} if draw(st.booleans()) else [doc]
    return doc


@settings(max_examples=300, derandomize=True)
@given(doc=_record_lists())
def test_lists_of_records_are_written_as_json_writes_them(doc):
    want = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    assert dumps(doc) == want
    assert "".join(text_pieces(doc)) == want


def test_a_cycle_raises_recursion_error():
    looped_list, looped_dict = [1.0], {"a": [2]}
    looped_list.append(looped_list)
    looped_dict["a"].append(looped_dict)
    for doc in (looped_list, looped_dict, {"x": {"y": looped_list}}):
        with pytest.raises(RecursionError):
            dumps(doc)
    shared = [1, 2]  # the same list twice is no cycle
    assert dumps([shared, {"s": shared}]) == json.dumps([shared, {"s": shared}], indent=1) + "\n"


def test_unsupported_keys_and_values_raise_type_error_naming_their_type():
    for doc, name in (({"a": np.int64(3)}, "int64"), ([1j], "complex"), ({"a": {1, 2}}, "set"),
                      ([{"a": [None, object()]}], "object"), ({"a": b"x"}, "bytes")):
        with pytest.raises(TypeError, match=f"^Object of type {name} is not JSON serializable$"):
            dumps(doc)
    for doc, name in (({(1, 2): 0}, "tuple"), ({1: 0, "b": 1}, "int"), ({"a": {2.5: 0}}, "float"),
                      ([{None: 1}], "NoneType"), ({True: 0, False: 1}, "bool")):
        with pytest.raises(TypeError, match=f"^keys must be str, not {name}$"):
            dumps(doc)


def test_payload_subclass_is_written_as_text():
    doc = {"p": _Payload("QUJD"), "l": [_Payload(""), "x"], "t": (_Payload("QQ=="),)}
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("doc", [
    encode_array(np.zeros(0)),
    {"payload": encode_array(np.ones(3)), "\0": "\0", "list": ["\0", encode_array(np.ones(1))]},
    [encode_array(np.ones(2)), '"\0', {"a": ['"\0\0', "\0\0", encode_array(np.zeros(1))]}],
    ("\0", encode_array(np.ones(1))),
])
def test_dumps_splices_around_strings_equal_to_its_stub(doc):
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    assert json.loads(dumps(doc)) == json.loads(json.dumps(doc))


def test_payloads_are_plain_base64_text():
    text = encode_array(np.array([1 + 2j]))
    assert isinstance(text, str) and text == "AAAAAAAA8D8AAAAAAAAAQA=="
    assert json.dumps(text) == f'"{text}"'


def test_writer_documents_hand_their_payloads_to_the_file_uncopied():
    state, unit = MultimodeFockState.from_occupation([1, 0]), UnitaryMatrix.su2(0.7)
    doc = {"result": {"state": state.to_json(), "unitary": unit.to_json()}, "seed": None}
    pieces = text_pieces(doc)
    for payload in (doc["result"]["state"]["occupations_b64"], doc["result"]["state"]["values_b64"],
                    doc["result"]["unitary"]["matrix_b64"]):
        assert any(piece is payload for piece in pieces)
    assert "".join(pieces) == dumps(doc) == json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_writer_leaves_no_reference_cycle():
    """A payload is freed with its document and pieces, not at the next garbage collection."""
    doc = {"a": encode_array(np.ones(4)), "b": [{"c": [1, 2.5, "x"]}, (None, True), [[1.0]]]}
    gc.collect()
    gc.disable()
    try:
        text_pieces(doc)
        dumps(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("fail", ["write", "rename"])
@pytest.mark.parametrize("obj", [UnitaryMatrix.su2(0.7), MultimodeFockState.from_occupation([1, 0])],
                         ids=["unitary", "state"])
def test_a_failed_save_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch, obj, fail):
    path = tmp_path / "doc.json"
    path.write_text("the old text\n")
    if fail == "rename":
        def replace(src, dst):
            raise OSError(errno.EXDEV, "refused")
        monkeypatch.setattr(os, "replace", replace)
    else:
        def text_pieces(doc):
            yield "{"
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(sys.modules[type(obj).__module__], "text_pieces", text_pieces)
    with pytest.raises(OSError):
        obj.save(path)
    assert path.read_text() == "the old text\n"
    assert os.listdir(tmp_path) == ["doc.json"]
    monkeypatch.undo()
    obj.save(path)
    assert type(obj).load(path).to_json() == obj.to_json()
    assert os.listdir(tmp_path) == ["doc.json"]
