import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskmodes._jsonio import json_chunks
from maskmodes.diffraction import CouplingMatrix, ImpulseResponse, UnitaryMatrix, mask_from_json
from maskmodes.errors import MalformedDocument
from maskmodes.fock import MultimodeFockState

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 0.1,
               float("nan"), float("inf"), float("-inf")]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), floats,
    st.text(alphabet=st.characters(codec="utf-8"), max_size=8),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    ),
    max_leaves=20,
)


@st.composite
def matrices(draw):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    parts = draw(st.lists(floats, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts, dtype=float).view(complex).reshape(rows, cols)


def _with_pairs(value):
    """The document ``json`` itself would be given: matrices as [re, im] pair lists."""
    if isinstance(value, np.ndarray):
        return [[[float(v.real), float(v.imag)] for v in row] for row in value]
    if isinstance(value, dict):
        return {k: _with_pairs(v) for k, v in value.items()}
    return value


@settings(max_examples=200)
@given(
    doc=st.dictionaries(st.text(max_size=5), st.one_of(values, matrices()), max_size=5),
    nested=st.dictionaries(st.text(max_size=5), st.one_of(values, matrices()), max_size=3),
    key=st.text(max_size=5),
    matrix=matrices(),
)
def test_stream_matches_reference_encoder(doc, nested, key, matrix):
    doc[key] = {**nested, "matrix": matrix}
    text = "".join(json_chunks(doc))
    assert text == json.dumps(_with_pairs(doc), sort_keys=True, indent=1) + "\n"


def test_matrix_rows_stream_as_separate_chunks():
    m = np.arange(12, dtype=float).view(complex).reshape(3, 2)
    chunks = list(json_chunks({"matrix": m}))
    assert sum('[\n   [\n    ' in c for c in chunks) == 3


# each reader, and a document of its own type that lacks a field it needs
_READERS = [
    (UnitaryMatrix.from_json, {"type": "unitary"}),
    (CouplingMatrix.from_json, {"type": "coupling", "matrix": []}),
    (MultimodeFockState.from_json, {"type": "state", "amplitudes": []}),
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
        reader({**lacking, "matrix": "abc", "amplitudes": [[1]], "grid": 5})


def test_load_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not json {")
    for reader in (UnitaryMatrix.load, MultimodeFockState.load):
        with pytest.raises(MalformedDocument, match=f"{path}: not JSON"):
            reader(path)
