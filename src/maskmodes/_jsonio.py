"""The document layer: everything between an object's ``to_json()`` dict and its file.

:func:`text_pieces` gives ``json.dumps(doc, sort_keys=True, indent=1) +
"\\n"``, the text of every artifact and saved document, in pieces for a
file to take (:func:`dumps` joins them).  :func:`write_file` writes every
file the package makes, atomically; :func:`read_file` parses one for a
reader, which takes its document out of a CLI artifact with :func:`typed`
and reads it under :func:`reading`, which turns every way a document can
fail to be read into one typed :class:`~maskmodes.errors.MalformedDocument`.

Arrays (compiled matrices, sampled masks, impulse-response kernels, the
occupations and amplitudes of states) go into documents as one base64
string of their little-endian, row-major bytes, ``complex128`` unless a
reader and its writer name another type: :func:`encode_array` and
:func:`decode_array`.  The complex arrays of compiled matrices, masks and
kernels take the type from the data: :func:`encode_complex` stores one
whose imaginary parts are all ``+0.0`` as its ``float64`` real parts, and
says so in the document, and :func:`decode_complex` reads either.  The
round trip is bit-exact.  Each payload is spliced into the text as it is:
base64 never needs JSON escaping, so megabytes never go through json's
escaping scan.
"""

import base64
import contextlib
import functools
import itertools
import json
import math
import operator
import os

import numpy as np

from .errors import MalformedDocument

_COMPLEX = np.dtype("<c16")
_REAL = np.dtype("<f8")


class _Payload(str):
    """Base64 text from :func:`encode_array`: JSON carries it as it is."""

    __slots__ = ()


_encode_str = json.encoder.encode_basestring_ascii
_int_text = int.__repr__
_float_repr = float.__repr__


def _float_text(x):
    """A float as json writes it: its repr, or ``NaN``, ``Infinity``, ``-Infinity``."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return _float_repr(x)


#: The text of a value of exactly these types; subclasses take the general path.
_SCALAR_TEXT = {
    str: _encode_str,
    int: _int_text,
    float: _float_text,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


@functools.lru_cache(maxsize=256)
def _list_format(length, level, spec):
    """The ``%`` format of a flat list of ``length`` values at ``level``, each written by ``spec``."""
    inner = "\n" + " " * (level + 1)
    return "[" + inner + ("," + inner).join([spec] * length) + inner[:-1] + "]"


def _lists_text(lists, level):
    """The texts of nonempty lists at ``level``, each of only ints or only floats, else ``None``.

    One ``%`` format writes them all: the lists' formats joined by NUL, which
    no number's text holds, and the text split there again."""
    values = tuple(itertools.chain.from_iterable(lists))
    kinds = set(map(type, values))
    if kinds == {int}:
        spec = "%d"
    elif kinds == {float}:
        spec = "%r"
    else:
        return None
    text = "\0".join(map(_list_format, map(len, lists), itertools.repeat(level),
                         itertools.repeat(spec))) % values
    if "n" in text:  # nan or inf: no finite repr holds an "n"
        text = "\0".join(map(_list_format, map(len, lists), itertools.repeat(level),
                             itertools.repeat("%s"))) % tuple(map(_float_text, values))
    return text.split("\0")


def _flat_text(values, level):
    """The text of a nonempty list of only ints or only floats at ``level``, else ``None``."""
    texts = _lists_text((values,), level)
    return texts and texts[0]


def _records_text(rows, level):
    """The text of a list of dicts at ``level`` that share their str keys and hold
    only scalars and nonempty flat lists, else ``None``.

    Written column by column: one sort of the keys, one type check per column
    and one ``%`` format per dict."""
    keys = rows[0].keys() if type(rows[0]) is dict else None
    if not keys or set(map(type, keys)) != {str}:
        return None
    if any(type(row) is not dict or row.keys() != keys for row in rows):
        return None
    names = sorted(keys)
    columns = []
    for name in names:
        column = [row[name] for row in rows]
        kinds = set(map(type, column))
        if kinds <= _SCALAR_TEXT.keys():
            columns.append([_SCALAR_TEXT[type(value)](value) for value in column])
        elif kinds == {list} and all(column) and (texts := _lists_text(column, level + 2)):
            columns.append(texts)
        else:
            return None
    inner, field = "\n" + " " * (level + 1), "\n" + " " * (level + 2)
    row = ("{" + field + ("," + field).join(_encode_str(name).replace("%", "%%") + ": %s"
                                            for name in names) + inner + "}")
    return "[" + inner + ("," + inner).join([row % texts for texts in zip(*columns)]) + inner[:-1] + "]"


def _write(o, level, buf, pieces):
    """Append the text of ``o`` at nesting ``level`` to ``buf``.

    A payload ends the text in ``buf``: that is joined onto ``pieces``, then
    the payload itself.
    """
    out = buf.append
    text = _SCALAR_TEXT.get(type(o))
    if text is not None:
        out(text(o))
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        try:
            items = sorted(o.items())
        except TypeError:  # keys of several types: the loop refuses one that is not a str
            items = [(next(k for k in o if not isinstance(k, str)), None)]
        inner = "\n" + " " * (level + 1)
        out("{")
        sep = inner
        for key, value in items:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = sep + _encode_str(key) + ": "
            sep = "," + inner
            text = _SCALAR_TEXT.get(type(value))
            if text is not None:
                out(head + text(value))
            elif type(value) is list and value and (flat := _flat_text(value, level + 1)):
                out(head + flat)
            else:
                out(head)
                _write(value, level + 1, buf, pieces)
        out("\n" + " " * level + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out("[]")
            return
        text = _flat_text(o, level) or _records_text(o, level)
        if text is not None:
            out(text)
            return
        inner = "\n" + " " * (level + 1)
        out("[")
        sep = inner
        for value in o:
            out(sep)
            sep = "," + inner
            _write(value, level + 1, buf, pieces)
        out("\n" + " " * level + "]")
    elif isinstance(o, _Payload):
        out('"')
        pieces.append("".join(buf))
        buf.clear()
        pieces.append(o)
        out('"')
    elif isinstance(o, str):
        out(_encode_str(o))
    elif isinstance(o, int):  # bool is an exact type above
        out(_int_text(o))
    elif isinstance(o, float):
        out(_float_text(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def text_pieces(doc):
    """The text of ``json.dumps(doc, sort_keys=True, indent=1) + "\\n"`` as a list of strings.

    Each :class:`_Payload` is one string of the list, between the pieces
    that hold its quotes; the text between payloads is joined, so a file
    takes a payload (``fh.writelines``) with no joined copy.  Dictionaries
    with str keys, lists, tuples, strings, ints, floats, booleans and
    ``None`` are written as json's own encoder writes them (strings through
    its C escaper), not by json's pure-Python indenting encoder; a list of
    only ints or only floats is written by one ``%`` format, and a list of
    dicts that share their keys and hold only scalars and such lists (a
    scan's reports) column by column, with one format per dict.  Any other key
    or value raises ``TypeError`` naming its type; a container inside
    itself recurses to ``RecursionError``.  The writer is a plain recursive
    function, not a closure over the pieces: a recursive closure is a
    reference cycle, which would keep every payload alive until the garbage
    collector ran.
    """
    pieces, buf = [], []
    _write(doc, 0, buf, pieces)
    buf.append("\n")
    pieces.append("".join(buf))
    return pieces


def dumps(doc):
    """The text of a document: sorted keys, one-space indentation, a final newline."""
    return "".join(text_pieces(doc))


def encode_array(values, dtype=_COMPLEX):
    """Base64 text of the little-endian, row-major bytes of ``values`` as ``dtype``.

    The type is the caller's: a reader must name the same one to
    :func:`decode_array`.  :func:`encode_complex` chooses it from the data.
    """
    # encoded from the array's own buffer, with no bytes copy; the base64 bytes
    # are freed before the marked copy of the text is made
    text = base64.b64encode(np.ascontiguousarray(values, dtype=dtype)).decode("ascii")
    return _Payload(text)


def decode_array(text, shape, dtype=_COMPLEX):
    """The read-only ``dtype`` array of ``shape`` that :func:`encode_array` wrote as ``text``.

    Text that is not strict base64, or whose bytes are not exactly the
    entries of ``shape``, raises :class:`MalformedDocument`: text written as
    another type of another size is refused by its byte count.
    """
    dtype = np.dtype(dtype)
    shape = tuple(operator.index(n) for n in shape)
    if min(shape, default=0) < 0:
        raise MalformedDocument(f"array shape {shape} has a negative extent")
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as e:  # binascii.Error is a ValueError
        raise MalformedDocument(f"array payload is not base64 text ({e})") from None
    if len(raw) != math.prod(shape) * dtype.itemsize:
        raise MalformedDocument(f"array payload holds {len(raw)} bytes; shape {shape} of "
                                f"{dtype.name} needs {math.prod(shape) * dtype.itemsize}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def encode_complex(name, values):
    """The document entries of the complex array ``values`` stored under ``name``.

    ``{name_b64: payload}``, the ``complex128`` bytes of ``values``, unless
    every imaginary part is ``+0.0`` (its bits all zero): then the payload
    holds the ``float64`` real parts, half the text, and
    ``name_dtype: "float64"`` is added.  A ``-0.0`` imaginary part keeps the
    complex payload, so :func:`decode_complex` gives back the same bits.
    """
    values = np.asarray(values, dtype=complex)
    if values.imag.view(np.uint64).any():
        return {f"{name}_b64": encode_array(values)}
    return {f"{name}_b64": encode_array(values.real, _REAL), f"{name}_dtype": _REAL.name}


def decode_complex(doc, name, shape):
    """The read-only array of ``shape`` stored by :func:`encode_complex` under ``name``.

    It is ``float64`` when ``doc`` declares ``name_dtype: "float64"`` and
    ``complex128`` when it declares no type; the caller widens a real array.
    Any other declared type, and a payload that is not base64 or not that
    type of ``shape`` by its byte count, raise :class:`MalformedDocument`
    naming the key.  A missing payload raises ``KeyError``, for
    :func:`reading` to name.
    """
    text, key = doc[f"{name}_b64"], f"{name}_dtype"
    if key not in doc:
        dtype = _COMPLEX
    elif doc[key] == _REAL.name:
        dtype = _REAL
    else:
        raise MalformedDocument(f"{key} {doc[key]!r} is not {_REAL.name!r} "
                                "(a complex128 payload declares no type)")
    try:
        return decode_array(text, shape, dtype)
    except MalformedDocument as e:
        raise MalformedDocument(f"{name}_b64: {e}") from None


@contextlib.contextmanager
def reading(source=None):
    """Raise :class:`MalformedDocument` for a document that cannot be read.

    Text that is not JSON, a missing key and a field of the wrong type or
    value (``KeyError``, ``TypeError``, ``ValueError``) all become the one
    typed error; its message starts with ``source`` (a file name) when one
    is given.  Readers raise it themselves for a document of another type.
    """
    try:
        yield
    except json.JSONDecodeError as e:
        detail = f"not JSON ({e})"
    except KeyError as e:
        detail = f"missing key {e}"
    except (TypeError, ValueError) as e:
        detail = str(e)
    else:
        return
    raise MalformedDocument(f"{source}: {detail}" if source else detail)


def typed(doc, kind, what):
    """The document of type ``kind`` that ``doc`` is or that a CLI artifact ``doc`` holds."""
    if isinstance(doc, dict) and isinstance(doc.get("result"), dict):
        doc = doc["result"].get("state", doc["result"])  # propagate's result holds a state
    if not isinstance(doc, dict) or doc.get("type") != kind:
        raise MalformedDocument(f"document is not a serialized {what}")
    return doc


def read_file(path, reader):
    """``reader(doc)`` of the document in the file ``path``; a read error names the file."""
    with open(path) as fh, reading(path):
        return reader(json.load(fh))


def write_file(path, pieces):
    """Write the strings ``pieces`` to a temp file beside ``path``, then rename it onto ``path``.

    The temp file is removed on any failure.  It is made as ``open()`` makes a
    file: mode ``0o666`` less the umask.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".maskmodes-{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
