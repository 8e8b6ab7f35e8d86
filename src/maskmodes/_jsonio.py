"""The one JSON writer for artifacts and saved objects, the array codec and
the reading guard.

:func:`dumps` gives ``json.dumps(doc, sort_keys=True, indent=1) + "\\n"``,
the text of every artifact and saved document, and :func:`text_pieces` the
same text in pieces for a file to take.  Arrays (compiled matrices,
sampled masks, impulse-response kernels, the occupations and amplitudes of
states) go into documents as one base64 string of their little-endian,
row-major bytes, ``complex128`` unless a reader and its writer name another
type: :func:`encode_array` and :func:`decode_array`.  The round trip is
bit-exact.  Base64 text never needs JSON escaping, so :func:`text_pieces`
writes a stub in place of each payload that :func:`encode_array` made and
splices the text back in, instead of sending megabytes through json's
escaping scan.

:func:`reading` turns every way a document can fail to be read into one
typed :class:`~maskmodes.errors.MalformedDocument`.
"""

import base64
import contextlib
import json
import math
import operator

import numpy as np

from .errors import MalformedDocument

_COMPLEX = np.dtype("<c16")


class _Payload(str):
    """Base64 text from :func:`encode_array`: JSON carries it as it is."""

    __slots__ = ()


def _stubbed(doc, stub, payloads):
    """A copy of the dictionary ``doc`` with each :class:`_Payload` value replaced by ``stub``.

    Values that are dictionaries are walked in turn; the payloads are
    appended to ``payloads``.  Keys are walked in sorted order, the order
    ``sort_keys`` writes them in, so ``payloads`` lists the payloads as the
    text holds them.  Every writer puts its payloads at dictionary values,
    so lists are not walked: a payload in a list is written as any other
    string is, escaping scan included.
    """
    out = {}
    for key, value in sorted(doc.items()):
        if isinstance(value, _Payload):
            payloads.append(value)
            value = stub
        elif isinstance(value, dict):
            value = _stubbed(value, stub, payloads)
        out[key] = value
    return out


def text_pieces(doc):
    """The text of a document as a list of strings, each payload one of them.

    The text is ``json.dumps(doc, sort_keys=True, indent=1) + "\\n"``.  Each
    payload is written as a stub string and spliced back in, in the order
    the stubs appear.  The quoted stub can occur in the text only as a
    string that equals it or ends in a quote and it, so a count of one
    match per payload proves no other string does; otherwise the stub
    grows and the document is written again.  A file takes the pieces one
    by one (``fh.writelines``), so no joined copy of a payload is made.
    """
    stub = "\0"
    while True:
        payloads = []
        stubbed = _stubbed(doc, stub, payloads) if isinstance(doc, dict) else doc
        text = json.dumps(stubbed, sort_keys=True, indent=1)
        parts = text.split(json.dumps(stub)) if payloads else [text]
        if len(parts) == len(payloads) + 1:
            break
        stub += "\0"
    pieces = [parts[0]]
    for payload, part in zip(payloads, parts[1:]):
        pieces += ['"', payload, '"', part]
    pieces.append("\n")
    return pieces


def dumps(doc):
    """The text of a document: sorted keys, one-space indentation, a final newline."""
    return "".join(text_pieces(doc))


def encode_array(values, dtype=_COMPLEX):
    """Base64 text of the little-endian, row-major bytes of ``values`` as ``dtype``."""
    # the bytes are freed before the marked copy of the text is made
    text = base64.b64encode(np.ascontiguousarray(values, dtype=dtype).tobytes()).decode("ascii")
    return _Payload(text)


def decode_array(text, shape, dtype=_COMPLEX):
    """The read-only ``dtype`` array of ``shape`` that :func:`encode_array` wrote as ``text``.

    Text that is not strict base64, or whose bytes are not exactly the
    entries of ``shape``, raises :class:`MalformedDocument`.
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
