"""The one JSON writer for artifacts and saved objects, the array codec and
the reading guard.

:func:`dumps` gives ``json.dumps(doc, sort_keys=True, indent=1) + "\\n"``,
the text of every artifact and saved document.  Arrays (compiled matrices,
sampled masks, impulse-response kernels, the occupations and amplitudes of
states) go into documents as one base64 string of their little-endian,
row-major bytes, ``complex128`` unless a reader and its writer name another
type: :func:`encode_array` and :func:`decode_array`.  The round trip is
bit-exact.

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


def dumps(doc):
    """The text of a document: sorted keys, one-space indentation, a final newline."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def encode_array(values, dtype=_COMPLEX):
    """Base64 text of the little-endian, row-major bytes of ``values`` as ``dtype``."""
    return base64.b64encode(np.ascontiguousarray(values, dtype=dtype).tobytes()).decode("ascii")


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
