"""The one JSON writer for artifacts and saved objects, and the reading guard.

:func:`json_chunks` yields the text of
``json.dumps(doc, sort_keys=True, indent=1) + "\\n"`` in pieces, so a large
document streams into its file instead of being built in memory.  A 2-D
``ndarray`` held in a dict (at any depth of dicts) is written as the nested
``[re, im]`` pair lists that ``json`` gives for
``[[[float(v.real), float(v.imag)] for v in row] for row in matrix]``, one
matrix row per piece, without building those lists.  Every other value goes
through ``json.dumps`` itself, so the bytes match the plain encoder's.

:func:`reading` turns every way a document can fail to be read into one
typed :class:`~maskmodes.errors.MalformedDocument`.
"""

import contextlib
import json

import numpy as np

from .errors import MalformedDocument

# json writes non-finite floats as these JavaScript literals, not as repr()
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_chunks(doc):
    """Pieces of ``json.dumps(doc, sort_keys=True, indent=1) + "\\n"``."""
    yield from _value_chunks(doc, 0)
    yield "\n"


def _value_chunks(value, level):
    if isinstance(value, np.ndarray):
        yield from _matrix_chunks(value, level)
    elif isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        pad = "\n" + " " * (level + 1)
        sep = "{"
        for key in sorted(value):
            yield f"{sep}{pad}{json.dumps(key)}: "
            yield from _value_chunks(value[key], level + 1)
            sep = ","
        yield "\n" + " " * level + "}"
    else:
        yield json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n" + " " * level)


def _matrix_chunks(matrix, level):
    m = np.ascontiguousarray(matrix, dtype=np.complex128)
    rows, cols = m.shape
    if rows == 0:
        yield "[]"
        return
    p1, p2, p3 = ("\n" + " " * (level + d) for d in (1, 2, 3))
    if cols == 0:
        row_text = "[]"
    else:
        pair = f"[{p3}%s,{p3}%s{p2}]"
        row_text = f"[{p2}" + f",{p2}".join([pair] * cols) + f"{p1}]"
    sep = "["
    for row in m.view(np.float64):
        # str() of a Python float is float.__repr__, which json uses
        parts = row.tolist()
        if not np.isfinite(row).all():
            parts = [_NON_FINITE.get(repr(x), x) for x in parts]
        yield sep + p1 + row_text % tuple(parts)
        sep = ","
    yield "\n" + " " * level + "]"


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
