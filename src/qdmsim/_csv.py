"""Column-wise CSV text with each distinct value formatted once.

Some writers' columns repeat few values (the durations of a plan's
cycles, a noiseless reference rate), and formatting a float costs far
more than looking it up.  A column is keyed by its values, floats by
their bit patterns, so -0.0 and 0.0 stay apart and every NaN payload
keeps its own text.  Each distinct key is formatted with repr once, and
rows are joined column-wise.  repr and str agree on Python floats and
ints, so the text is byte for byte what a row loop calling either on
.tolist() values writes.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def column_text(values) -> list[str]:
    """repr of each element of a float64 or integer array (or of a sequence
    numpy turns into one), as a flat list."""
    col = np.asarray(values).ravel()
    keys = col.view(np.int64) if col.dtype == np.float64 else col
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if first.size == col.size:  # all distinct: nothing to share
        return list(map(repr, col.tolist()))
    texts = np.array(list(map(repr, col[first].tolist())), dtype=object)
    return texts[inverse].tolist()


def csv_text(header: str, columns: Iterable[Iterable[str]]) -> str:
    """The header, then one comma-joined row per position of the columns."""
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"
