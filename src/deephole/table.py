"""Report tables held as integer columns.

A ``Table`` is the row format of a report: ordered column names, each with
an integer array of one value per row, shape (N,), or of a fixed-width list
per row, shape (N, w).  It renders its rows as the JSON text that
``json.dumps(table.rows(), sort_keys=True, indent=indent)`` would give at the
same nesting level, through a ``%``-template built from the sorted column
names and widths and applied to the flattened column values of
``RENDER_ROWS`` rows at a time.
"""

from __future__ import annotations

import json

import numpy as np

# rows rendered by one template, so that the transient template, value tuple
# and string of a block stay far below the text of a large table; of 1024 and
# 4096 rows, 4096 gave the lower `sweep` peak RSS
RENDER_ROWS = 4096


class Table:
    """Rows stored as columns; ``len`` is the row count."""

    def __init__(self, columns: dict[str, np.ndarray]):
        cols = {}
        n = None
        for name, values in columns.items():
            a = np.asarray(values)
            if a.ndim not in (1, 2) or not np.issubdtype(a.dtype, np.integer):
                raise ValueError(
                    f"column {name!r} must be a 1-D or 2-D integer array, "
                    f"got {a.ndim}-D {a.dtype}"
                )
            if not np.can_cast(a.dtype, np.int64):
                raise ValueError(f"column {name!r} of dtype {a.dtype} does not fit int64")
            if n is None:
                n = len(a)
            elif len(a) != n:
                raise ValueError(f"column {name!r} has {len(a)} rows, not {n}")
            a = a.astype(np.int64)
            a.setflags(write=False)
            cols[name] = a
        self.columns = cols
        self._n = n or 0

    def __len__(self) -> int:
        return self._n

    def rows(self) -> list[dict]:
        """One dict per row, a list for each 2-D column: the reference whose
        json.dumps text render_json is checked against."""
        names = list(self.columns)
        values = [c.tolist() for c in self.columns.values()]
        return [dict(zip(names, row)) for row in zip(*values)]

    def render_json(self, indent: int, level: int) -> str:
        """The rows as JSON text indented by `indent` spaces per level, for a
        list that starts `level` levels deep; the text of an empty table is
        ``[]``."""
        if not self._n:
            return "[]"
        pad = [" " * (indent * (level + i)) for i in range(4)]
        fields, flat = [], []
        for name in sorted(self.columns):
            col = self.columns[name]
            key = pad[2] + json.dumps(name).replace("%", "%%") + ": "
            if col.ndim == 1:
                fields.append(key + "%d")
            elif col.shape[1] == 0:
                fields.append(key + "[]")
            else:
                items = ",\n".join([pad[3] + "%d"] * col.shape[1])
                fields.append(f"{key}[\n{items}\n{pad[2]}]")
            flat.append(col.reshape(self._n, -1))
        row = f"{pad[1]}{{\n" + ",\n".join(fields) + f"\n{pad[1]}}}"
        values = np.concatenate(flat, axis=1)
        out = ["[\n"]
        for start in range(0, self._n, RENDER_ROWS):
            block = values[start : start + RENDER_ROWS]
            if start:
                out.append(",\n")
            template = ",\n".join([row] * len(block))
            out.append(template % tuple(block.ravel().tolist()))
        out.append(f"\n{pad[0]}]")
        return "".join(out)
