"""Report tables held as integer columns.

A ``Table`` is the row format of a report: ordered column names, each with
an integer array whose first axis is the row, of any ndim >= 1 (a row's value
is an integer, or nested lists for ndim >= 2), a dict of such columns (a
nested object per row), or a ``str`` that every row shares.

``render_json`` gives the text of ``json.dumps(table.rows(), sort_keys=True,
indent=indent)`` at the same nesting level through one ``%``-template.  The
row template is ``json.dumps`` of one prototype row with the string ``SLOT``
in every integer slot, indented to the row's level, every ``%`` doubled and
every quoted ``SLOT`` replaced by ``%d``.  The values are the integer columns
in the order ``json.dumps`` visits them, sorted keys depth first, each
reshaped to (N, -1), applied ``RENDER_ROWS`` rows at a time.  So the text is
``json.dumps``'s own, escapes included; a string that holds ``SLOT`` could
render as a slot, and is refused.
"""

from __future__ import annotations

import json

import numpy as np

# rows rendered by one template, so that the transient template, value tuple
# and string of a block stay far below the text of a large table; of 1024 and
# 4096 rows, 4096 gave the lower `sweep` peak RSS
RENDER_ROWS = 4096

SLOT = "\0slot"
_QUOTED_SLOT = json.dumps(SLOT)


class Table:
    """Rows stored as columns; ``len`` is the row count, that of the integer
    columns, or 0 when there are none."""

    def __init__(self, columns: dict):
        self._n = None
        self.columns = self._hold(columns, "")
        self._n = self._n or 0

    def _hold(self, columns: dict, prefix: str) -> dict:
        """The columns checked, each array as a read-only int64 copy; a
        nested column is named by its path, joined by dots."""
        held = {}
        for name, value in columns.items():
            if not isinstance(name, str) or SLOT in name:
                raise ValueError(f"column name {name!r} must be a str without the slot marker")
            path = prefix + name
            if isinstance(value, str):
                if SLOT in value:
                    raise ValueError(f"column {path!r} holds the slot marker")
            elif isinstance(value, dict):
                value = self._hold(value, path + ".")
            else:
                value = self._array(path, value)
            held[name] = value
        return held

    def _array(self, path: str, values) -> np.ndarray:
        a = np.asarray(values)
        if a.ndim < 1 or not np.issubdtype(a.dtype, np.integer):
            raise ValueError(
                f"column {path!r} must be an integer array with a row axis, "
                f"got {a.ndim}-D {a.dtype}"
            )
        if not np.can_cast(a.dtype, np.int64):
            raise ValueError(f"column {path!r} of dtype {a.dtype} does not fit int64")
        if self._n is None:
            self._n = len(a)
        elif len(a) != self._n:
            raise ValueError(f"column {path!r} has {len(a)} rows, not {self._n}")
        a = a.astype(np.int64)
        a.setflags(write=False)
        return a

    def __len__(self) -> int:
        return self._n

    def rows(self) -> list[dict]:
        """One dict per row: the reference whose json.dumps text render_json
        is checked against."""
        return _rows(self.columns, self._n)

    def render_json(self, indent: int, level: int) -> str:
        """The rows as JSON text indented by `indent` spaces per level, for a
        list that starts `level` levels deep; the text of an empty table is
        ``[]``."""
        if not self._n:
            return "[]"
        pad, slots = " " * (indent * (level + 1)), []
        proto = json.dumps(_prototype(self.columns, slots), sort_keys=True, indent=indent)
        row = (pad + proto.replace("\n", "\n" + pad)).replace("%", "%%")
        row = row.replace(_QUOTED_SLOT, "%d")
        values = np.concatenate(slots, axis=1)
        out = ["[\n"]
        for start in range(0, self._n, RENDER_ROWS):
            block = values[start : start + RENDER_ROWS]
            if start:
                out.append(",\n")
            template = ",\n".join([row] * len(block))
            out.append(template % tuple(block.ravel().tolist()))
        out.append(f"\n{' ' * (indent * level)}]")
        return "".join(out)


def _rows(columns: dict, n: int) -> list[dict]:
    values = [
        [v] * n if isinstance(v, str) else _rows(v, n) if isinstance(v, dict) else v.tolist()
        for v in columns.values()
    ]
    return [dict(zip(columns, row)) for row in (zip(*values) if values else [()] * n)]


def _prototype(columns: dict, slots: list) -> dict:
    """One row with SLOT in place of every integer; each integer column is
    appended to slots as an (N, -1) array, sorted keys depth first, the
    order in which json.dumps visits the slots."""
    row = {}
    for name in sorted(columns):
        v = columns[name]
        if isinstance(v, dict):
            v = _prototype(v, slots)
        elif not isinstance(v, str):
            slots.append(v.reshape(len(v), -1))
            v = np.full(v.shape[1:], SLOT, dtype=object).tolist()
        row[name] = v
    return row
