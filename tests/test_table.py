import json

import numpy as np
import pytest

from deephole.table import SLOT, Table


def _dumps_at(rows, indent, level):
    # the text of `rows` in json.dumps of a document that holds it as the
    # value of a key `level` dicts deep
    doc = rows
    for _ in range(level):
        doc = {"k": doc}
    text = json.dumps(doc, sort_keys=True, indent=indent)
    return text[text.index("[") : text.rindex("]") + 1]


def test_table_rows_len_and_render():
    t = Table(
        {
            "z": np.array([3, -1], dtype=np.int8),
            "pair": np.array([[1, 2], [0, 5]], dtype=np.uint16),
            "empty": np.zeros((2, 0), dtype=np.int64),
            "a%d": np.array([7, 8]),
        }
    )
    assert len(t) == 2
    assert list(t.columns) == ["z", "pair", "empty", "a%d"]
    rows = t.rows()
    assert rows == [
        {"z": 3, "pair": [1, 2], "empty": [], "a%d": 7},
        {"z": -1, "pair": [0, 5], "empty": [], "a%d": 8},
    ]
    assert all(type(v) is int for v in rows[1].values() if not isinstance(v, list))
    for indent in (2, 4):
        for level in range(4):
            assert t.render_json(indent, level) == _dumps_at(rows, indent, level)


def test_nested_and_shared_columns_render_as_json_dumps():
    words = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    t = Table(
        {
            "tag": 'c%d "\u00e9" \u00e9\u2192 %%',
            "params": {"poly": np.array([[1, 0, 1], [2, 1, 1]]), "k": np.array([3, -4])},
            "words": words,
            "flat": np.zeros((2, 2, 0), dtype=np.int16),
            "none": {},
            "inner": {"deeper": {"x": np.array([5, 6], dtype=np.int32)}, "s": "%"},
        }
    )
    assert len(t) == 2
    rows = t.rows()
    assert rows[1] == {
        "tag": 'c%d "\u00e9" \u00e9\u2192 %%',
        "params": {"poly": [2, 1, 1], "k": -4},
        "words": words[1].tolist(),
        "flat": [[], []],
        "none": {},
        "inner": {"deeper": {"x": 6}, "s": "%"},
    }
    for indent in (2, 4):
        for level in range(4):
            assert t.render_json(indent, level) == _dumps_at(rows, indent, level)


def test_zero_row_table():
    t = Table({"x": np.zeros(0, dtype=np.int64), "y": np.zeros((0, 3), dtype=np.int32)})
    assert len(t) == 0
    assert t.rows() == []
    assert t.render_json(2, 0) == "[]" == _dumps_at([], 2, 0)
    assert t.render_json(2, 3) == "[]" == _dumps_at([], 2, 3)
    assert len(Table({})) == 0 and Table({}).rows() == []
    t = Table({"s": "x", "p": {"a": np.zeros((0, 2, 2), dtype=np.int64)}})
    assert len(t) == 0 and t.rows() == []
    assert t.render_json(4, 1) == "[]" == _dumps_at([], 4, 1)


@pytest.mark.parametrize(
    "columns",
    [
        {"a": np.arange(3), "b": np.arange(4)},  # row counts differ
        {"a": np.arange(3), "b": np.zeros((2, 2), dtype=np.int64)},
        {"a": np.arange(3.0)},  # float
        {"a": np.array([True, False])},  # bool is not an integer dtype
        {"a": np.array(["1", "2"])},
        {"a": np.array([1, 2], dtype=object)},
        {"a": np.array([1, 2], dtype=np.uint64)},  # does not fit int64
        {"a": np.int64(3)},  # 0-D
        {"a": [{"b": 1}, {"b": 2}]},  # a list of dicts
        {"a": np.arange(2), "p": {"b": np.arange(2.0)}},  # float, nested
        {"a": None},
        {"a": np.arange(2), "p": {"b": np.arange(3)}},  # row counts differ, nested
        {"a": "x" + SLOT},  # a string holding the slot marker
        {"a": {"b": SLOT}},
        {"a" + SLOT: np.arange(2)},
        {"p": {SLOT: np.arange(2)}},
        {3: np.arange(2)},  # a name that is not a str
    ],
)
def test_bad_columns_raise_value_error(columns):
    with pytest.raises(ValueError):
        Table(columns)


def test_columns_are_read_only_copies():
    src = np.array([1, 2, 3])
    t = Table({"a": src})
    src[0] = 9
    assert t.rows()[0] == {"a": 1}
    with pytest.raises(ValueError):
        t.columns["a"][0] = 5
