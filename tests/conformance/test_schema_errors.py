"""Stale or malformed vector files must fail loudly, never pass silently."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.corpus import (
    GOLDEN_FILENAME,
    load_golden_digests,
    save_golden_digests,
)
from repro.conformance.vectors import (
    SCHEMA_VERSION,
    VectorSchemaError,
    load_vector,
    record_vector,
    save_vector,
)


@pytest.fixture
def vector_path(tmp_path):
    return save_vector(record_vector("ml-epochs-s3"), str(tmp_path))


def _rewrite(path, mutate):
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    mutate(data)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return path


def test_stale_schema_version_tells_user_to_rerecord(vector_path):
    _rewrite(vector_path, lambda d: d.update(schema=SCHEMA_VERSION + 1))
    with pytest.raises(VectorSchemaError) as error:
        load_vector(vector_path)
    message = str(error.value)
    assert f"schema {SCHEMA_VERSION + 1}" in message
    assert "repro conformance record" in message


def test_missing_keys_are_named(vector_path):
    _rewrite(vector_path, lambda d: (d.pop("checkpoints"), d.pop("terminal")))
    with pytest.raises(VectorSchemaError) as error:
        load_vector(vector_path)
    assert "checkpoints" in str(error.value)
    assert "terminal" in str(error.value)


def test_invalid_json_is_a_schema_error(tmp_path):
    path = tmp_path / "broken.kav.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(VectorSchemaError, match="not a valid"):
        load_vector(str(path))


def test_non_object_vector_is_a_schema_error(tmp_path):
    path = tmp_path / "list.kav.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(VectorSchemaError, match="JSON object"):
        load_vector(str(path))


def test_golden_table_schema_is_checked(tmp_path):
    save_golden_digests(
        {
            "schema": SCHEMA_VERSION + 5,
            "experiment_scale": 0.2,
            "fleet": {},
            "experiments": {},
        },
        str(tmp_path),
    )
    with pytest.raises(VectorSchemaError, match="repro conformance record"):
        load_golden_digests(str(tmp_path))


def test_golden_table_missing_key_is_named(tmp_path):
    save_golden_digests(
        {"schema": SCHEMA_VERSION, "fleet": {}, "experiments": {}},
        str(tmp_path),
    )
    with pytest.raises(VectorSchemaError, match="experiment_scale"):
        load_golden_digests(str(tmp_path))


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("content, match", [
    (b"\xff\xfe{not utf-8", "not a valid"),
    (_DEEP.encode(), "nested too deeply"),
    (b"5", "JSON object"),
], ids=["non-utf8", "deep-array", "scalar"])
@pytest.mark.parametrize("loader", ["vector", "golden"])
def test_undecodable_files_are_schema_errors_naming_the_path(
    tmp_path, loader, content, match
):
    if loader == "vector":
        path = tmp_path / "bad.kav.json"
        load = lambda: load_vector(str(path))  # noqa: E731
    else:
        path = tmp_path / GOLDEN_FILENAME
        load = lambda: load_golden_digests(str(tmp_path))  # noqa: E731
    path.write_bytes(content)
    with pytest.raises(VectorSchemaError, match=match) as error:
        load()
    assert str(path) in str(error.value)


@pytest.mark.parametrize("key, value", [
    ("cadence", "64"),
    ("cadence", True),
    ("cadence", 0),
    ("checkpoints", {"0": [1, 2, "d"]}),
    ("checkpoints", [[1, 2]]),
    ("checkpoints", [[1, "2", "d"]]),
    ("terminal", "done"),
    ("terminal", [1, 2, 3]),
    ("state", [1]),
    ("scenario", "ml-epochs"),
    ("name", 3),
])
def test_wrong_typed_vector_fields_are_named(vector_path, key, value):
    _rewrite(vector_path, lambda d: d.update({key: value}))
    with pytest.raises(VectorSchemaError, match=repr(key)) as error:
        load_vector(vector_path)
    assert vector_path in str(error.value)


@pytest.mark.parametrize("section, table", [
    ("fleet", [1]),
    ("experiments", {"fig6-left": 5}),
])
def test_wrong_typed_golden_sections_are_named(tmp_path, section, table):
    data = {
        "schema": SCHEMA_VERSION,
        "experiment_scale": 0.2,
        "fleet": {},
        "experiments": {},
    }
    data[section] = table
    save_golden_digests(data, str(tmp_path))
    with pytest.raises(VectorSchemaError, match=repr(section)):
        load_golden_digests(str(tmp_path))


@settings(max_examples=200, deadline=None)
@given(content=st.one_of(
    st.binary(max_size=200),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=8),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
    ).map(lambda value: json.dumps(value).encode()),
))
def test_loaders_over_arbitrary_bytes_raise_only_schema_errors(content):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, GOLDEN_FILENAME)
        with open(path, "wb") as handle:
            handle.write(content)
        for load in (lambda: load_vector(path),
                     lambda: load_golden_digests(directory)):
            try:
                load()
            except VectorSchemaError:
                pass
