import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oclab.linalg import Matrix, NormTag, exact_vector, rank_exact
from oclab.serialize import (
    canonical_json,
    canonical_json_spliced,
    certificate,
    digest,
    digest_text,
    prefix_digest,
    to_jsonable,
)


def test_fraction_round_trip():
    for q in (F(0), F(3), F(-2, 7), F(10, 4)):
        assert F(json.loads(canonical_json(q))) == q
    assert canonical_json(F(3)) == '"3"'          # integral values drop the slash
    assert canonical_json(F(-1, 2)) == '"-1/2"'


def test_vectors_serialize_by_mode():
    v = exact_vector(["1/2", 3])
    assert to_jsonable(v) == ["1/2", "3"]


def test_matrix_serializes_as_rows():
    # a matrix is a dataclass like any other: its rows under its kind
    M = Matrix.from_rows([exact_vector([1, 0]), exact_vector([0, 1])])
    assert to_jsonable(M) == {"kind": "matrix", "rows": [["1", "0"], ["0", "1"]]}


def test_dataclass_kind_is_kebab_case():
    log = rank_exact(Matrix.from_rows([exact_vector([2])])).log
    payload = to_jsonable(log)
    assert payload["kind"] == "pivot-log"
    assert payload["steps"] == [[0, 0, 2]]  # integer pivots stay integers


def test_enums_serialize_to_values():
    assert to_jsonable(NormTag.LINF) == "Linf"


def test_canonical_json_is_ordered_and_tight():
    s = canonical_json({"b": 1, "a": [F(1, 2)]})
    assert s == '{"a":["1/2"],"b":1}'


def test_canonical_json_rejects_unsupported_types():
    with pytest.raises(TypeError, match="cannot serialize complex"):
        canonical_json({"z": 1j})
    # no report holds a set
    with pytest.raises(TypeError, match="cannot serialize set"):
        canonical_json({"s": {3, 1, 2}})


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_canonical_json_refuses_a_value_that_contains_itself():
    # the encoder skips its cycle scan, so a cycle ends in the recursion limit
    looped_list = [1]
    looped_list.append(looped_list)
    looped_dict = {"a": 1}
    looped_dict["b"] = looped_dict
    for looped in (looped_list, looped_dict):
        with pytest.raises(RecursionError):
            canonical_json(looped)


def test_digest_is_stable_under_key_order():
    assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})
    assert digest({"a": 1}) != digest({"a": 2})


def test_certificate_shape():
    cert = certificate("density", "Full", subset=(2, 0, 1), inputs={"d": 3})
    assert set(cert) == {"kind", "verdict", "witness", "pivot_log", "inputs_digest", "subset"}
    assert cert["subset"] == [2, 0, 1]
    assert cert["witness"] is None
    assert cert["inputs_digest"] == digest({"d": 3})
    # canonical form is valid JSON
    json.loads(canonical_json(cert))


_KEYS = st.text(st.sampled_from("abdz\u00e9\"\\"), min_size=1, max_size=4)
_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-(1 << 70), 1 << 70),
        st.builds(F, st.integers(-99, 99), st.integers(1, 99)), st.text(max_size=5),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.tuples(inner, inner), st.dictionaries(_KEYS, inner, max_size=3)
    ),
    max_leaves=8,
)


@given(st.dictionaries(_KEYS, _VALUES, max_size=4), _KEYS, st.lists(_VALUES, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_prefix_digest_equals_the_digest_of_each_whole_input(shared, key, values):
    if any(k >= key for k in shared):
        with pytest.raises(ValueError, match="does not sort after every shared key"):
            prefix_digest(shared, key)
        key = max(shared) + "~"
    value_digest = prefix_digest(shared, key)
    for value in values:
        assert value_digest(value) == digest({**shared, key: value})


def test_prefix_digest_refuses_a_key_that_does_not_sort_last():
    for key in ("d", "lambdas", "a"):
        with pytest.raises(ValueError):
            prefix_digest({"d": 3, "lambdas": [F(1, 10)]}, key)
    assert prefix_digest({}, "subset")((0, 1)) == digest({"subset": [0, 1]})


def test_spliced_json_equals_the_one_shot_encoding():
    items = [{"b": F(1, 3), "a": [1, 2]}, None, "x"]
    record = {"z": {"q": 1}, "items": items, "m": [F(-1, 2)]}
    texts = [canonical_json(item) for item in items]
    assert canonical_json_spliced(record, "items", texts) == canonical_json(record)
    assert canonical_json_spliced({"items": ()}, "items", ()) == canonical_json({"items": []})
    assert digest_text(canonical_json(record)) == digest(record)
    with pytest.raises(ValueError, match="does not sort before every other key"):
        canonical_json_spliced({**record, "a": 1}, "items", texts)
