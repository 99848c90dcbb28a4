"""The config readers: one for JSON objects, one for shaped numbers."""

from __future__ import annotations

import re

import pytest

from lieslam.config import ConfigError, fields, floats


@pytest.mark.parametrize("raw, key, message", (
    ([1], "x", "x: expected an object"),
    ({"a": 1, "c": 2}, "x", "x: unknown keys ['c']"),
    ({"b": 1}, "x", "x.a: required"),
    ("{}", "", "top level: expected an object"),
    ({"c": 1}, "", "top level: unknown keys ['c']"),
    ({}, "", "a: required"),
))
def test_fields_rejects_and_names_the_key(raw, key, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        fields(raw, key, ("a", "b"), ("a",))


def test_fields_returns_the_object():
    raw = {"a": 1}
    assert fields(raw, "x", ("a", "b"), ("a",)) is raw


@pytest.mark.parametrize("raw, shape, message", (
    ([1, 2], (3,), "k: expected 3 numbers, got shape (2,)"),
    ([1, 2, 3], (), "k: expected a number, got shape (3,)"),
    ([[1, 2], [3, 4]], (None, 3), "k: expected a list of 3-vectors, got shape (2, 2)"),
    ([1, 2, 3], (None, 3), "k: expected a list of 3-vectors, got shape (3,)"),
    ([[1, 2, 3]], (2, 3), "k: expected 2 3-vectors, got shape (1, 3)"),
    (["5", True, 0], None, "k: expected numbers"),
    ([1, float("nan"), 3], (3,), "k: expected finite numbers"),
))
def test_floats_rejects_and_names_the_key(raw, shape, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        floats(raw, "k", shape)


def test_floats_accepts_any_length_where_the_shape_says_none():
    assert floats([[1, 2, 3]] * 5, "k", (None, 3)).shape == (5, 3)
    assert floats([[[1]]], "k").shape == (1, 1, 1)
