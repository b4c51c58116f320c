import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import oracle_expansions, oracle_value
from hbgraphs.words import (
    LengthClass,
    binary_expansion,
    is_hyperbinary,
    length_class,
    minimal_expansion,
    render,
    shortlex_cmp,
    shortlex_key,
    value,
    weight,
)


def test_value_examples():
    assert value("12122") == 42
    assert value("") == 0
    assert value("1010") == 10


def test_binary_expansion_examples():
    assert binary_expansion(42) == "101010"
    assert binary_expansion(0) == ""
    assert binary_expansion(10) == "1010"


def test_minimal_expansion_examples():
    assert minimal_expansion(42) == "12122"
    assert minimal_expansion(10) == "122"
    assert minimal_expansion(0) == ""


def test_is_hyperbinary():
    assert is_hyperbinary("202")
    assert not is_hyperbinary("012")
    assert is_hyperbinary("")


def test_weight():
    assert weight("122") == 5
    assert weight("") == 0
    assert weight("1010") == 2


def test_shortlex_cmp():
    assert shortlex_cmp("122", "1002") == -1
    assert shortlex_cmp("202", "210") == -1
    assert shortlex_cmp("12", "12") == 0
    assert shortlex_cmp("1002", "122") == 1


def test_value_matches_digit_loop():
    rng = random.Random(0)
    words = ["", "0", "2", "0012", "2" * 300]
    for length in (1, 63, 64, 65, 4096, 70_000):
        words.append("".join(rng.choice("012") for _ in range(length)))
        words.append(minimal_expansion(rng.getrandbits(length)))
    for w in words:
        assert value(w) == oracle_value(w), len(w)
    w = words[-1]
    assert length_class(w) == (
        LengthClass.LONG if len(w) == oracle_value(w).bit_length() else LengthClass.SHORT
    )


def test_length_class_examples():
    # H(2) = {2, 10}: "2" is one digit shorter than the binary expansion
    assert oracle_expansions(2) == ("2", "10")
    assert length_class("2") == LengthClass.SHORT
    assert length_class("10") == LengthClass.LONG
    assert length_class("") == LengthClass.EMPTY


def test_rejects_bad_digits():
    with pytest.raises(ValueError):
        value("123")
    with pytest.raises(ValueError):
        length_class("012")


def test_render():
    assert render("") == "ε"
    assert render("122") == "122"


@given(st.integers(0, 10**4))
def test_binary_roundtrip(n):
    w = binary_expansion(n)
    assert value(w) == n
    assert "2" not in w


@given(st.integers(0, 1 << 6000))
def test_minimal_roundtrip(n):
    w = minimal_expansion(n)
    assert value(w) == n
    assert "0" not in w


@given(st.integers(0, 10**4))
def test_expansion_lengths(n):
    words = oracle_expansions(n)
    bin_len = n.bit_length()
    for w in words:
        assert length_class(w) in (LengthClass.EMPTY, LengthClass.SHORT, LengthClass.LONG)
        if n > 0:
            assert len(w) in (bin_len - 1, bin_len)


@given(st.integers(0, 10**4))
def test_minimal_and_binary_are_shortlex_extremes(n):
    words = oracle_expansions(n)
    ordered = sorted(words, key=shortlex_key)
    assert ordered[0] == minimal_expansion(n)
    assert ordered[-1] == binary_expansion(n)
