import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import oracle_expansions
from hbgraphs.words import binary_expansion, decompose, minimal_expansion, render


def test_binary_expansion_examples():
    assert binary_expansion(42) == "101010"
    assert binary_expansion(0) == ""
    assert binary_expansion(10) == "1010"


def test_minimal_expansion_examples():
    assert minimal_expansion(42) == "12122"
    assert minimal_expansion(10) == "122"
    assert minimal_expansion(0) == ""


def test_rejects_bad_digits():
    with pytest.raises(ValueError, match="not a word"):
        decompose("123")


def test_render():
    assert render("") == "ε"
    assert render("122") == "122"


@given(st.integers(0, 10**4))
def test_binary_roundtrip(n):
    w = binary_expansion(n)
    assert oracles.value(w) == n
    assert "2" not in w


@given(st.integers(0, 1 << 6000))
def test_minimal_roundtrip(n):
    w = minimal_expansion(n)
    assert oracles.value(w) == n
    assert "0" not in w


@given(st.integers(0, 10**4))
def test_expansion_lengths(n):
    words = oracle_expansions(n)
    bin_len = n.bit_length()
    for w in words:
        if n > 0:
            assert len(w) in (bin_len - 1, bin_len)


@given(st.integers(0, 10**4))
def test_minimal_and_binary_are_shortlex_extremes(n):
    words = oracle_expansions(n)
    ordered = sorted(words, key=lambda w: (len(w), w))
    assert ordered[0] == minimal_expansion(n)
    assert ordered[-1] == binary_expansion(n)
