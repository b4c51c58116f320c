import ast
import random
import tracemalloc
from functools import reduce
from itertools import islice, product
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbgraphs
import oracles
from conftest import (
    oracle_algorithm1,
    oracle_b_matrix,
    oracle_b_v,
    oracle_c_matrix,
    oracle_expansions,
)
from hbgraphs.stern import (
    _LANE,
    _LEAF,
    _RUNS,
    _block_leaves,
    _entry,
    _mul_duals,
    _mul_pairs,
    a,
    b_and_a,
    b_and_a_rows,
    b_algorithm1,
    b_block_formula,
    b_matrix,
    b_matrix_blocks,
    b_recursive,
    c,
    c_matrix,
    v,
    v1_all,
    v_level_set_even,
)
from hbgraphs.structure import dual_transfer
from hbgraphs.words import decompose, even_core, minimal_expansion


def test_b_recursive_examples():
    assert b_recursive(0) == 1
    assert b_recursive(10) == 5
    assert b_recursive(42) == 13
    assert len(oracle_expansions(20)) == 8  # feeds b(42) = b(20) + b(21)
    assert b_recursive(20) == 8 and b_recursive(21) == 5


def test_b_matrix_examples():
    assert b_matrix(2) == 2
    assert b_matrix(10) == 5
    assert b_matrix(1) == 1
    assert b_matrix(0) == 1


def test_b_matrix_blocks_examples():
    assert b_matrix_blocks(42) == 13
    assert b_matrix_blocks(32) == 6
    assert b_recursive(32) == 6
    assert b_matrix_blocks(0) == 1


def test_b_algorithm1_examples():
    assert b_algorithm1(42) == (13, 3)
    assert b_algorithm1(10) == (5, 2)
    assert b_algorithm1(7) == (1, 0)
    assert b_algorithm1(0) == (1, 0)


def test_b_block_formula_examples():
    assert b_block_formula(10) == 5
    assert b_block_formula(0) == 1
    assert b_block_formula(20) == 8


def test_two_factor_count():
    # n = 10 split as 4 * 2 + 2 over H(4) = {12, 20, 100}
    h4 = oracle_expansions(4)
    b0 = sum(1 for w in h4 if w.endswith("0"))
    b2 = sum(1 for w in h4 if w.endswith("2"))
    s = sum(1 for w in oracle_expansions(2) if len(w) < (2).bit_length())  # the short ones
    assert (b0, b2, s) == (2, 1, 1)
    # b(n) = b0 * b(n2) + b2 * s for the split n = 10 = 4 * 2 + 2
    assert b0 * b_recursive(2) + b2 * s == 5


def test_v_examples():
    assert v(0) == 0
    assert v(10) == 1
    assert v(18) == 2


def test_a_examples():
    assert a(4) == 2
    assert a(5) == 1
    assert a(6) == 2
    assert a(0) == 0


def test_b_evaluators_refuse_negative_n():
    for f in (b_recursive, b_matrix, b_matrix_blocks, b_algorithm1, b_block_formula, b_and_a, v, a):
        with pytest.raises(ValueError, match="nonnegative"):
            f(-1)


def test_c_examples():
    assert c(1) == 1
    assert c(11) == 5
    assert c(43) == 13
    with pytest.raises(ValueError):
        c(0)


def test_c_matrix_examples():
    assert c_matrix(1) == 1
    assert c_matrix(11) == 5
    assert c_matrix(2) == 1
    with pytest.raises(ValueError):
        c_matrix(0)


def test_v_level_sets():
    assert v_level_set_even(0, 40) == [0, 2, 4, 6, 8, 14, 16, 30, 32]
    assert v_level_set_even(1, 1000) == [10, 12]
    assert v_level_set_even(3, 64) == [20, 26, 34, 46, 48, 60]


def test_v1_all():
    assert v1_all(30) == [10, 12, 21, 25]
    assert v1_all(9) == []
    assert v1_all(100) == [10, 12, 21, 25, 43, 51, 87]


def test_v_and_a_match_stack_recursion():
    memo = {}
    for n in range(1 << 16):
        b, cyclomatic = oracle_b_v(n, memo)
        assert b_and_a(n) == (b, cyclomatic + b - 1), n
        assert v(n) == cyclomatic, n
        assert a(n) == cyclomatic + b - 1, n


def test_range_matches_b_and_a_below_2_pow_14():
    rows = list(islice(b_and_a_rows(), 1 << 14))
    assert [(b, arcs) for b, arcs, _ in rows] == [b_and_a(n) for n in range(1 << 14)]
    # T(n) counts the expansions of n that end in 2
    assert [t for *_, t in rows[:1024]] == [
        sum(w.endswith("2") for w in oracle_expansions(n)) for n in range(1024)]


def test_range_memory_does_not_grow_with_the_range():
    tracemalloc.start()
    try:
        for _ in islice(b_and_a_rows(), 200_001):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, f"peak {peak} bytes"


def test_v_and_a_match_stack_recursion_4096_bits():
    rng = random.Random(4096)
    for _ in range(3):
        n = rng.getrandbits(4096) | 1 << 4095
        b, cyclomatic = oracle_b_v(n)
        assert b_and_a(n) == (b, cyclomatic + b - 1)
        assert v(n) == cyclomatic


def test_evaluators_hold_no_memory_between_calls():
    n = random.Random("retention").getrandbits(4096) | 1 << 4095
    for fn in (b_recursive, v, a, c):
        tracemalloc.start()
        try:
            fn(n)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.1 * 2**20, f"{fn.__name__} holds {held} bytes"


def test_b_recursive_peak_memory_is_not_quadratic():
    # a memo of every level of a 16k-bit n holds about 10 MB of big ints
    n = random.Random("peak").getrandbits(16384) | 1 << 16383
    tracemalloc.start()
    try:
        got = b_recursive(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"b_recursive peaked at {peak} bytes"
    assert got == b_matrix(n)


@given(st.integers(0, 2048))
@settings(max_examples=120, deadline=None)
def test_five_way_agreement(n):
    expected = b_recursive(n)
    assert b_matrix(n) == expected
    assert b_matrix_blocks(n) == expected
    assert b_algorithm1(n)[0] == expected
    assert b_block_formula(n) == expected


@given(st.integers(1, 512))
@settings(max_examples=80, deadline=None)
def test_c_matrix_agrees(n):
    assert c_matrix(n) == b_recursive(n - 1)


@given(st.integers(0, 2048))
@settings(max_examples=80, deadline=None)
def test_expensive_steps_count_blocks(n):
    core, _ = even_core(n)
    blocks, _ = decompose(minimal_expansion(core))
    assert b_algorithm1(n)[1] == len(blocks)


def test_big_input_arbitrary_precision():
    n = int("10" * 100, 2)
    expected = b_matrix(n)
    assert expected > 1 << 64
    assert b_matrix_blocks(n) == expected
    assert b_algorithm1(n)[0] == expected
    assert b_block_formula(n) == expected


def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _mul_dual(x, y):
    (a, e), (b, f) = (x[:4], x[4:]), (y[:4], y[4:])
    return _mul(a, b) + tuple(map(add, _mul(a, f), _mul(e, b)))


def _packed(mat):
    """The leaf of ``_entry`` that holds a matrix, or a dual one: each pair of ints (x, y) holds the
    rows of one 2x2 matrix (a, b, c, d) as lanes, x = a + c 2^_LANE and y = b + d 2^_LANE."""
    return tuple(x for i in range(0, len(mat), 4)
                 for x in (mat[i] + (mat[i + 2] << _LANE), mat[i + 1] + (mat[i + 3] << _LANE)))


def test_product_is_a_left_fold():
    # the entry kernel takes a start row as its first leaf, here followed by 0 to 9 random signed
    # matrices, plain or dual: it gives entry (0, j) of their product, and that of the ε part
    rng = random.Random("product")
    for width, mul, fold in ((4, _mul_pairs, _mul), (8, _mul_duals, _mul_dual)):
        for size in range(10):
            for _ in range(30):
                row = tuple(rng.randint(-99, 99) if i % 4 < 2 else 0 for i in range(width))
                mats = [row] + [tuple(rng.randint(-99, 99) for _ in range(width))
                                for _ in range(size)]
                for j in (0, 1):
                    assert _entry(list(map(_packed, mats)), j, mul) == reduce(fold, mats)[j::4]


def _long_blocks(k: int) -> list[str]:
    """1^k 2 and 2^k alone, and between short blocks, where the leaf holding one is packed."""
    return [w for block in ("1" * k + "2", "2" * k) for w in (block, "12" + block + "1122")]


@pytest.mark.parametrize("length", [*range(248, 267), *range(504, 523)])
def test_b_and_a_at_leaf_boundaries(length):
    rng = random.Random(length)
    words = [("12" * length)[-length:], "2" * length, "1" * (length - 1) + "2",
             *("".join(rng.choice("12") for _ in range(length - 1)) + "2" for _ in range(3))]
    for word in words:
        for n in (oracles.value(word), oracles.value(word + "11")):  # even, and with trailing 1s
            assert minimal_expansion(n).rstrip("1") == word
            assert b_and_a(n) == oracles.b_and_a(n), word


@pytest.mark.parametrize("k", [255, 256, 257, 1000])
def test_b_and_a_on_long_blocks(k):
    for word in _long_blocks(k):
        n = oracles.value(word)
        assert b_and_a(n) == oracles.b_and_a(n), word


def test_b_and_a_at_16k_bits():
    rng = random.Random(16384)
    for _ in range(3):
        n = rng.getrandbits(16384) | 1 << 16383
        assert b_and_a(n) == oracles.b_and_a(n)


def _largest_eps(word: str) -> int:
    """The largest entry of the ε part of a leaf's dual matrix: a leaf's largest arc count."""
    return max(x for col in ((1, 0), (0, 1)) for x in dual_transfer(word, *col, 0, 0)[2:])


def _extreme(length: int) -> str:
    """The word of ``length`` digits with the largest ε entry: (21)^* 22 or (12)^* 2."""
    return ("12" * length)[1 - length :] + "2"


def test_dual_leaf_lanes_hold_the_largest_arc_count():
    for length in range(2, 13):  # brute force: no word of up to 12 digits has a larger ε entry
        words = ("".join(w) + "2" for w in product("12", repeat=length - 1))
        assert _largest_eps(_extreme(length)) == max(map(_largest_eps, words)), length
    leaf = _extreme(_LEAF)
    # the bound stated at _LANE: at most the leaf's digits times its b, in a signed lane; the
    # first leaf, the row (1, 1) alone, holds the most, and three leaves decode it from lanes
    largest = max(dual_transfer(leaf, 1, 1, 0, 0))
    assert _largest_eps(leaf) < largest <= _LEAF * 2**_LEAF < 2 ** (_LANE - 1)
    n = oracles.value(leaf * 3)
    assert len(_block_leaves(n, dual_transfer, 0, 0)) == 3
    assert b_and_a(n) == oracles.b_and_a(n)


def _shaped(bits: int, rng: random.Random) -> list[int]:
    """n of exactly ``bits`` bits: random, 1^k, 10^(k-1), (10)^k, (110)^k, 1^k with one 0."""
    ones = (1 << bits) - 1
    return [
        rng.getrandbits(bits) | 1 << (bits - 1),
        rng.getrandbits(bits) | 1 << (bits - 1),
        ones,
        1 << (bits - 1),
        int(("10" * bits)[:bits], 2),
        int(("110" * bits)[:bits], 2),
        ones ^ 1 << (bits // 2) if bits > 1 else ones,
    ]


def _check_against_linear_folds(n: int) -> None:
    expected = oracle_b_matrix(n)
    assert b_recursive(n) == expected
    assert b_matrix(n) == expected
    assert b_matrix_blocks(n) == expected
    assert b_algorithm1(n)[0] == expected
    assert b_algorithm1(n) == oracle_algorithm1(n)
    assert b_block_formula(n) == expected
    if n:
        assert c_matrix(n) == oracle_c_matrix(n) == oracle_b_matrix(n - 1)


# leaves hold 256 digits, 32 bytes: every pad of the top byte, one leaf, a full leaf,
# one digit over, two leaves (first leaves of 256 - pad real digits), many
@pytest.mark.parametrize("bits", [*range(1, 18), *range(248, 266), *range(504, 522), 5000])
def test_product_tree_matches_linear_folds(bits):
    for n in _shaped(bits, random.Random(bits)):
        _check_against_linear_folds(n)
        core, _ = even_core(n)
        assert b_algorithm1(n)[1] == len(decompose(minimal_expansion(core))[0])


def test_byte_kernel_matches_linear_folds_below_2_pow_13():
    for n in range(1 << 13):
        assert b_matrix(n) == b_matrix_blocks(n) == oracle_b_matrix(n), n
        assert n == 0 or c_matrix(n) == oracle_c_matrix(n), n
        assert b_algorithm1(n) == oracle_algorithm1(n), n


def test_byte_runs_spell_each_byte():
    for byte, runs in enumerate(_RUNS):
        assert "".join("1" * ones + "0" * zeros for ones, zeros in runs) == format(byte, "08b")
        assert all(ones for ones, _ in runs[1:]) and all(zeros for _, zeros in runs[:-1]), byte
        assert (0, 0) not in runs, byte
    assert len({id(pair) for runs in _RUNS for pair in runs}) == 44  # each distinct pair made once


def _run_shapes(k: int) -> list[int]:
    """n whose runs cross bytes and leaves: a 0x00 byte inside a zero run, a top byte 0xFF (no pad
    0s above the last 1 run), 2^k - 1 shifted, (10)^k, (110)^k and 1^k 0^k 1^k."""
    ones = (1 << k) - 1
    top_ff = (0xFF << 8 * k | int("10" * 4 * k, 2)) << 1
    return [
        1 << k + 18 | 2,
        top_ff,
        top_ff | 1 << 8 * k + 9,
        *(ones << shift for shift in (1, 2, 9, k)),
        int("10" * k, 2),
        int("110" * k, 2),
        int("1" * k + "0" * k + "1" * k, 2),
    ]


@pytest.mark.parametrize("k", [7, 8, 9, 255, 256, 257, 1000])
def test_long_runs_match_linear_folds(k):
    for n in _run_shapes(k):
        _check_against_linear_folds(n)


@given(st.integers(0, 2**2000 - 1))
@settings(max_examples=60, deadline=None)
def test_product_tree_property(n):
    _check_against_linear_folds(n)


def test_each_layer_imports_only_the_layers_below_it():
    # each layer imports only the layers below it: words, then structure (the block states and
    # block transfer, on the digit words alone), then stern (the counting layer, which folds the
    # block transfer), then graphs, blocks, iso and cli; the package init, which re-exports
    # nothing, imports none of them
    package = Path(hbgraphs.__file__).parent
    layers = ["words", "structure", "stern", "graphs", "blocks", "iso", "cli"]
    for k, name in [(0, "__init__"), *enumerate(layers)]:
        tree = ast.parse((package / f"{name}.py").read_text())
        relative = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                relative |= {node.module} if node.module else {alias.name for alias in node.names}
        assert relative <= set(layers[:k]), (name, relative)
