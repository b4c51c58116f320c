"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import random
import time

import oracles
from conftest import cached_embed, cached_graph
from hbgraphs import blocks, graphs, iso, stern
from hbgraphs.graphs import counts
from hbgraphs.structure import Label


@contextlib.contextmanager
def criterion(num: int, title: str, limit_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {title}")
        raise
    elapsed = time.perf_counter() - start
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {num} took {elapsed:.1f}s (limit {limit_s}s)"
    print(f"PASS criterion {num}: {title} ({elapsed:.2f}s)")


def test_criterion_1_paper_value_regression():
    with criterion(1, "paper-value regression for a and the v level sets", 5.0):
        assert (stern.a(4), stern.a(5), stern.a(6)) == (2, 1, 2)
        powers = sorted(
            {x for t in range(1, 12) for x in (2**t - 2, 2**t) if x <= 1024}
        )
        assert stern.v_level_set_even(0, 1024) == powers
        assert stern.v_level_set_even(1, 1024) == [10, 12]
        assert stern.v_level_set_even(2, 1024) == [18, 22, 24, 28]
        assert stern.v_level_set_even(3, 1024) == [20, 26, 34, 46, 48, 60]
        closed = sorted(
            x
            for t in range(0, 10)
            for x in (11 * 2**t - 1, 13 * 2**t - 1)
            if x <= 1000
        )
        assert stern.v1_all(1000) == closed


def test_criterion_2_a10_golden_graph():
    with criterion(2, "A(10) golden graph"):
        g = cached_graph(10)
        assert set(g.vertices) == {"122", "202", "210", "1002", "1010"}
        assert len(g.arcs) == 5
        doubles = [a for a in g.arcs if a.label == Label.DOUBLE]
        assert len(doubles) == 1
        (d,) = doubles
        assert (g.vertices[d.tail], g.vertices[d.head]) == ("122", "202")
        assert counts(g) == (5, 5, 1)


def test_criterion_3_five_way_b_agreement():
    with criterion(3, "five-way b agreement with enumeration, n <= 2048", 60.0):
        for n in range(2049):
            expected = stern.b_recursive(n)
            assert stern.b_matrix(n) == expected, n
            assert stern.b_matrix_blocks(n) == expected, n
            assert stern.b_algorithm1(n)[0] == expected, n
            assert stern.b_block_formula(n) == expected, n
            assert len(graphs.enumerate_expansions(n)) == expected, n


def test_criterion_4_structural_v_a_agreement():
    with criterion(4, "v/a recursion vs built graphs, n <= 512", 60.0):
        for n in range(513):
            b, a, v = counts(cached_graph(n))
            assert v == stern.v(n), n
            assert a == stern.a(n), n


def test_criterion_5_embedding_suite():
    with criterion(5, "product embedding suite, even n <= 512", 120.0):
        for n in range(0, 513, 2):
            pg = cached_embed(n)
            g = pg.graph
            # injective with full image
            assert len(set(pg.factors)) == len(g.vertices) == stern.b_recursive(n)
            # arcs of A(n) are label-preserving product arcs, and the image
            # is induced: every product arc between image tuples is an arc
            block_gs = [cached_graph(oracles.value(b)) for b in pg.blocks]
            for arc in g.arcs:
                i = pg.place[arc] - 1
                fx, fy = pg.factors[arc.tail], pg.factors[arc.head]
                bg = block_gs[i]
                img = bg.arc(bg.index[fx[i]], bg.index[fy[i]])
                assert img is not None and img.label == arc.label, (n, arc)
            tuple_to_vid = {f: vid for vid, f in enumerate(pg.factors)}
            for fx, x in tuple_to_vid.items():
                for i, bg in enumerate(block_gs):
                    for barc in bg.out_arcs(bg.index[fx[i]]):
                        fy = fx[:i] + (bg.vertices[barc.head],) + fx[i + 1 :]
                        y = tuple_to_vid.get(fy)
                        if y is None:
                            continue
                        arc = g.arc(x, y)
                        assert arc is not None and arc.label == barc.label, (n, fx, fy)
            # place composed with any place-preserving map is the place map
            for e in g.arcs:
                for e_x, e_y in blocks.place_preserving_map(pg, e).items():
                    assert pg.place[e_x] == pg.place[e_y], (n, e)


def test_criterion_6_isomorphism_theorem_desk_scale():
    with criterion(6, "labeled_iso agrees with the closed form", 300.0):
        for m in range(65):
            for n in range(m, 65):
                found = iso.labeled_iso(cached_graph(m), cached_graph(n)) is not None
                assert found == iso.iso_closed_form(m, n), (m, n)
        for m in range(0, 129, 2):
            for n in range(m + 2, 129, 2):
                assert iso.labeled_iso(cached_graph(m), cached_graph(n)) is None, (m, n)


def test_criterion_7_checking_path_fixtures():
    with criterion(7, "checking-path fixtures"):
        pg = cached_embed(10)
        g = pg.graph

        def arc(t, h):
            return g.arc(g.index[t], g.index[h])

        assert blocks.is_checking_path(pg, [arc("122", "202"), arc("202", "1002")])
        assert blocks.is_checking_path(pg, [arc("122", "202"), arc("202", "210")])
        for t in range(1, 7):
            pgt = cached_embed(2**t)
            (e1,) = pgt.graph.out_arcs(pgt.graph.source)
            paths = blocks.maximal_checking_paths_from(pgt, e1)
            assert len(paths) == 1, t
            assert len(paths[0]) == t, t


def test_criterion_8_algorithm1_instrumentation():
    with criterion(8, "Algorithm-1 value and expensive-step count at 42"):
        assert stern.b_algorithm1(42) == (13, 3)


def test_criterion_9_c_matrix_convention():
    with criterion(9, "frozen c-matrix convention matches b(n-1), n <= 4096", 5.0):
        for n in range(1, 4097):
            assert stern.c_matrix(n) == stern.b_recursive(n - 1), n


def test_criterion_10_a10_automorphism():
    with criterion(10, "A(10) automorphism verifies"):
        g = cached_graph(10)
        witness = iso.a10_automorphism()
        assert iso.verify_witness(g, g, witness)
        idx = g.index
        assert witness.mapping[idx["210"]] == idx["1002"]
        assert witness.mapping[idx["1002"]] == idx["210"]
        for w in ("122", "202", "1010"):
            assert witness.mapping[idx[w]] == idx[w]


def test_criterion_11_performance_sanity():
    with criterion(11, "4096-bit evaluations under 100 ms each"):
        rng = random.Random(20260823)
        for fn in (stern.b_matrix_blocks, lambda n: stern.b_algorithm1(n)[0]):
            n = rng.getrandbits(4096) | (1 << 4095)
            start = time.perf_counter()
            fn(n)
            elapsed = time.perf_counter() - start
            assert elapsed < 0.1, elapsed
