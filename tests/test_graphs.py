import random
import re
import tracemalloc
from collections.abc import Sequence
from contextlib import contextmanager
from itertools import pairwise, product, starmap
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import checks
import oracles
from conftest import (
    cached_graph,
    oracle_arcs,
    oracle_closure_graph,
    oracle_descendants,
    oracle_expansions,
    oracle_export_dot,
    oracle_export_json,
    oracle_factors,
    oracle_places,
)
from hbgraphs import graphs, structure
from hbgraphs.blocks import embed, place_preserving_map
from hbgraphs.graphs import (
    Arc,
    HbGraph,
    build_graph,
    counts,
    enumerate_expansions,
    export_dot,
    export_json,
    export_stream,
    graph_from_pieces,
)
from hbgraphs.iso import labeled_iso, verify_witness
from hbgraphs.stern import b_matrix, b_recursive
from hbgraphs.structure import (DEFAULT_LIMIT, Label, SizeLimitError, block_transfer, count_tuples,
                                suffix_counts, walk)
from hbgraphs.words import decompose, minimal_expansion


def arcs_as_words(g):
    return [(g.vertices[a.tail], g.vertices[a.head], a.label) for a in g.arcs]


def test_single_step_reductions_examples():
    assert oracles.reductions("122") == [("202", Label.DOUBLE, 0)]
    assert oracles.reductions("202") == [
        ("1002", Label.SINGLE, 0),
        ("210", Label.SINGLE, 1),
    ]
    assert oracles.reductions("") == []


def test_enumerate_examples():
    assert enumerate_expansions(10) == ["122", "202", "210", "1002", "1010"]
    assert enumerate_expansions(0) == [""]
    assert enumerate_expansions(4) == ["12", "20", "100"]


def test_enumerate_limit():
    with pytest.raises(SizeLimitError):
        enumerate_expansions(42, limit=5)


def test_limit_counts_the_first_vertex():
    for build in (build_graph, enumerate_expansions):
        for n in (0, 1, 7):  # one vertex, and no block to count it
            with pytest.raises(SizeLimitError, match="exceeds limit"):
                build(n, limit=0)
    assert build_graph(7, limit=1).vertices == ("111",)
    assert enumerate_expansions(7, limit=1) == ["111"]


def test_digit_bound_of_the_limit():
    # n = 2^200: 201 expansions of up to 201 digits, 40401 digits in all
    n = 2**200
    assert len(build_graph(n, limit=632).vertices) == 201  # 64 * 632 = 40448 digits
    for build in (build_graph, enumerate_expansions):
        with pytest.raises(SizeLimitError, match="digits"):
            build(n, limit=631)  # 64 * 631 = 40384 digits


def test_digit_bound_holds_at_equality():
    # 2^64 - 1 has one expansion, its 64 digits: exactly 64 * limit 1, so it is accepted
    n = 2**64 - 1
    assert suffix_counts(n, 1)[2][0] == (1, 1)
    assert build_graph(n, limit=1).vertices == ("1" * 64,)
    for build in (suffix_counts, build_graph):
        with pytest.raises(SizeLimitError, match="1 words of up to 65 digits"):
            build(2 * n + 1, 1)  # 65 digits


def test_tuple_count_is_b():
    # the DP over the admissibility table against the words it never makes, and the recursion
    for n in range(1 << 12):
        assert count_tuples(n) == len(enumerate_expansions(n)) == b_recursive(n), n
    rng = random.Random("tuples")
    for bits in (64, 65, 511, 1000, 4096):
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        assert count_tuples(n) == b_matrix(n), bits


def test_build_graph_matches_arc_oracle():
    for n in range(2049):
        g = cached_graph(n)
        assert g.vertices == oracle_expansions(n), n
        assert list(g.arcs) == oracle_arcs(n), n
        # every reduction makes its word shortlex-greater: ids are a topological order
        assert all(a.tail < a.head for a in g.arcs), n


@pytest.mark.parametrize("n", [2, 10, 42, 1000, 2708])
def test_build_graph_limit_edge(n):
    b = b_matrix(n)
    assert len(build_graph(n, limit=b).vertices) == b
    assert enumerate_expansions(n, limit=b) == list(oracle_expansions(n))
    with pytest.raises(SizeLimitError):
        build_graph(n, limit=b - 1)
    with pytest.raises(SizeLimitError):
        enumerate_expansions(n, limit=b - 1)


def test_build_graph_a10():
    g = cached_graph(10)
    assert g.vertices == ("122", "202", "210", "1002", "1010")
    assert sorted(arcs_as_words(g)) == sorted(
        [
            ("122", "202", Label.DOUBLE),
            ("202", "1002", Label.SINGLE),
            ("202", "210", Label.SINGLE),
            ("210", "1010", Label.SINGLE),
            ("1002", "1010", Label.SINGLE),
        ]
    )
    assert g.vertices[g.source] == "122"
    assert g.vertices[g.sink] == "1010"


def test_build_graph_a0_a12():
    g0 = cached_graph(0)
    assert g0.vertices == ("",)
    assert tuple(g0.arcs) == ()  # a view, which equals no tuple
    g12 = cached_graph(12)
    assert set(g12.vertices) == {"212", "1012", "220", "1020", "1100"}
    assert len(g12.arcs) == 5


def test_counts():
    assert counts(cached_graph(10)) == (5, 5, 1)
    assert counts(cached_graph(0)) == (1, 0, 0)
    assert counts(cached_graph(18))[2] == 2


def check_adjacency(g):
    """Rows against ``g.arcs`` bucketed by tail; ``arc`` against arcs and non-arcs.

    Also the id order: every arc has 0 <= tail < head < b, the source is 0 and the sink b - 1.
    On at most 64 vertices, ``find`` on every ordered pair against a scan of the
    columns: a miss must not stray into a neighbour's run of heads.
    """
    b = len(g.vertices)
    assert (g.source, g.sink) == (0, b - 1), g.n
    if b <= 64:
        scan = {pair: i for i, pair in enumerate(zip(g.tails, g.heads))}
        pairs = list(product(range(b), repeat=2))
        assert list(starmap(g.find, pairs)) == list(map(scan.get, pairs)), g.n
    arcs = tuple(g.arcs)  # one read of the view
    outs = [[] for _ in range(b)]  # in arc order, one pass
    for a in arcs:
        assert 0 <= a.tail < a.head < b, (g.n, a)
        outs[a.tail].append(a)
    for v in range(b):
        assert g.out_arcs(v) == tuple(outs[v]), (g.n, v)
        assert g.arc(v, v) is None, (g.n, v)
    for a in arcs:
        assert g.arc(a.tail, a.head) == a, (g.n, a)  # each read makes its own Arc
        assert g.arc(a.head, a.tail) is None, (g.n, a)


def test_adjacency_rejects_unknown_vertex_ids():
    g = build_graph(10)
    b = len(g.vertices)
    for v in (-1, -2, b):
        for lookup in (g.out_arcs, lambda v: g.arc(v, 0), lambda v: g.arc(0, v)):
            with pytest.raises(ValueError, match="unknown vertex id"):
                lookup(v)
    with pytest.raises(ValueError, match="unknown vertex id"):
        g.arc(-2, 4)


@contextmanager
def arcs_made():
    """A list that gains an entry for each ``Arc`` made in the block, by any caller: through
    ``Arc.__new__``, or through ``graphs._arc``, the C-level ``tuple.__new__`` the view uses."""
    made, new, make = [], Arc.__new__, graphs._arc

    def counted(cls, *fields):
        made.append(fields)
        return new(cls, *fields)

    def counted_make(fields):
        made.append(tuple(fields))
        return make(fields)

    with patch.object(Arc, "__new__", counted), patch.object(graphs, "_arc", counted_make):
        yield made


def test_library_paths_build_no_arc_objects():
    """Only ``arcs``, ``out_arcs`` and ``arc`` make ``Arc`` objects, and only those they return."""
    g1, g2, g3 = build_graph(2708), build_graph(5417), build_graph(3434)
    with arcs_made() as made:
        pg = embed(2708)
        export_json(pg.graph)
        export_dot(pg.graph)
        export_dot(pg.graph, pg.place)
        witness, refused = labeled_iso(g1, g2), labeled_iso(g1, g3)
        assert counts(g1) == counts(pg.graph)
    assert made == []
    assert witness is not None and verify_witness(g1, g2, witness) and refused is None
    with arcs_made() as made:  # the count sees what the view makes
        arcs = pg.graph.arcs
        read = [arcs[0], *arcs[3:9], *pg.graph.out_arcs(1), pg.graph.arc(0, 1), *arcs]
    assert made == list(map(tuple, read))


def test_arc_lookup_by_value_makes_at_most_one_arc():
    # ``in`` and ``index`` find an arc by its ends, not by a scan that makes an Arc per arc
    g = cached_graph(2708)
    arcs = g.arcs
    real = arcs[300]
    cases = {"arc": (real, True), "tuple": (tuple(real), True),
             "other label": (real._replace(label=Label.DOUBLE if real.label == Label.SINGLE
                                           else Label.SINGLE), False),
             "other position": (real._replace(position=real.position + 1), False),
             "no such ends": ((real.head, real.tail, real.label, real.position), False),
             "tail out of range": ((len(g.vertices), 0, Label.SINGLE, 0), False),
             "three fields": (tuple(real)[:3], False), "a string": ("abcd", False),
             "None": (None, False)}
    for name, (arc, present) in cases.items():
        with arcs_made() as made:
            assert (arc in arcs) == present, name
        assert len(made) <= 1, name
        with arcs_made() as made:
            if present:
                assert arcs.index(arc) == 300, name
            else:
                with pytest.raises(ValueError, match="unknown arc"):
                    arcs.index(arc)
        assert len(made) <= 1, name


def test_a_graph_with_no_vertex_is_refused():
    # its sink would be -1, and the DOT and JSON exports would disagree on its vertices
    with pytest.raises(ValueError, match="at least one vertex"):
        HbGraph(0, (), (), (), (), ())


def test_arcs_is_a_sequence_view_over_the_columns():
    g = cached_graph(2708)
    arcs, columns = g.arcs, (g.tails, g.heads, g.labels, g.positions)
    assert isinstance(arcs, Sequence) and len(arcs) == len(g.tails) == 644
    assert tuple(arcs) == tuple(map(Arc, *columns))
    assert {type(a) for a in (*arcs, arcs[0], *arcs[5:9], *g.out_arcs(3), g.arc(0, 1))} == {Arc}
    for i in (0, 17, -1, -len(arcs)):
        assert arcs[i] == Arc(*(c[i] for c in columns)), i
    for cut in (slice(5, 9), slice(None, 3), slice(-4, None), slice(1, 30, 7), slice(9, 5)):
        assert arcs[cut] == tuple(arcs)[cut], cut
    with pytest.raises(IndexError):
        arcs[len(arcs)]
    assert arcs[5] in arcs and arcs.index(arcs[5]) == 5
    assert g.arcs is not arcs and "arcs" not in vars(g)  # nothing is kept


def test_arc_reads_at_b_32119_allocate_per_degree():
    # after one warm find (out_offsets), each read makes only what it returns: O(degree)
    # bytes, under 8 KiB at degree 9, where one Arc per arc of A(n) would hold megabytes
    n = 20003988
    pg = embed(n)
    g = pg.graph
    assert (len(g.vertices), len(g.tails)) == (32119, 183553)
    assert g.find(0, 1) is not None
    off = g.out_offsets
    v = max(range(len(g.vertices)), key=lambda v: off[v + 1] - off[v])
    i, j = off[v], off[v + 1]
    kept, got = (dict(vars(g)), dict(vars(pg))), {}
    reads = {"out_arcs": lambda: g.out_arcs(v), "arc": lambda: g.arc(v, g.heads[j - 1]),
             "arcs[i]": lambda: g.arcs[i], "arcs[i:j]": lambda: g.arcs[i:j],
             "place_preserving_map": lambda: place_preserving_map(pg, got["arcs[i]"])}
    tracemalloc.start()
    try:
        for name, read in reads.items():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            got[name] = read()
            assert tracemalloc.get_traced_memory()[1] - base < 8192, name
    finally:
        tracemalloc.stop()
    assert (vars(g), vars(pg)) == kept  # the graph gained no attribute
    assert [len(got[k]) for k in ("out_arcs", "arcs[i:j]", "place_preserving_map")] == [9, 9, 8]
    assert got["arc"] == got["out_arcs"][-1] and got["arcs[i]"] == got["arcs[i:j]"][0]


def test_adjacency_matches_arcs():
    for n in range(2049):
        check_adjacency(cached_graph(n))


def test_adjacency_of_descendant_subgraphs():
    for n in range(201):
        g = cached_graph(n)
        for v in range(len(g.vertices)):
            check_adjacency(oracle_descendants(g, v))


def test_export_dot():
    assert export_dot(cached_graph(0)) == 'digraph A0 {\n  "ε";\n}\n'
    dot2 = export_dot(cached_graph(2))
    assert '"2" -> "10" [label="s"]' in dot2
    dot10 = export_dot(cached_graph(10))
    assert dot10.count('label="d"') == 1
    assert dot10.count("->") == 5
    # deterministic
    assert dot10 == export_dot(build_graph(10))


def test_export_json():
    text = export_json(cached_graph(2))
    assert text == (
        '{"n":2,"vertices":["2","10"],'
        '"arcs":[{"tail":0,"head":1,"label":"single","position":0}]}'
    )


def test_exports_match_oracles():
    for n in range(2049):
        g = cached_graph(n)
        assert export_json(g) == oracle_export_json(g), n
        assert export_dot(g) == oracle_export_dot(g), n


@pytest.mark.parametrize("n", [0, 1, 3])
def test_export_chunks_of_an_arcless_graph(n):
    g = cached_graph(n)
    assert not g.tails
    assert list(export_stream(n, "json")) == [export_json(g)], n
    assert list(export_stream(n, "dot")) == [export_dot(g)], n


def stream_chunks(pieces):
    """The chunks ``export_stream`` writes for these pieces: each prefix's words but the last,
    then the last words and the first share's arcs, then each other share's arcs, a share for
    each slice of at most 256 of a prefix's m completions: P + sum of ceil(m / 256) - 1."""
    prefixes, templates, _ = pieces
    return len(prefixes) - 1 + sum(-(-len(templates[e][0]) // 256) for _, e, _ in prefixes)


# b = 1, 208, 987 and 15 368: P = 1 (c = 0, one template), and P = 16 (cut after block 2 of 9)
@pytest.mark.parametrize(("n", "prefixes"), [(0, 1), (2708, 1), (21844, 1), (7378268, 16)])
def test_export_stream_writes_a_chunk_per_prefix_and_share(n, prefixes):
    pieces = walk(n, DEFAULT_LIMIT)
    chunks = {0: 1, 2708: 1, 21844: 4, 7378268: 76}[n]
    assert (len(pieces.prefixes), stream_chunks(pieces)) == (prefixes, chunks)
    g = build_graph(n)
    for fmt, whole in (("json", export_json(g)), ("dot", export_dot(g))):
        got = list(export_stream(n, fmt))
        assert (len(got), "".join(got)) == (chunks, whole), (n, fmt)


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_no_stream_chunk_has_arcs_of_more_than_256_tails(fmt):
    # A(7378268)'s templates have up to 1 024 completions; a share takes at most 256 of them
    tail = re.compile(r'^  "([^"]*)" ->' if fmt == "dot" else r'"tail":(\d+)', re.M)
    tails = [len(set(tail.findall(chunk))) for chunk in export_stream(7378268, fmt)]
    assert len(tails) == 76 and max(tails) == 256 and sum(tails) == 15368 - 1  # all but the sink


def test_stream_peak_does_not_grow_with_the_template():
    # consumed a chunk at a time, A(7378268), b = 15 368, holds walk's pieces and one share;
    # a share of a whole template of 1 024 completions took 1.46 MB
    whole = len(export_json(build_graph(7378268)))
    tracemalloc.start()
    try:
        assert sum(map(len, export_stream(7378268, "json"))) == whole
        assert tracemalloc.get_traced_memory()[1] < 1.1e6
    finally:
        tracemalloc.stop()


def test_build_and_embed_read_the_steps_once_and_the_stream_not_at_all():
    # A(7378268) has 16 prefixes, so each read of the steps joins every vertex's prefix steps
    # to its template steps; build_graph and embed did that five times
    reads = []

    def counted(pieces, k):
        reads.append(k)
        return structure.column(pieces, k)

    assert len(walk(7378268, DEFAULT_LIMIT).prefixes) == 16
    with patch.object(graphs, "column", counted):
        for make in (build_graph, embed):
            reads.clear()
            make(7378268)
            assert reads.count(1) == 1, make
        reads.clear()
        assert sum(map(len, export_stream(7378268, "dot"))) > 0 and reads == []


def test_build_peaks_at_most_16_bytes_per_arc_above_the_graph_it_keeps():
    # A(7378268), a = 81 855: the columns are read off one list of references to walk's steps,
    # 8 B per arc, dropped before build_graph returns; a second list per arc would pass 16 B
    tracemalloc.start()
    try:
        g = build_graph(7378268)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.tails) == 81855 and peak - kept <= 16 * len(g.tails)


@given(st.integers(0, 2048))
@settings(max_examples=60, deadline=None)
def test_matches_oracle_and_graded(n):
    g = cached_graph(n)
    assert g.vertices == oracle_expansions(n)
    for a in g.arcs:
        assert sum(map(int, g.vertices[a.tail])) - sum(map(int, g.vertices[a.head])) == 1


@given(st.integers(0, 2048))
@settings(max_examples=60, deadline=None)
def test_unique_source_and_sink(n):
    g = cached_graph(n)
    sources = sorted(set(range(len(g.vertices))) - set(g.heads))
    sinks = sorted(set(range(len(g.vertices))) - set(g.tails))
    assert sources == [g.source]
    assert sinks == [g.sink]


@given(st.integers(0, 2048))
@settings(max_examples=60, deadline=None)
def test_every_vertex_on_source_sink_path(n):
    g = cached_graph(n)
    # reachable from source
    assert set(oracle_descendants(g, g.source).vertices) == set(g.vertices)
    # sink reachable from every vertex
    for v in range(len(g.vertices)):
        assert g.vertices[g.sink] in oracle_descendants(g, v).vertices


@given(st.integers(0, 512))
@settings(max_examples=60, deadline=None)
def test_branching_iff_cyclomatic(n):
    g = cached_graph(n)
    _, _, v_count = counts(g)
    branching = any(len(g.out_arcs(v)) >= 2 for v in range(len(g.vertices)))
    assert branching == (v_count >= 1)


def assert_generated_matches_closure(n):
    """A(n), H(n) and (n even) the embedding, against the oracles."""
    g = build_graph(n)
    assert g == oracle_closure_graph(n, minimal_expansion(n), len(g.vertices)), n
    assert enumerate_expansions(n) == list(g.vertices), n
    if n % 2 == 0:
        pg = embed(n)
        assert pg.graph == g, n
        blocks = pg.blocks
        assert pg.factors == tuple(oracle_factors(w, blocks) for w in g.vertices), n
        assert pg.place == oracle_places(pg), n


def n_from_runs(runs):
    """The number of at most 40 bits whose binary digits are runs of 1s and 0s of these lengths."""
    return int("".join(str(1 - i % 2) * r for i, r in enumerate(runs))[:40], 2)


@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=10)
    .map(n_from_runs)
    .filter(lambda n: b_matrix(n) <= 3000)
)
@settings(max_examples=60, deadline=None)
def test_generator_matches_closure_oracle(n):
    assert_generated_matches_closure(n)


def test_generator_matches_closure_oracle_at_b_10946():
    assert b_matrix(699050) == 10946
    assert_generated_matches_closure(699050)


def test_certificate_at_b_32119():
    # checks.graph certifies one build as A(n): b(n) distinct shortlex expansions of n and a(n)
    # distinct legal reductions among them, b and a from hbbench's oracles; the embedding and
    # the streamed JSON are then tied to that graph.  9 blocks, 117 prefixes at the default cut
    n = 20003988
    assert (b_matrix(n), len(walk(n, DEFAULT_LIMIT).prefixes)) == (32119, 117)
    g = build_graph(n)
    arcs = list(zip(g.tails, g.heads, g.labels, g.positions))
    assert checks.graph(n, g.vertices, arcs, g.source, g.sink) is None
    pg = embed(n)
    assert (pg.graph, len(pg.blocks)) == (g, 9)
    assert checks.places(n, pg.place.column) is None
    assert checks.json_export(n, "".join(export_stream(n, "json")), g.vertices, arcs) is None


def cut_after(n, c):
    """A patch of ``TEMPLATE_SIZE`` to the completions after block c of n, so ``walk`` cuts
    A(n) after block c: no block lowers that count, and each one raises it."""
    blocks, _ = decompose(minimal_expansion(n))
    return patch.object(structure, "TEMPLATE_SIZE", block_transfer("".join(blocks[c:]), 1, 1)[0])


def pieces_at_every_cut(n):
    """``walk``'s pieces of A(n) with the blocks cut after none, then after each in turn."""
    every = []
    for c in range(len(decompose(minimal_expansion(n))[0]) + 1):
        with cut_after(n, c):
            every.append(walk(n, DEFAULT_LIMIT))
    assert all(len(p.prefixes) < len(q.prefixes) for p, q in pairwise(every)), n  # distinct cuts
    return every


# A(7378268) has b = 15 368 and its default cut after block 2; 87381 is odd: words end in 1
@pytest.mark.parametrize("ns", [range(2**11), [7378268, 87381]], ids=["below_2^11", "larger"])
def test_pieces_at_every_cut_match_the_closure_oracle(ns):
    for n in ns:
        expected = oracle_closure_graph(n, minimal_expansion(n), DEFAULT_LIMIT)
        for cut, pieces in enumerate(pieces_at_every_cut(n)):
            g, places = graph_from_pieces(n, pieces)
            assert g == expected, (n, cut)  # the words and the four arc columns
            places = tuple(places)
            if cut == 0:
                first = places
            assert places == first, (n, cut)
        assert enumerate_expansions(n) == list(expected.vertices), n


def test_stream_writes_the_exports_at_one_cut_per_n():
    # the cuts go round with n, so each of 0..k comes up; so do the formats
    for n in range(2**11):
        g, fmt = cached_graph(n), ("dot", "json")[n % 2]
        cut = n % (len(decompose(minimal_expansion(n))[0]) + 1)
        whole = export_dot(g) if fmt == "dot" else export_json(g)
        with cut_after(n, cut):
            assert "".join(export_stream(n, fmt)) == whole, (n, cut, fmt)


@pytest.mark.parametrize("n", [7378268, 87381])
def test_stream_at_every_cut_writes_the_exports(n):
    g = build_graph(n)
    whole = (export_dot(g), export_json(g))
    for cut, pieces in enumerate(pieces_at_every_cut(n)):
        fmt = ("dot", "json")[cut % 2]
        with cut_after(n, cut):
            chunks = list(export_stream(n, fmt))
        assert len(chunks) == stream_chunks(pieces), (n, cut)  # the stream cut there too
        assert "".join(chunks) == whole[cut % 2], (n, cut, fmt)
