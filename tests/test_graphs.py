import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    single_step_reductions,
)
from hbgraphs.blocks import embed
from hbgraphs.graphs import (
    DEFAULT_LIMIT,
    Label,
    SizeLimitError,
    _graph,
    _stream,
    _walk,
    build_graph,
    counts,
    descendants_subgraph,
    enumerate_expansions,
    export_chunks,
    export_dot,
    export_json,
)
from hbgraphs.iso import labeled_iso, verify_witness
from hbgraphs.stern import b_matrix
from hbgraphs.words import decompose, minimal_expansion, weight


def arcs_as_words(g):
    return [(g.vertices[a.tail], g.vertices[a.head], a.label) for a in g.arcs]


def test_single_step_reductions_examples():
    assert single_step_reductions("122") == [("202", Label.DOUBLE, 0)]
    assert single_step_reductions("202") == [
        ("1002", Label.SINGLE, 0),
        ("210", Label.SINGLE, 1),
    ]
    assert single_step_reductions("") == []


def test_single_step_reductions_rejects_leading_zero():
    with pytest.raises(ValueError):
        single_step_reductions("012")


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
    # a subgraph of a built graph is never refused, though the whole
    # graph is over 64 digits per vertex of its own vertex count
    g = build_graph(n, limit=632)
    assert descendants_subgraph(g, 0) == g


def test_build_graph_matches_arc_oracle():
    for n in range(2049):
        g = build_graph(n)
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
    assert g0.arcs == ()
    g12 = cached_graph(12)
    assert set(g12.vertices) == {"212", "1012", "220", "1020", "1100"}
    assert len(g12.arcs) == 5


def test_counts():
    assert counts(cached_graph(10)) == (5, 5, 1)
    assert counts(cached_graph(0)) == (1, 0, 0)
    assert counts(cached_graph(18))[2] == 2


def test_descendants_subgraph():
    g = cached_graph(10)
    sub = descendants_subgraph(g, g.sink)
    assert sub.vertices == ("1010",)
    sub = descendants_subgraph(g, g.index["202"])
    assert set(sub.vertices) == {"202", "210", "1002", "1010"}
    assert len(sub.arcs) == 4
    whole = descendants_subgraph(g, g.source)
    assert whole.vertices == g.vertices
    assert whole.arcs == g.arcs
    for start in (99, -1):
        with pytest.raises(ValueError, match="unknown vertex id"):
            descendants_subgraph(g, start)


def test_descendants_subgraph_matches_oracle():
    for n in range(201):
        g = cached_graph(n)
        for v in range(len(g.vertices)):
            sub, expected = descendants_subgraph(g, v), oracle_descendants(g, v)
            assert sub.vertices == expected.vertices, (n, v)
            assert sub.arcs == expected.arcs, (n, v)
            assert (sub.source, sub.sink) == (expected.source, expected.sink), (n, v)


def check_adjacency(g):
    """Rows against a filter of ``g.arcs``; ``arc`` against every arc and some non-arcs.

    Also the id order: every arc has tail < head, the source is 0 and the sink b - 1.
    On at most 64 vertices, ``find`` on every ordered pair against a scan of the
    columns: a miss must not stray into a neighbour's run of heads.
    """
    assert (g.source, g.sink) == (0, len(g.vertices) - 1), g.n
    if len(g.vertices) <= 64:
        scan = {pair: i for i, pair in enumerate(zip(g.tails, g.heads))}
        for t in range(len(g.vertices)):
            for h in range(len(g.vertices)):
                assert g.find(t, h) == scan.get((t, h)), (g.n, t, h)
    for v in range(len(g.vertices)):
        assert g.out_arcs(v) == tuple(a for a in g.arcs if a.tail == v), (g.n, v)
        assert g.in_arcs(v) == tuple(a for a in g.arcs if a.head == v), (g.n, v)
        assert g.arc(v, v) is None, (g.n, v)
    for a in g.arcs:
        assert a.tail < a.head, (g.n, a)
        assert g.arc(a.tail, a.head) is a, (g.n, a)
        assert g.arc(a.head, a.tail) is None, (g.n, a)


def test_adjacency_rejects_unknown_vertex_ids():
    g = build_graph(10)
    b = len(g.vertices)
    for v in (-1, -2, b):
        for lookup in (g.out_arcs, g.in_arcs, lambda v: g.arc(v, 0), lambda v: g.arc(0, v)):
            with pytest.raises(ValueError, match="unknown vertex id"):
                lookup(v)
    with pytest.raises(ValueError, match="unknown vertex id"):
        g.arc(-2, 4)


def test_library_paths_build_no_arc_objects():
    """Only ``arcs``, ``out_arcs``, ``in_arcs`` and ``arc`` make ``Arc`` objects."""
    pg = embed(2708)
    g1, g2 = build_graph(2708), build_graph(5417)
    export_json(pg.graph)
    export_dot(pg.graph)
    export_dot(pg.graph, pg.place)
    witness = labeled_iso(g1, g2)
    assert witness is not None and verify_witness(g1, g2, witness)
    assert labeled_iso(g1, build_graph(3434)) is None
    assert counts(g1) == counts(pg.graph)
    descendants_subgraph(g1, 1)
    for g in (pg.graph, g1, g2):
        assert "arcs" not in g.__dict__


def test_adjacency_matches_arcs():
    for n in range(2049):
        check_adjacency(build_graph(n))


def test_adjacency_of_descendant_subgraphs():
    for n in range(201):
        g = cached_graph(n)
        for v in range(len(g.vertices)):
            check_adjacency(descendants_subgraph(g, v))


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
        g = build_graph(n)
        assert export_json(g) == oracle_export_json(g), n
        assert export_dot(g) == oracle_export_dot(g), n


def test_export_chunks_join_to_the_exports():
    for n in range(2049):
        g = cached_graph(n)
        dot, text = export_dot(g), export_json(g)
        for size in (1, 1 + n % 97):
            assert "".join(export_chunks(g, "json", size=size)) == text, (n, size)
            assert "".join(export_chunks(g, "dot", size=size)) == dot, (n, size)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_export_chunks_of_an_arcless_graph(n):
    g = cached_graph(n)
    assert not g.tails
    for size in (0, 1, 4096):
        assert list(export_chunks(g, "json", size=size)) == [export_json(g)], (n, size)
        assert list(export_chunks(g, "dot", size=size)) == [export_dot(g)], (n, size)


def test_export_chunks_at_one_chunk_boundary():
    g = cached_graph(2708)
    count = len(g.tails)  # 644
    for fmt, whole in (("json", export_json(g)), ("dot", export_dot(g))):
        assert list(export_chunks(g, fmt)) == [whole], fmt
        for size, chunks in ((count + 1, 1), (count, 1), (count - 1, 2), (count // 2, 2),
                             (count // 2 - 1, 3)):
            got = list(export_chunks(g, fmt, size=size))
            assert len(got) == chunks and "".join(got) == whole, (fmt, size)
        # a boundary splits the text between whole arcs: the second chunk starts with one
        first, second = export_chunks(g, fmt, size=count - 1)
        assert second.startswith(',{"tail":' if fmt == "json" else '  "'), fmt
        assert first.endswith("}" if fmt == "json" else ";\n"), fmt


@given(st.integers(0, 2048))
@settings(max_examples=60, deadline=None)
def test_matches_oracle_and_graded(n):
    g = cached_graph(n)
    assert g.vertices == oracle_expansions(n)
    for a in g.arcs:
        assert weight(g.vertices[a.tail]) - weight(g.vertices[a.head]) == 1


@given(st.integers(0, 2048))
@settings(max_examples=60, deadline=None)
def test_unique_source_and_sink(n):
    g = cached_graph(n)
    sources = [v for v in range(len(g.vertices)) if not g.in_arcs(v)]
    sinks = [v for v in range(len(g.vertices)) if not g.out_arcs(v)]
    assert sources == [g.source]
    assert sinks == [g.sink]


@given(st.integers(0, 2048))
@settings(max_examples=60, deadline=None)
def test_every_vertex_on_source_sink_path(n):
    g = cached_graph(n)
    # reachable from source
    assert set(descendants_subgraph(g, g.source).vertices) == set(g.vertices)
    # sink reachable from every vertex
    for v in range(len(g.vertices)):
        assert g.vertices[g.sink] in descendants_subgraph(g, v).vertices


@given(st.integers(0, 512))
@settings(max_examples=60, deadline=None)
def test_branching_iff_cyclomatic(n):
    g = cached_graph(n)
    _, _, v_count = counts(g)
    branching = any(len(g.out_arcs(v)) >= 2 for v in range(len(g.vertices)))
    assert branching == (v_count >= 1)


def assert_generated_matches_closure(n, starts):
    """A(n), H(n), the descendants of ``starts`` and (n even) the embedding, against the oracles."""
    g = build_graph(n)
    b = len(g.vertices)
    assert g == oracle_closure_graph(n, minimal_expansion(n), b), n
    assert enumerate_expansions(n) == list(g.vertices), n
    for v in starts:
        assert descendants_subgraph(g, v) == oracle_closure_graph(n, g.vertices[v], b), (n, v)
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
    .filter(lambda n: b_matrix(n) <= 3000),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_generator_matches_closure_oracle(n, data):
    b = b_matrix(n)
    starts = data.draw(st.lists(st.integers(0, b - 1), min_size=1, max_size=3))
    assert_generated_matches_closure(n, starts + [0, b - 1])


def test_generator_matches_closure_oracle_at_b_10946():
    assert b_matrix(699050) == 10946
    assert_generated_matches_closure(699050, [1, 5000, 10945])


def pieces_at_every_cut(n):
    """``_walk``'s pieces of A(n) with the blocks cut after none, then after each in turn."""
    blocks, _ = decompose(minimal_expansion(n))
    return [_walk(n, DEFAULT_LIMIT, cut) for cut in range(len(blocks) + 1)]


# A(7378268) has b = 15 368 and its default cut after block 2; 87381 is odd: words end in 1
@pytest.mark.parametrize("ns", [range(2**11), [7378268, 87381]], ids=["below_2^11", "larger"])
def test_pieces_at_every_cut_match_the_closure_oracle(ns):
    for n in ns:
        expected = oracle_closure_graph(n, minimal_expansion(n), DEFAULT_LIMIT)
        for cut, pieces in enumerate(pieces_at_every_cut(n)):
            g, places = _graph(n, pieces)
            assert g == expected, (n, cut)  # the words and the four arc columns
            places = tuple(places)
            if cut == 0:
                first = places
            assert places == first, (n, cut)
        assert enumerate_expansions(n) == list(expected.vertices), n


def test_stream_writes_the_exports_at_one_cut_per_n():
    # the cuts go round with n, so each of 0..k comes up; so do the formats and, every third
    # n, chunks of 3 arcs, whose boundaries fall inside shares
    for n in range(2**11):
        g, every = build_graph(n), pieces_at_every_cut(n)
        cut, fmt, size = n % len(every), ("dot", "json")[n % 2], 3 if n % 3 == 0 else 4096
        whole = export_dot(g) if fmt == "dot" else export_json(g)
        assert "".join(_stream(n, every[cut], fmt, size)) == whole, (n, cut, fmt)


@pytest.mark.parametrize("n", [7378268, 87381])
def test_stream_at_every_cut_writes_the_exports(n):
    g = build_graph(n)
    whole = (export_dot(g), export_json(g))
    for cut, pieces in enumerate(pieces_at_every_cut(n)):
        fmt = ("dot", "json")[cut % 2]
        assert "".join(_stream(n, pieces, fmt, 4096)) == whole[cut % 2], (n, cut, fmt)
