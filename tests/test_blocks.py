import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    cached_embed,
    cached_graph,
    oracle_arcs,
    oracle_closure_graph,
    oracle_decompose,
    oracle_expansions,
    oracle_export_dot,
    oracle_factors,
    oracle_maximal_checking_paths,
    oracle_places,
)
from hbgraphs.blocks import (
    PlacedGraph,
    embed,
    is_checking_path,
    maximal_checking_paths_from,
    place_preserving_map,
    place_preserving_through_path,
)
from hbgraphs.graphs import Arc, ArcColumn, HbGraph, build_graph, export_dot
from hbgraphs.iso import labeled_iso
from hbgraphs.stern import b_matrix
from hbgraphs.structure import Label
from hbgraphs.words import binary_expansion, decompose, minimal_expansion


def arc(g, tail, head):
    return g.arc(g.index[tail], g.index[head])


def path_order(g: HbGraph) -> list[int]:
    """Vertex ids of a directed path graph, from source to sink."""
    order = [g.source]
    while outs := g.out_arcs(order[-1]):
        (arc,) = outs
        order.append(arc.head)
    if len(order) != len(g.vertices):
        raise ValueError("graph is not a directed path")
    return order


def test_decompose_examples():
    assert decompose("12122") == (("12", "12", "2"), 0)
    assert decompose("1") == ((), 1)
    assert decompose("122") == (("12", "2"), 0)


def test_decompose_rejects_zero_digit():
    with pytest.raises(ValueError):
        decompose("102")


@given(st.integers(0, 10**5))
def test_decompose_roundtrip(n):
    w = minimal_expansion(n)
    blocks, ones = decompose(w)
    assert "".join(blocks) + "1" * ones == w
    assert (ones == 0) == (n % 2 == 0)
    for first, second in zip(blocks, blocks[1:]):
        assert not (first[0] == "2" and second[0] == "2")


def test_decompose_matches_scan_oracle():
    for n in range(2**15):
        w = minimal_expansion(n)
        words, ones = decompose(w)
        blocks = tuple((1, len(b) - 1) if b[0] == "1" else (2, len(b)) for b in words)
        assert (blocks, ones) == oracle_decompose(w), n


def test_block_path_graphs():
    g = build_graph(oracles.value("12"))
    order = path_order(g)
    assert [g.vertices[v] for v in order] == ["12", "20", "100"]
    labels = [g.arc(order[i], order[i + 1]).label for i in range(len(order) - 1)]
    assert labels == [Label.DOUBLE, Label.SINGLE]

    g = build_graph(oracles.value("2"))
    assert [g.vertices[v] for v in path_order(g)] == ["2", "10"]

    g = build_graph(oracles.value("222"))
    order = path_order(g)
    assert [g.vertices[v] for v in order] == ["222", "1022", "1102", "1110"]
    assert all(a.label == Label.SINGLE for a in g.arcs)


def test_block_path_graph_shape():
    for t in range(1, 6):
        g1 = build_graph(oracles.value("1" * t + "2"))
        chain = path_order(g1)
        assert len(chain) == t + 2
        labels = [g1.arc(chain[i], chain[i + 1]).label for i in range(t + 1)]
        assert labels == [Label.DOUBLE] * t + [Label.SINGLE]
        g2 = build_graph(oracles.value("2" * t))
        assert len(path_order(g2)) == t + 1
        assert all(a.label == Label.SINGLE for a in g2.arcs)


def test_embed_a10():
    pg = cached_embed(10)
    expected = {
        "122": ("12", "2"),
        "202": ("20", "2"),
        "1002": ("100", "2"),
        "210": ("20", "10"),
        "1010": ("100", "10"),
    }
    got = {w: pg.factors[i] for i, w in enumerate(pg.graph.vertices)}
    assert got == expected


def test_embed_edge_cases():
    pg = cached_embed(0)
    assert pg.blocks == ()
    assert pg.factors == ((),)
    pg20 = cached_embed(20)
    assert len(pg20.factors) == 8
    assert all(len(f) == 2 for f in pg20.factors)
    assert {oracles.value(f[0].rstrip("0")) for f in pg20.factors} <= {4, 2, 1}
    with pytest.raises(ValueError):
        embed(21)


def assert_embed_matches_oracle(n):
    pg = embed(n)
    blocks = pg.blocks
    assert pg.factors == tuple(oracle_factors(w, blocks) for w in pg.graph.vertices), n
    assert pg.place == oracle_places(pg), n
    assert export_dot(pg.graph, pg.place) == oracle_export_dot(pg.graph, pg.place), n


def test_embed_matches_split_oracle():
    for n in range(0, 1025, 2):
        assert_embed_matches_oracle(n)


@given(st.integers(2, 24).flatmap(lambda bits: st.integers(2 ** (bits - 2), 2 ** (bits - 1) - 1)))
@settings(max_examples=40, deadline=None)
def test_embed_matches_split_oracle_random(half):
    n = 2 * half
    assume(b_matrix(n) <= 2000)
    assert_embed_matches_oracle(n)


def test_place_takes_any_tuple_equal_to_an_arc():
    # an Arc equals, and hashes as, the plain tuple of its fields: the Mapping agrees
    pg = cached_embed(10)
    assert pg.place.column == bytes(oracle_places(pg).values())
    for e in pg.graph.arcs:
        key = tuple(e)
        assert type(key) is tuple and key == e
        assert key in pg.place and pg.place[key] == pg.place[e] == pg.place.get(key)
        assert pg.place[e] == dict(pg.place)[key]
    for key in ((0, 1), (0, 1, Label.DOUBLE, 0, 0), (0.5, 1, Label.DOUBLE, 0),
                ("0", 1, Label.DOUBLE, 0), (0, 1, Label.SINGLE, 0), "abcd", 5, None):
        assert key not in pg.place and pg.place.get(key) is None, key
        with pytest.raises(KeyError):
            pg.place[key]


def test_place_map_examples():
    pg = cached_embed(10)
    g = pg.graph
    assert pg.place[arc(g, "122", "202")] == 1
    assert pg.place[arc(g, "202", "210")] == 2
    assert pg.place[arc(g, "202", "1002")] == 1


def test_place_view():
    for n in (0, 10, 20, 2708):
        pg = embed(n)
        assert len(pg.place) == len(pg.graph.arcs), n
        assert dict(pg.place) == oracle_places(pg), n
        # a place must be the graph's own column: a dict, or another graph's, is refused
        for g, place in ((pg.graph, dict(pg.place)), (build_graph(n), pg.place)):
            with pytest.raises(ValueError, match="ArcColumn"):
                export_dot(g, place)
    pg = cached_embed(10)
    e = arc(pg.graph, "202", "1002")
    wrong = [e._replace(label=Label.DOUBLE), e._replace(position=1),
             Arc(e.tail, 99, e.label, e.position), Arc(-1, e.head, e.label, e.position)]
    for x in wrong:
        assert x not in pg.place, x
        with pytest.raises(KeyError):
            pg.place[x]
        with pytest.raises(ValueError, match="unknown arc"):
            place_preserving_map(pg, x)


def test_place_view_values():
    # ArcColumn keeps its column under its own name, so Mapping.values() still works
    for n in (0, 10, 2708):
        pg = embed(n)
        assert list(pg.place.values()) == [pg.place[a] for a in pg.graph.arcs], n


def test_factors_built_on_first_read():
    for n in (0, 10, 2708):
        pg = embed(n)
        assert "factors" not in vars(pg), n
        assert pg.factors == tuple(oracle_factors(w, pg.blocks) for w in pg.graph.vertices), n
        assert "factors" in vars(pg), n


def test_place_preserving_map_examples():
    pg = cached_embed(10)
    g = pg.graph
    m = place_preserving_map(pg, arc(g, "202", "1002"))
    assert m == {arc(g, "202", "210"): arc(g, "1002", "1010")}
    assert place_preserving_map(pg, arc(g, "122", "202")) == {}

    pg20 = cached_embed(20)
    g20 = pg20.graph
    m = place_preserving_map(pg20, arc(g20, "1212", "2012"))
    assert m[arc(g20, "1212", "1220")] == arc(g20, "2012", "2020")


def test_place_preserving_map_matches_place_oracle():
    # e_x maps to the one arc out of head(e) at e_x's place, places taken from word splits
    for n in range(0, 513, 2):
        pg = cached_embed(n)
        g, place = pg.graph, oracle_places(pg)
        for e in g.arcs:
            at = {place[a]: a for a in g.out_arcs(e.head)}
            assert len(at) == len(g.out_arcs(e.head)), (n, e)
            expected = {a: at[place[a]] for a in g.out_arcs(e.tail) if a != e}
            assert place_preserving_map(pg, e) == expected, (n, e)


@pytest.mark.parametrize("tails, heads, completions", [
    ((0, 0, 1), (2, 1, 3), 0),  # 2 has no out-arc, so no arc 2 -> 3
    ((0, 0, 1, 1, 2, 2), (2, 1, 4, 3, 4, 3), 2),  # 2 -> 4 and 2 -> 3 both close the square
])
def test_place_preserving_map_raises_without_one_completion(tails, heads, completions):
    # hand-built, not A-graphs: the square of 0 -> 1 and 0 -> 2 has no or two completions
    k = len(tails)
    g = HbGraph(0, tuple("abcde"[: max(heads) + 1]), tails, heads, (Label.SINGLE,) * k,
                tuple(range(k)))
    pg = PlacedGraph(g, (), ArcColumn(g, (1,) * k))
    message = re.escape(f"at {g.arc(0, 2)}: {completions} completions")
    with pytest.raises(AssertionError, match=message):
        place_preserving_map(pg, g.arc(0, 1))


def test_place_preserving_through_path():
    pg = cached_embed(10)
    g = pg.graph
    e1 = arc(g, "122", "202")
    e2 = arc(g, "202", "1002")
    ident = place_preserving_through_path(pg, [], start=g.source)
    assert ident == {e1: e1}
    single = place_preserving_through_path(pg, [e2])
    assert single == place_preserving_map(pg, e2)
    assert place_preserving_through_path(pg, [e1, e2]) == {}
    with pytest.raises(ValueError):
        place_preserving_through_path(pg, [e2, e1])
    with pytest.raises(ValueError):
        place_preserving_through_path(pg, [])
    for start in (-1, -5, len(g.vertices)):
        with pytest.raises(ValueError, match="unknown vertex id"):
            place_preserving_through_path(pg, [], start=start)


def test_checking_path_fixtures():
    pg = cached_embed(10)
    g = pg.graph
    e1 = arc(g, "122", "202")
    assert is_checking_path(pg, [e1, arc(g, "202", "1002")])
    assert is_checking_path(pg, [e1, arc(g, "202", "210")])
    for e in g.arcs:
        assert is_checking_path(pg, [e])
    # (202 -> 1002, 1002 -> 1010) fails: the second arc is the image of (202, 210)
    assert not is_checking_path(pg, [arc(g, "202", "1002"), arc(g, "1002", "1010")])


def test_maximal_checking_paths():
    pg = cached_embed(10)
    g = pg.graph
    e1 = arc(g, "122", "202")
    paths = maximal_checking_paths_from(pg, e1)
    tails = {tuple(g.vertices[a.head] for a in p) for p in paths}
    assert ("202", "1002") in tails
    assert ("202", "210") in tails

    pg2 = cached_embed(2)
    (e,) = pg2.graph.arcs
    assert maximal_checking_paths_from(pg2, e) == [(e,)]


def test_maximal_checking_path_source_run_lengths():
    # minimal expansion 1^{t-1}2 (n = 2^t): unique maximal path of length t;
    # t = 1500 is a path deeper than the default recursion limit
    for t in (*range(1, 7), 1500):
        pg = embed(2**t)
        (e1,) = pg.graph.out_arcs(pg.graph.source)
        paths = maximal_checking_paths_from(pg, e1)
        assert len(paths) == 1 and len(paths[0]) == t
    # minimal expansion 2^t (n = 2^{t+1} - 2): source arc labeled ->
    for t in range(1, 7):
        pg = cached_embed(2 ** (t + 1) - 2)
        (e1,) = pg.graph.out_arcs(pg.graph.source)
        assert e1.label == Label.SINGLE
        paths = maximal_checking_paths_from(pg, e1)
        assert len(paths) == 1 and len(paths[0]) == t


def test_maximal_checking_paths_from_every_arc_match_the_brute_force_oracle():
    # every arc of A(n) for even n <= 400, the arcs of the oracle read off words alone; about
    # half the arcs have an arc to prepend, so the in-arc scan decides both ways
    empty = 0
    for n in range(0, 401, 2):
        pg, arcs = cached_embed(n), oracle_arcs(n)
        for e in pg.graph.arcs:
            paths = maximal_checking_paths_from(pg, e)
            assert paths == oracle_maximal_checking_paths(arcs, e), (n, e)
            empty += not paths
    assert 4000 < empty < 5000


def test_maximal_checking_paths_constraints():
    pg = cached_embed(10)
    e1 = arc(pg.graph, "122", "202")
    paths = maximal_checking_paths_from(pg, e1)
    assert [p for p in paths if len(p) == 2 and p[0].label == Label.DOUBLE]
    assert [p for p in paths if p[-1].label == Label.DOUBLE] == []


def test_export_dot_with_places():
    pg = cached_embed(10)
    dot = export_dot(pg.graph, place=pg.place)
    assert '"122" -> "202" [label="d" place=1];' in dot
    assert '"202" -> "210" [label="s" place=2];' in dot


def _factor_steps(pg, block_graphs, vid):
    """Per-factor path positions of one vertex's image tuple."""
    steps = []
    for i, bg in enumerate(block_graphs):
        order = path_order(bg)
        steps.append(order.index(bg.index[pg.factors[vid][i]]))
    return steps


@pytest.mark.parametrize("n", range(0, 200, 2))
def test_constraints_never_violated(n):
    pg = cached_embed(n)
    blocks = pg.blocks
    block_graphs = [cached_graph(oracles.value(b)) for b in blocks]
    lasts = [len(path_order(bg)) - 1 for bg in block_graphs]
    for vid in range(len(pg.graph.vertices)):
        steps = _factor_steps(pg, block_graphs, vid)
        for i in range(len(blocks) - 1):
            k1, k2 = blocks[i][0], blocks[i + 1][0]  # "1" for type 1, "2" for type 2
            if k1 == "1" and k2 == "2":
                assert not (steps[i] == 0 and steps[i + 1] >= 1)
            elif k1 == "1" and k2 == "1":
                assert not (steps[i] == 0 and steps[i + 1] == lasts[i + 1])
            else:  # TYPE2 then TYPE1
                assert not (steps[i] < lasts[i] and steps[i + 1] == lasts[i + 1])


@pytest.mark.parametrize("n", range(2, 200, 2))
def test_descendant_factorization(n):
    pg = cached_embed(n)
    blocks = pg.blocks
    rest = "".join(blocks[1:])
    start_word = binary_expansion(oracles.value(blocks[0])) + rest
    sub = oracle_closure_graph(n, start_word, len(pg.graph.vertices))
    target = cached_graph(oracles.value(rest))
    assert labeled_iso(sub, target) is not None


@given(st.integers(1, 256).map(lambda k: 2 * k))
@settings(max_examples=40, deadline=None)
def test_embed_bijection_count(n):
    pg = cached_embed(n)
    assert len(set(pg.factors)) == len(oracle_expansions(n))
