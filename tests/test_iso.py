import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cached_graph, graph_from_arcs, oracle_descendants, oracle_labeled_iso
from hbgraphs.graphs import Arc, HbGraph, build_graph, counts
from hbgraphs.iso import (
    BudgetExceeded,
    IsoWitness,
    a10_automorphism,
    iso_closed_form,
    isomorphisms,
    labeled_iso,
    verify_witness,
)
from hbgraphs.stern import b_and_a
from hbgraphs.structure import Label
from hbgraphs.words import even_core


def test_labeled_iso_examples():
    g10, g21 = cached_graph(10), cached_graph(21)
    witness = labeled_iso(g10, g21)
    assert witness is not None
    assert verify_witness(g10, g21, witness)

    assert labeled_iso(g10, cached_graph(12)) is None

    g0 = cached_graph(0)
    witness = labeled_iso(g0, g0)
    assert witness is not None and witness.mapping == (0,)


def test_a10_vs_a12_is_a_genuine_distinction():
    # same (b, a) profile, so the refusal is structural, not a count check
    assert counts(cached_graph(10)) == counts(cached_graph(12)) == (5, 5, 1)


def test_even_pairs_with_equal_counts_refuted_without_search():
    # the paper's theorem (even m != n never have A(m) = A(n)) on its hard cases, the
    # pairs that (b, a) cannot tell apart; budget 0 admits no search node, so each
    # refusal comes from the signature filter, independently of iso_closed_form
    by_counts = defaultdict(list)
    for n in range(0, 2**12, 2):
        by_counts[b_and_a(n)].append(n)
    pairs = 0
    for group in by_counts.values():
        gs = [build_graph(n) for n in group] if len(group) > 1 else []
        for i, g1 in enumerate(gs):
            for g2 in gs[i + 1 :]:
                assert labeled_iso(g1, g2, budget=0) is None, (g1.n, g2.n)
                pairs += 1
    assert pairs == 3547


def columns(g):
    return g.tails, g.heads, g.labels


def test_budget():
    # equal arc columns give the identity before any search node; A(42) with ids 2 and 3
    # swapped keeps them a topological order but changes the columns, so it is searched
    g = cached_graph(42)
    assert labeled_iso(g, g, budget=0) == IsoWitness(tuple(range(len(g.vertices))))
    swap = list(range(len(g.vertices)))
    swap[2], swap[3] = 3, 2
    h = relabeled(g, swap)
    assert columns(h) != columns(g)
    with pytest.raises(BudgetExceeded):
        labeled_iso(g, h, budget=2)


def test_isomorphic_pairs_match_by_identity_without_search():
    # n -> 2^t n + 2^t - 1 appends 1^t to every word, so the arc columns are equal and
    # the identity is read off them: budget 0 admits no search node
    for n in range(0, 2000, 2):
        g1 = build_graph(n)
        b = len(g1.vertices)
        for t in (1, 2):
            witness = labeled_iso(g1, build_graph(2**t * n + 2**t - 1), budget=0)
            assert witness is not None and witness.mapping == tuple(range(b)), (n, t)


def test_identity_at_b_10946_without_search():
    g1, g2 = build_graph(699050), build_graph(1398101)
    b = len(g1.vertices)
    assert b == 10946
    witness = labeled_iso(g1, g2, budget=0)
    assert witness is not None and witness.mapping == tuple(range(b))


def test_search_deeper_than_the_recursion_limit():
    # b = 1597 levels of search, one per vertex, on a copy whose columns differ
    g = cached_graph(43690)
    h = swapped_copy(g)
    witness = labeled_iso(g, h)
    assert len(g.vertices) == 1597 and witness is not None and verify_witness(g, h, witness)


def test_equal_columns_on_other_vertex_counts_or_labels_are_searched():
    # the identity needs equal vertex counts and equal labels, not just equal tails and
    # heads: an extra isolated vertex, or one label flipped (the DOUBLE counts differ)
    g = cached_graph(42)
    extra = HbGraph(g.n, (*g.vertices, "0"), g.tails, g.heads, g.labels, g.positions)
    flip = {Label.SINGLE: Label.DOUBLE, Label.DOUBLE: Label.SINGLE}
    flipped = HbGraph(g.n, g.vertices, g.tails, g.heads,
                      (flip[g.labels[0]], *g.labels[1:]), g.positions)
    for h in (extra, flipped):
        assert labeled_iso(g, h) is None and labeled_iso(h, g) is None


def relabeled(g, perm):
    """g with vertex v renamed perm[v], its arcs re-sorted into (tail, -head) order."""
    arcs = sorted((Arc(perm[a.tail], perm[a.head], a.label, a.position) for a in g.arcs),
                  key=lambda a: (a.tail, -a.head))
    words = [None] * len(perm)
    for v, w in enumerate(g.vertices):
        words[perm[v]] = w
    return graph_from_arcs(g.n, words, arcs)


def swapped_copy(g):
    """g with the first two consecutive ids v, v + 1 swapped that leave the ids a
    topological order and change the arc columns, or None if no such pair exists."""
    for v in range(len(g.vertices) - 1):
        if g.find(v, v + 1) is None:
            perm = list(range(len(g.vertices)))
            perm[v], perm[v + 1] = v + 1, v
            h = relabeled(g, perm)
            if columns(h) != columns(g):
                return h
    return None


def test_backward_arcs_raise_rather_than_give_a_wrong_witness():
    # A(44) with ids 4 and 8 swapped has the backward arcs 7 -> 4 and 8 -> 5: its ids are
    # not a topological order, which the levels and the search rely on, so it is not made
    g = cached_graph(44)
    swap = list(range(len(g.vertices)))
    swap[4], swap[8] = 8, 4
    with pytest.raises(ValueError, match="topological order"):
        relabeled(g, swap)


def test_random_relabelings_raise_or_give_a_witness():
    # a relabeled copy of A(n) is refused when its ids are not a topological order, and
    # otherwise matched: never None, which would deny an isomorphism
    rng = random.Random(2024)
    matched = 0
    for _ in range(200):
        g = cached_graph(rng.randrange(200))
        perm = list(range(len(g.vertices)))
        rng.shuffle(perm)
        try:
            h = relabeled(g, perm)
        except ValueError as e:
            assert "topological order" in str(e)
            continue
        witness = labeled_iso(h, g)
        assert witness is not None and verify_witness(h, g, witness), (g.n, perm)
        matched += 1
    assert matched > 0


def single_arcs(b, tails, heads):
    """A hand-built graph on b vertices whose arcs are tails[i] -> heads[i], all SINGLE."""
    k = len(tails)
    return HbGraph(0, tuple(map(str, range(b))), tails, heads, (Label.SINGLE,) * k, (0,) * k)


def test_unsorted_tails_raise_rather_than_verify_a_non_isomorphism():
    # g3 is the path 0 -> 1 -> 2, its arcs out of tail order; g4 has both arcs out of 0.
    # A bisect of g3's unsorted tails would put 1 -> 2 among the arcs out of 0 and pass
    # the identity as a witness from g4 onto g3, though out-degree 2 cannot map onto a path
    with pytest.raises(ValueError, match="topological order"):
        single_arcs(3, (1, 0), (2, 1))
    g4 = single_arcs(3, (0, 0), (2, 1))
    assert verify_witness(g4, g4, IsoWitness((0, 1, 2)))
    assert labeled_iso(g4, g4) == IsoWitness((0, 1, 2))


def test_parallel_arcs_raise_rather_than_verify_a_non_isomorphism():
    # g1 repeats 0 -> 2 and 1 -> 3, and g2 has four distinct arcs: looked up by their ends
    # alone, g1's arcs all match g2's under the identity, which would pass as a witness
    with pytest.raises(ValueError, match=r"strictly ascending in \(tail, -head\)"):
        single_arcs(4, (0, 0, 1, 1), (2, 2, 3, 3))
    g2 = single_arcs(4, (0, 0, 1, 1), (3, 2, 3, 2))
    assert verify_witness(g2, g2, IsoWitness((0, 1, 2, 3)))
    # one tail's heads ascending is refused too: in (tail, -head) order they descend
    with pytest.raises(ValueError, match="strictly ascending"):
        single_arcs(4, (0, 0, 1, 1), (2, 3, 3, 2))


def test_ids_out_of_range_raise_value_error():
    # on two vertices: a head 5, a tail -1 (exported as a self-loop if made), a head b, and
    # two tails to one head (counted as two arcs if made); none may be made
    for tails, heads, match in (((0,), (5,), "topological order"),
                                ((-1,), (1,), "topological order"),
                                ((0, 1), (1, 2), "topological order"),
                                ((0, 0), (1,), "differ in length")):
        with pytest.raises(ValueError, match=match):
            single_arcs(2, tails, heads)
    # an arc labeled neither SINGLE nor DOUBLE, which no reader could take
    with pytest.raises(ValueError, match="SINGLE or DOUBLE"):
        HbGraph(0, ("0", "1"), (0,), (1,), ("x",), (0,))


def test_descendants_of_a_relabeled_copy_raise_or_match():
    # a relabeled copy whose ids are not a topological order is refused; otherwise its
    # descendants are those of the same word in A(n)
    g = cached_graph(44)
    swap = list(range(len(g.vertices)))
    swap[4], swap[8] = 8, 4
    with pytest.raises(ValueError, match="topological order"):
        relabeled(g, swap)
    rng = random.Random(2025)
    kept = 0
    for _ in range(200):
        g = cached_graph(rng.randrange(2, 200))
        perm = list(range(len(g.vertices)))
        rng.shuffle(perm)
        start = rng.randrange(len(g.vertices))
        try:
            h = relabeled(g, perm)
        except ValueError as e:
            assert "topological order" in str(e)
            continue
        sub = oracle_descendants(h, start)
        expected = oracle_descendants(g, g.index[h.vertices[start]])
        assert set(sub.vertices) == set(expected.vertices), (g.n, perm, start)
        kept += 1
    assert kept > 0


def test_iso_closed_form_examples():
    assert iso_closed_form(10, 21)
    assert not iso_closed_form(10, 12)
    assert iso_closed_form(7, 0)
    assert iso_closed_form(5, 11)  # 11 = 2*5 + 1


def test_even_core_examples():
    assert even_core(21) == (10, 1)
    assert even_core(10) == (10, 0)
    assert even_core(7) == (0, 3)
    assert even_core((1 << 200000) * 4 + (1 << 200000) - 1) == (4, 200000)


def test_even_core_matches_bit_loop():
    for n in range(1 << 12):
        m, t = n, 0
        while m % 2:
            m, t = m // 2, t + 1
        assert even_core(n) == (m, t), n


@given(st.integers(0, 10**6))
def test_even_core_roundtrip(n):
    core, t = even_core(n)
    assert core % 2 == 0
    m = core
    for _ in range(t):
        m = 2 * m + 1
    assert m == n
    assert iso_closed_form(n, core)


def test_a10_automorphism():
    g = cached_graph(10)
    witness = a10_automorphism()
    assert witness == IsoWitness((0, 1, 3, 2, 4))
    idx = g.index
    assert witness.mapping[idx["210"]] == idx["1002"]
    assert witness.mapping[idx["1002"]] == idx["210"]
    for w in ("122", "202", "1010"):
        assert witness.mapping[idx[w]] == idx[w]
    assert verify_witness(g, g, witness)


def test_labels_matter():
    # A(4) is 12 ->> 20 -> 100 and A(6) is 22 -> 102 -> 110: the same path
    # unlabeled, not isomorphic once the labels count
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher

    g4, g6 = cached_graph(4), cached_graph(6)
    unlabeled = [nx.DiGraph([(a.tail, a.head) for a in g.arcs]) for g in (g4, g6)]
    assert DiGraphMatcher(*unlabeled).is_isomorphic()
    assert labeled_iso(g4, g6) is None


@given(st.integers(0, 64), st.integers(0, 64))
@settings(max_examples=80, deadline=None)
def test_agreement_with_closed_form(m, n):
    witness = labeled_iso(cached_graph(m), cached_graph(n))
    assert (witness is not None) == iso_closed_form(m, n)


def test_witnesses_verify_both_directions():
    for m, n in [(10, 21), (21, 43), (0, 7), (4, 9)]:
        g1, g2 = cached_graph(m), cached_graph(n)
        w = labeled_iso(g1, g2)
        assert w is not None
        assert verify_witness(g1, g2, w)
        inverse = [0] * len(w.mapping)
        for v, image in enumerate(w.mapping):
            inverse[image] = v
        assert verify_witness(g2, g1, IsoWitness(tuple(inverse)))


def equal_count_pairs(top: int) -> list[tuple[int, int]]:
    """Every ordered pair m, n <= top whose graphs have equal (b, a)."""
    groups = defaultdict(list)
    for n in range(top + 1):
        groups[counts(cached_graph(n))[:2]].append(n)
    return [(m, n) for ns in groups.values() for m in ns for n in ns]


def test_labeled_iso_matches_oracle():
    # a pair with equal arc columns gets the identity at budget 0, so the search's node
    # count is pinned on a copy of its second graph with two ids swapped
    searched = 0
    for m, n in equal_count_pairs(300):
        g1, g2 = cached_graph(m), cached_graph(n)
        expected, nodes = oracle_labeled_iso(g1, g2)
        witness = labeled_iso(g1, g2, budget=nodes)
        assert (witness and witness.mapping) == expected, (m, n)
        if columns(g1) == columns(g2):
            assert labeled_iso(g1, g2, budget=0).mapping == tuple(range(len(g1.vertices)))
            g2 = swapped_copy(g2)
            if g2 is None:
                continue
            expected, nodes = oracle_labeled_iso(g1, g2)
            witness = labeled_iso(g1, g2, budget=nodes)
            assert witness is not None and witness.mapping == expected, (m, n)
        if nodes:
            with pytest.raises(BudgetExceeded):
                labeled_iso(g1, g2, budget=nodes - 1)
            searched += 1
    assert searched > 0


def vf2_digraph(nx, g):
    """``g`` as a networkx DiGraph whose edges carry the arc labels."""
    d = nx.DiGraph()
    d.add_nodes_from(range(len(g.vertices)))
    d.add_edges_from((a.tail, a.head, {"label": a.label}) for a in g.arcs)
    return d


def test_labeled_iso_agrees_with_vf2():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher, categorical_edge_match

    label_match = categorical_edge_match("label", None)
    for m, n in equal_count_pairs(256):
        d1, d2 = vf2_digraph(nx, cached_graph(m)), vf2_digraph(nx, cached_graph(n))
        vf2 = DiGraphMatcher(d1, d2, edge_match=label_match).is_isomorphic()
        assert (labeled_iso(cached_graph(m), cached_graph(n)) is not None) == vf2, (m, n)


def test_labeled_automorphisms_of_even_n_by_vf2():
    # the group is trivial except for binary (10)^k, k >= 2, where it has order 2
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher, categorical_edge_match

    label_match = categorical_edge_match("label", None)
    for n in range(0, 2**10, 2):
        g = cached_graph(n)
        d = vf2_digraph(nx, g)
        count = sum(1 for _ in DiGraphMatcher(d, d, edge_match=label_match).isomorphisms_iter())
        assert count == (2 if n in (10, 42, 170, 682) else 1), n
        witnesses = list(isomorphisms(g, g))
        assert len(witnesses) == count, n
        assert all(verify_witness(g, g, w) for w in witnesses), n


def test_automorphisms_of_binary_10_repeated_are_the_identity_and_an_involution():
    for k in range(2, 9):
        g = build_graph(int("10" * k, 2))
        b = len(g.vertices)
        identity, other = list(isomorphisms(g, g))
        assert identity.mapping == tuple(range(b)), k
        assert other.mapping != identity.mapping and verify_witness(g, g, other), k
        assert all(other.mapping[other.mapping[v]] == v for v in range(b)), k


def least_enumeration_budget(g1, g2):
    """The least budget under which ``isomorphisms(g1, g2)`` runs to its end."""
    budget = 0
    while True:
        try:
            for _ in isomorphisms(g1, g2, budget):
                pass
            return budget
        except BudgetExceeded:
            budget += 1


def test_budget_counts_nodes_over_the_whole_enumeration():
    # A(10) onto itself: the identity, then the swap of 210 and 1002; the search goes on
    # past the first witness, so one node fewer than the whole enumeration loses the second
    g = cached_graph(10)
    nodes = least_enumeration_budget(g, g)
    assert nodes == 8
    assert [w.mapping for w in isomorphisms(g, g, nodes)] == [(0, 1, 2, 3, 4), (0, 1, 3, 2, 4)]
    search = isomorphisms(g, g, nodes - 1)
    assert next(search).mapping == (0, 1, 2, 3, 4)
    with pytest.raises(BudgetExceeded):
        next(search)


def test_search_caches_nothing_on_either_graph():
    # the in-arc lists belong to the search: only ``find``'s out-offsets stay on a graph
    g = build_graph(2708)
    h = swapped_copy(g)  # reads g.find
    witness = labeled_iso(g, h)
    assert witness is not None and verify_witness(g, h, witness)
    assert set(vars(g)) | set(vars(h)) == {"out_offsets"}
