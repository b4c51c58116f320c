"""``labeled_iso`` and ``verify_witness`` on labeled DAGs that are not A-graphs.

An ``HbGraph`` is any DAG whose ids are a topological order and whose arcs
are in (tail, -head) order.  Paths to a sink may then differ in length,
which no A(n) allows, so these graphs test the search's invariants where
weight does not hold them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbgraphs.graphs import HbGraph
from hbgraphs.iso import IsoWitness, labeled_iso, verify_witness
from hbgraphs.structure import Label
from test_iso import vf2_digraph

D, S = Label.DOUBLE, Label.SINGLE


def dag(b, arcs):
    """The HbGraph on b vertices with arcs (tail, head, label), put in (tail, -head) order."""
    arcs = sorted(arcs, key=lambda a: (a[0], -a[1]))
    tails, heads, labels = map(tuple, zip(*arcs)) if arcs else ((), (), ())
    return HbGraph(0, tuple(map(str, range(b))), tails, heads, labels, (0,) * len(arcs))


# two sinks, at path lengths 1 and 2 from the source; the only isomorphism swaps 1 and 2
G1 = dag(4, [(0, 1, D), (0, 2, S), (2, 3, D)])
G2 = dag(4, [(0, 1, S), (0, 2, D), (1, 3, D)])


def test_isomorphism_with_sinks_at_unequal_depths():
    witness = labeled_iso(G1, G2)
    assert witness == IsoWitness((0, 2, 1, 3))
    assert verify_witness(G1, G2, witness)


def test_verify_witness_refusals():
    assert not verify_witness(G1, G2, IsoWitness((0, 2, 1)))  # too short
    assert not verify_witness(G1, G2, IsoWitness((0, 2, 2, 3)))  # not injective
    fewer = dag(4, [(0, 1, S), (0, 2, D)])
    assert not verify_witness(G1, fewer, IsoWitness((0, 2, 1, 3)))  # unequal arc counts
    assert not verify_witness(G1, G2, IsoWitness((0, 1, 2, 3)))  # 0 -> 2 S lands on D
    assert not verify_witness(G1, G2, IsoWitness((0, 2, 3, 1)))  # 0 -> 3 is no arc


@st.composite
def dag_pairs(draw):
    """A random labeled DAG on at most 8 vertices, and a copy relabeled at random.

    The copy's ids stay a topological order, and a label of it may be flipped.
    """
    b = draw(st.integers(1, 8))
    arcs = [(t, h, draw(st.sampled_from((S, D))))
            for t in range(b) for h in range(t + 1, b) if draw(st.booleans())]
    rng = draw(st.randoms(use_true_random=False))
    indegree = [sum(h == v for _, h, _ in arcs) for v in range(b)]
    order, ready = [], [v for v in range(b) if not indegree[v]]
    while ready:  # a random linear extension: a vertex goes once all its tails have
        v = ready.pop(rng.randrange(len(ready)))
        order.append(v)
        for t, h, _ in arcs:
            if t == v:
                indegree[h] -= 1
                if not indegree[h]:
                    ready.append(h)
    new = {v: i for i, v in enumerate(order)}
    copy = [(new[t], new[h], label) for t, h, label in arcs]
    if arcs and draw(st.booleans()):
        i = draw(st.integers(0, len(arcs) - 1))
        t, h, label = copy[i]
        copy[i] = (t, h, S if label == D else D)
    return dag(b, arcs), dag(b, copy)


@given(dag_pairs())
@settings(max_examples=600, deadline=None)
def test_labeled_iso_agrees_with_vf2_on_random_dags(pair):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher, categorical_edge_match

    g1, g2 = pair
    vf2 = DiGraphMatcher(vf2_digraph(nx, g1), vf2_digraph(nx, g2),
                         edge_match=categorical_edge_match("label", None))
    witness = labeled_iso(g1, g2)
    assert (witness is not None) == vf2.is_isomorphic()
    assert witness is None or verify_witness(g1, g2, witness)
