"""Output checks.  Each returns None when the output is right, else the first problem.

Graphs are checked as plain data (words, and arcs as (tail, head, label,
position) tuples), so the same checks serve the library's objects and the
CLI's JSON.  Expected values come from ``oracles`` only.
"""

from __future__ import annotations

import json

import oracles


def graph(n: int, vertices, arcs, source: int | None = None, sink: int | None = None) -> str | None:
    """A(n): vertex and arc counts, the words, their order, and every arc.

    ``source`` and ``sink`` are vertex ids, checked when given.
    """
    b, a = oracles.b_and_a(n)
    if len(vertices) != b or len(arcs) != a:
        return f"A({n}) has {len(vertices)} vertices and {len(arcs)} arcs, expected {b} and {a}"
    prev = (-1, "")
    for w in vertices:
        if not set(w) <= set("012") or w[:1] == "0" or oracles.value(w) != n:
            return f"A({n}) has the vertex {w!r}, which is no hyperbinary expansion of n"
        key = (len(w), w)
        if key <= prev:
            return f"A({n}): vertices not distinct and in shortlex order at {w!r}"
        prev = key
    if source is not None and vertices[source] != oracles.minimal_word(n):
        return f"A({n}): wrong source {vertices[source]!r}"
    if sink is not None and vertices[sink] != oracles.binary_word(n):
        return f"A({n}): wrong sink {vertices[sink]!r}"
    pairs, legal = set(), {}
    for tail, head, label, pos in arcs:
        if tail not in legal:
            legal[tail] = set(oracles.reductions(vertices[tail]))
        t, h = vertices[tail], vertices[head]
        if (h, label, pos) not in legal[tail]:
            return f"A({n}): {t} -> {h} ({label}, {pos}) is no single-step reduction"
        pairs.add((tail, head))
    # a distinct legal reductions among the b expansions are all of them
    if len(pairs) != a:
        return f"A({n}): repeated arcs"
    return None


def places(n: int, values) -> str | None:
    """Every place lies in 1..(number of blocks of the minimal expansion)."""
    blocks = oracles.block_count(oracles.minimal_word(n))
    bad = [p for p in values if not 1 <= p <= blocks]
    return f"A({n}): places {bad[:3]} outside 1..{blocks}" if bad else None


def json_export(n: int, text: str, vertices, arcs) -> str | None:
    """The JSON parses back to the same graph."""
    doc = json.loads(text)
    same = (
        doc["n"] == n
        and doc["vertices"] == list(vertices)
        and [(x["tail"], x["head"], x["label"], x["position"]) for x in doc["arcs"]] == list(arcs)
    )
    return None if same else f"A({n}): the JSON export does not parse back to the graph"


def dot_export(n: int, text: str) -> str | None:
    """The DOT output has a header, one line per vertex and arc, and a footer."""
    b, a = oracles.b_and_a(n)
    lines = len(text.splitlines())
    return None if lines == 2 + b + a else f"A({n}): DOT has {lines} lines, expected {2 + b + a}"


def witness(mapping, size2: int, arcs1, arcs2) -> str | None:
    """A vertex bijection g1 -> g2 that carries the labeled arcs of g1 onto those of g2.

    ``mapping`` gives the image of each vertex id of g1, ``size2`` is the
    vertex count of g2, and the arcs are (tail, head, label) triples.
    """
    if sorted(mapping) != list(range(size2)):
        return "the witness is not a bijection"
    image = {(mapping[t], mapping[h], label) for t, h, label in arcs1}
    if len(image) != len(arcs1) or image != set(arcs2):
        return "the witness does not carry the labeled arcs of g1 onto those of g2"
    return None


def word_witness(m: int, n: int, pairs: dict[str, str]) -> str | None:
    """A map H(m) -> H(n), given on words, that is an edge-labeled isomorphism."""
    hm, hn = oracles.expansions(m), oracles.expansions(n)
    if sorted(pairs) != sorted(hm) or sorted(pairs.values()) != sorted(hn):
        return f"the witness is not a bijection H({m}) -> H({n})"
    image = {(pairs[t], pairs[h], label) for t, h, label in oracles.labeled_arcs(m)}
    if image != oracles.labeled_arcs(n):
        return f"the witness does not carry the labeled arcs of A({m}) onto those of A({n})"
    return None
