"""The Cartesian-product view of A(n): embedding, place map, checking paths.

A minimal expansion of an even number factors uniquely into the block
words 1^t 2 (type 1) and 2^t (type 2), with no two consecutive type-2
blocks (``words.decompose``, re-exported here); odd numbers carry an
extra tail of 1s.  A(n) embeds as an induced subgraph into the Cartesian
product of the path graphs of its blocks, which yields the place map,
place-preserving maps and checking paths.

Every expansion is one tuple of block states, its factors, and every arc
steps one of them, its place: ``graphs`` generates A(n) in these
coordinates, and ``embed`` is ``build_graph`` keeping the places as one
more arc column (``PlacedGraph.place``, a read-only mapping over it).  The
factors follow from the places, so no word is cut.  The checking-path
functions work on ``Arc`` objects, which they get from
``HbGraph.out_arcs``, ``in_arcs`` and ``arc``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise

from .graphs import (DEFAULT_LIMIT, Arc, ArcColumn, HbGraph, _block_states, _graph, _walk,
                     build_graph)
from .words import decompose, minimal_expansion, value


def path_order(g: HbGraph) -> list[int]:
    """Vertex ids of a directed path graph, from source to sink."""
    order = [g.source]
    while outs := g.out_arcs(order[-1]):
        (arc,) = outs
        order.append(arc.head)
    if len(order) != len(g.vertices):
        raise ValueError("graph is not a directed path")
    return order


@dataclass(frozen=True)
class PlacedGraph:
    graph: HbGraph
    blocks: tuple[str, ...]  # the block words of n's minimal expansion
    place: ArcColumn  # 1-based block index of each arc

    @cached_property
    def factors(self) -> tuple[tuple[str, ...], ...]:
        """Each vertex's block states, untruncated, built from the places on first read.

        The source's are the block words; a head's first in-arc steps its tail's at its place.
        """
        g = self.graph
        steps = [dict(pairwise(w for w, *_ in _block_states(block, p == 0)))
                 for p, block in enumerate(self.blocks)]
        factors = [self.blocks] + [None] * (len(g.vertices) - 1)
        for tail, head, p in zip(g.tails, g.heads, self.place.column):
            if factors[head] is None:
                f = factors[tail]
                factors[head] = (*f[: p - 1], steps[p - 1][f[p - 1]], *f[p:])
        return tuple(factors)

    @cached_property
    def block_graphs(self) -> tuple[HbGraph, ...]:
        return tuple(build_graph(value(b)) for b in self.blocks)


def embed(n: int, limit: int = DEFAULT_LIMIT) -> PlacedGraph:
    """Build A(n) together with its embedding into the product of block paths.

    This is ``build_graph`` keeping each arc's place, the coordinate it
    steps; ``PlacedGraph.factors`` is built from the places when first read.
    """
    if n % 2:
        raise ValueError(f"embed requires an even n, got {n}")
    g, places = _graph(n, *_walk(n, limit))
    return PlacedGraph(g, decompose(minimal_expansion(n))[0], ArcColumn(g, tuple(places)))


def place_map(pg: PlacedGraph, arc: Arc) -> int:
    """1-based index of the factor on which the arc's reduction occurs."""
    try:
        return pg.place[arc]
    except KeyError:
        raise ValueError(f"unknown arc {arc}") from None


def place_preserving_map(pg: PlacedGraph, e: Arc) -> dict[Arc, Arc]:
    """The canonical correspondence out_arcs(tail e) - {e} -> out_arcs(head e).

    Each e_x = (x, x') maps to the unique e_y = (y, y') such that (x', y')
    is an arc; existence and uniqueness failures are raised, not repaired.
    """
    g = pg.graph
    if e not in pg.place:
        raise ValueError(f"unknown arc {e}")
    mapping: dict[Arc, Arc] = {}
    for e_x in g.out_arcs(e.tail):
        if e_x == e:
            continue
        matches = [e_y for e_y in g.out_arcs(e.head) if g.arc(e_x.head, e_y.head) is not None]
        if len(matches) != 1:
            raise AssertionError(
                f"place-preserving map through {e} not well-defined at {e_x}: "
                f"{len(matches)} completions"
            )
        mapping[e_x] = matches[0]
    return mapping


def _check_path(pg: PlacedGraph, path: list[Arc] | tuple[Arc, ...]) -> None:
    for prev, nxt in zip(path, path[1:]):
        if prev.head != nxt.tail:
            raise ValueError("arcs do not form a directed path")
    for arc in path:
        if arc not in pg.place:
            raise ValueError(f"arc {arc} not in graph")


def place_preserving_through_path(
    pg: PlacedGraph, path: list[Arc] | tuple[Arc, ...], start: int | None = None
) -> dict[Arc, Arc]:
    """Composition of the single-arc maps along a path, maximally restricted.

    For the empty path, ``start`` must be given; the result is the identity
    on the out-arcs of ``start``.
    """
    g = pg.graph
    _check_path(pg, path)
    if not path:
        if start is None:
            raise ValueError("empty path requires a start vertex")
        return {a: a for a in g.out_arcs(start)}
    current = {a: a for a in g.out_arcs(path[0].tail)}
    for e in path:
        alpha = place_preserving_map(pg, e)
        current = {src: alpha[img] for src, img in current.items() if img in alpha}
    return current


def is_checking_path(pg: PlacedGraph, path: list[Arc] | tuple[Arc, ...]) -> bool:
    """True iff each arc avoids the image of the map through its predecessor."""
    _check_path(pg, path)
    for prev, nxt in zip(path, path[1:]):
        if nxt in place_preserving_map(pg, prev).values():
            return False
    return True


def _can_prepend(pg: PlacedGraph, e1: Arc) -> bool:
    g = pg.graph
    for e in g.in_arcs(e1.tail):
        if e1 not in place_preserving_map(pg, e).values():
            return True
    return False


def maximal_checking_paths_from(pg: PlacedGraph, e1: Arc) -> list[tuple[Arc, ...]]:
    """All maximal checking paths starting with e1, by exhaustive search.

    A path is maximal when it cannot be extended to a checking path on
    either end, so if some arc can be prepended to e1 there are none.
    Paths branch in ``g.out_arcs`` order, which is ascending in position.
    """
    g = pg.graph
    if e1 not in pg.place:
        raise ValueError(f"unknown arc {e1}")
    results: list[tuple[Arc, ...]] = []
    if _can_prepend(pg, e1):
        return results

    path: list[Arc] = []
    branches = [iter([e1])]  # branches[i] yields the arcs still to try as path[i]
    while branches:
        e = next(branches[-1], None)
        del path[len(branches) - 1 :]
        if e is None:
            branches.pop()
            continue
        path.append(e)
        image = set(place_preserving_map(pg, e).values())
        nexts = [x for x in g.out_arcs(e.head) if x not in image]
        if nexts:
            branches.append(iter(nexts))
        else:
            results.append(tuple(path))
    return results
