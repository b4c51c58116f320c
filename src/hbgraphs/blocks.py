"""The Cartesian-product view of A(n): embedding, place map, checking paths.

``embed`` is ``build_graph`` keeping each arc's place, the coordinate it
steps in the product of block paths (``structure``), as one more arc column
(``PlacedGraph.place``); the factors follow from the places.  Place-preserving
maps and checking paths run on arc indices, reading each commuting square
off ``out_offsets`` and ``heads``; ``Arc`` objects are made only for results.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import pairwise

from .graphs import Arc, ArcColumn, HbGraph, graph_from_pieces
from .structure import DEFAULT_LIMIT, block_states, walk


class PlacedGraph(namedtuple("PlacedGraph", "graph blocks place")):
    """A(n) as ``graph``, the block words of n's minimal expansion as ``blocks``, and as
    ``place`` each arc's 1-based block index, as bytes: 100 blocks give b > 10^28."""

    @cached_property
    def factors(self) -> tuple[tuple[str, ...], ...]:
        """Each vertex's block states, untruncated, built from the places on first read.

        The source's are the block words; a head's first in-arc steps its tail's at its place.
        """
        g = self.graph
        steps = [dict(pairwise(w for w, *_ in block_states(block, p == 0)))
                 for p, block in enumerate(self.blocks)]
        factors = [self.blocks] + [None] * (len(g.vertices) - 1)
        for tail, head, p in zip(g.tails, g.heads, self.place.column):
            if factors[head] is None:
                f = factors[tail]
                factors[head] = (*f[: p - 1], steps[p - 1][f[p - 1]], *f[p:])
        return tuple(factors)


def embed(n: int, limit: int = DEFAULT_LIMIT) -> PlacedGraph:
    """Build A(n) together with its embedding into the product of block paths."""
    if n % 2:
        raise ValueError(f"embed requires an even n, got {n}")
    pieces = walk(n, limit)
    g, places = graph_from_pieces(n, pieces)
    return PlacedGraph(g, pieces.blocks, ArcColumn(g, bytes(places)))


def _square(g: HbGraph, e: int) -> dict[int, int]:
    """By index, for arc e = (x, y): each other arc (x, x') to the one (y, y') with x' -> y'."""
    off, heads = g.out_offsets, g.heads
    x, y = g.tails[e], heads[e]
    run = dict(zip(heads[off[y] : off[y + 1]], range(off[y], off[y + 1])))  # y' -> (y, y')
    square = {}
    for j in range(off[x], off[x + 1]):
        if j != e:  # a run's heads are distinct (no parallel arcs), so a set counts the y'
            ends = run.keys() & heads[off[heads[j]] : off[heads[j] + 1]]
            if len(ends) != 1:
                raise AssertionError(f"place-preserving map through {g.arcs[e]} not well-defined"
                                     f" at {g.arcs[j]}: {len(ends)} completions")
            square[j] = run[ends.pop()]
    return square


def place_preserving_map(pg: PlacedGraph, e: Arc) -> dict[Arc, Arc]:
    """The canonical correspondence out_arcs(tail e) - {e} -> out_arcs(head e).

    Each e_x = (x, x') maps to the unique e_y = (y, y') such that (x', y')
    is an arc; existence and uniqueness failures are raised, not repaired.
    """
    return place_preserving_through_path(pg, [e])


def _indices(pg: PlacedGraph, path: list[Arc] | tuple[Arc, ...]) -> list[int]:
    """The indices of ``path``'s arcs, which must be the graph's and form a directed path."""
    g, path = pg.graph, list(map(pg.graph.arcs.index, path))
    if any(g.heads[i] != g.tails[j] for i, j in pairwise(path)):
        raise ValueError("arcs do not form a directed path")
    return path


def place_preserving_through_path(
    pg: PlacedGraph, path: list[Arc] | tuple[Arc, ...], start: int | None = None
) -> dict[Arc, Arc]:
    """Composition of the single-arc maps along a path, maximally restricted.

    For the empty path, ``start`` must be given; the result is the identity
    on the out-arcs of ``start``.
    """
    g, path = pg.graph, _indices(pg, path)
    if not path and start is None:
        raise ValueError("empty path requires a start vertex")
    x = g.tails[path[0]] if path else g._vertex(start)
    current = {j: j for j in range(g.out_offsets[x], g.out_offsets[x + 1])}
    for e in path:
        square = _square(g, e)
        current = {j: square[k] for j, k in current.items() if k in square}
    return {g.arcs[j]: g.arcs[k] for j, k in current.items()}


def is_checking_path(pg: PlacedGraph, path: list[Arc] | tuple[Arc, ...]) -> bool:
    """True iff each arc avoids the image of the map through its predecessor."""
    g = pg.graph
    return all(k not in _square(g, j).values() for j, k in pairwise(_indices(pg, path)))


def maximal_checking_paths_from(pg: PlacedGraph, e1: Arc) -> list[tuple[Arc, ...]]:
    """All maximal checking paths starting with e1, by exhaustive search.

    A path is maximal when it cannot be extended to a checking path on
    either end, so if some arc can be prepended to e1 there are none.
    Paths branch in ``g.out_arcs`` order, which is ascending in position.
    """
    g, e1 = pg.graph, pg.graph.arcs.index(e1)
    x = g.tails[e1]  # tails are sorted and below their heads: x's in-arcs precede its out-arcs
    ins = [-1]  # found by C-level index over the heads of those arcs
    try:
        while True:
            ins.append(g.heads.index(x, ins[-1] + 1, g.out_offsets[x]))
    except ValueError:
        pass
    if any(e1 not in _square(g, e).values() for e in ins[1:]):
        return []
    path: list[int] = []
    results: list[tuple[Arc, ...]] = []
    branches = [iter([e1])]  # branches[i] yields the arcs still to try as path[i]
    while branches:
        e = next(branches[-1], None)
        del path[len(branches) - 1 :]
        if e is None:
            branches.pop()
            continue
        path.append(e)
        image, y = set(_square(g, e).values()), g.heads[e]
        nexts = [k for k in range(g.out_offsets[y], g.out_offsets[y + 1]) if k not in image]
        if nexts:
            branches.append(iter(nexts))
        else:
            results.append(tuple(map(g.arcs.__getitem__, path)))
    return results
