"""Block decomposition and the Cartesian-product view of A(n).

A minimal expansion of an even number factors uniquely into blocks
1^t 2 (type 1) and 2^t (type 2), with no two consecutive type-2 blocks;
odd numbers carry an extra tail of 1s.  A(n) embeds as an induced
subgraph into the Cartesian product of the path graphs of its blocks,
which yields the place map, place-preserving maps and checking paths.

Every expansion splits into one factor per block at its cuts, the start
indices of its second, third, ... factors.  The place of an arc is read
off the cuts of its tail: every reduction rewrites one ``2``, at index
j = position + 1 (j = 0 for the leading ``2y -> 10y`` rule), and the
place is 1 + the number of cuts <= j.  So ``embed`` costs about one
``build_graph``: two integer parses and a few masked comparisons per
vertex, and a bisection and a few tuple comparisons per arc.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .graphs import DEFAULT_LIMIT, Arc, HbGraph, Label, build_graph
from .words import BLOCKS, digit_planes, minimal_expansion, validate_word, value


class BlockKind(enum.Enum):
    TYPE1 = 1  # the word 1^t 2
    TYPE2 = 2  # the word 2^t


@dataclass(frozen=True)
class Block:
    kind: BlockKind
    t: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("block parameter t must be >= 1")

    @property
    def word(self) -> str:
        if self.kind is BlockKind.TYPE1:
            return "1" * self.t + "2"
        return "2" * self.t

    @property
    def word_length(self) -> int:
        return self.t + 1 if self.kind is BlockKind.TYPE1 else self.t

    @property
    def value(self) -> int:
        return value(self.word)


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    trailing_ones: int

    @property
    def word(self) -> str:
        return "".join(b.word for b in self.blocks) + "1" * self.trailing_ones


def decompose(w: str) -> BlockDecomposition:
    """Unique block decomposition of a minimal expansion (digits in {1,2})."""
    validate_word(w)
    if "0" in w:
        raise ValueError(f"not a minimal expansion (contains 0): {w!r}")
    core = w.rstrip("1")
    blocks = tuple(
        Block(BlockKind.TYPE1, len(m) - 1) if m[0] == "1" else Block(BlockKind.TYPE2, len(m))
        for m in BLOCKS.findall(core)
    )
    return BlockDecomposition(blocks, len(w) - len(core))


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
    decomposition: BlockDecomposition
    factors: tuple[tuple[str, ...], ...]  # per-vertex factor tuple, untruncated
    place: dict[Arc, int]  # 1-based block index of each arc

    @cached_property
    def block_graphs(self) -> tuple[HbGraph, ...]:
        return tuple(build_graph(b.value) for b in self.decomposition.blocks)


class _CutFinder:
    """Factor cuts of the expansions of one block list.

    The cuts of an expansion are the start indices of its second, third,
    ... factors.  Past a cut the word is an expansion of the value of the
    remaining blocks' word, so it has no leading 0 and its digit count is
    the ``bit_length`` k of that value (long: the factor before the cut
    regains its truncated final 0) or k - 1 (short).  Both tests read the
    word's digits as two binary numbers, the 1s and the 2s, under masks.
    Exactly one of the two candidate lengths fits at each cut.
    """

    def __init__(self, blocks: tuple[Block, ...]):
        self.blocks = blocks
        self.total = value("".join(b.word for b in blocks))
        # per cut: (value past it, long digit count k, k-digit mask, bit of digit k)
        self.levels = []
        for i in range(1, len(blocks)):
            rest = value("".join(b.word for b in blocks[i:]))
            k = rest.bit_length()  # block words end in 2, so rest >= 2 and k >= 2
            self.levels.append((rest, k, (1 << k) - 1, 1 << (k - 1)))

    def factors(self, word: str) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """(cuts, untruncated factors) of one expansion."""
        if not self.blocks:
            if word:
                raise ValueError("nonempty word with empty block list")
            return (), ()
        ones, twos = digit_planes(word)
        length = len(word)
        # Each candidate length is the digit count of the remaining blocks'
        # word, plus one in the long case.  So when the whole word and the
        # part past a cut have the right values, so has the factor before
        # the cut: one check of the whole value stands in for one per factor.
        if self.levels and ones + 2 * twos != self.total:
            raise AssertionError(f"no factor split of {word!r}")
        nonzero = ones | twos
        cuts: list[int] = []
        factors: list[str] = []
        start = 0
        for rest, k, mask, lead in self.levels:
            room = length - start
            # At most one length fits: the k-digit suffix is worth the
            # (k-1)-digit suffix plus d * 2^(k-1) for its nonzero leading
            # digit d, so the two cannot both be worth rest.
            if k < room and nonzero & lead and (ones & mask) + 2 * (twos & mask) == rest:
                cut = length - k
                factors.append(word[start:cut] + "0")
            elif (
                k <= room
                and nonzero & lead >> 1
                and (ones & mask >> 1) + 2 * (twos & mask >> 1) == rest
            ):
                cut = length - k + 1
                factors.append(word[start:cut])
            else:
                raise AssertionError(f"no factor split of {word[start:]!r}")
            cuts.append(cut)
            start = cut
        factors.append(word[start:])
        return tuple(cuts), tuple(factors)


def embed(n: int, limit: int = DEFAULT_LIMIT) -> PlacedGraph:
    """Build A(n) together with its embedding into the product of block paths.

    The place of an arc is the factor that holds the ``2`` it rewrites:
    index position + 1, or 0 for the leading ``2y -> 10y`` rule.
    """
    if n % 2:
        raise ValueError(f"embed requires an even n, got {n}")
    g = build_graph(n, limit)
    dec = decompose(minimal_expansion(n))
    finder = _CutFinder(dec.blocks)
    cuts, factors = zip(*map(finder.factors, g.vertices))
    place: dict[Arc, int] = {}
    for arc in g.arcs:
        j = 0 if arc.position == 0 and arc.label == Label.SINGLE else arc.position + 1
        p = bisect_right(cuts[arc.tail], j)
        fx, fy = factors[arc.tail], factors[arc.head]
        if fx[p] == fy[p] or fx[:p] != fy[:p] or fx[p + 1 :] != fy[p + 1 :]:
            raise AssertionError(f"arc {arc} does not change exactly factor {p + 1}")
        place[arc] = p + 1
    return PlacedGraph(graph=g, decomposition=dec, factors=factors, place=place)


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


def _check_path(g: HbGraph, path: list[Arc] | tuple[Arc, ...]) -> None:
    for prev, nxt in zip(path, path[1:]):
        if prev.head != nxt.tail:
            raise ValueError("arcs do not form a directed path")
    for arc in path:
        if not 0 <= arc.tail < len(g.vertices) or g.arc(arc.tail, arc.head) != arc:
            raise ValueError(f"arc {arc} not in graph")


def place_preserving_through_path(
    pg: PlacedGraph, path: list[Arc] | tuple[Arc, ...], start: int | None = None
) -> dict[Arc, Arc]:
    """Composition of the single-arc maps along a path, maximally restricted.

    For the empty path, ``start`` must be given; the result is the identity
    on the out-arcs of ``start``.
    """
    g = pg.graph
    _check_path(g, path)
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
    _check_path(pg.graph, path)
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
