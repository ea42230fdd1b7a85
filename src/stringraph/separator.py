"""Balanced vertex separators.

A separator partition splits V into S, V1, V2 with no V1-V2 edge and both
sides of size at most ceil(2n/3). The contract is balance plus non-adjacency;
separator size is best-effort for the heuristic strategies and minimum for the
exact one. Strategies work on a vertex mask of the graph, in its own indices.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional, Sequence

from .errors import TooLarge
from .graph import (Graph, bits, components_masked, iter_components, mask_of,
                     peel_order, vertex_mask)

_EXACT_LIMIT = 14
STRATEGIES = ("auto", "exact", "bfs_layer", "degree_peel")


def balance_cap(n: int) -> int:
    """ceil(2n/3), the maximum allowed side size."""
    return (2 * n + 2) // 3


@dataclass(frozen=True)
class SeparatorPartition:
    S: tuple[int, ...]
    V1: tuple[int, ...]
    V2: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.S)


def validate_partition(G: Graph, part: SeparatorPartition) -> None:
    s_mask = mask_of(part.S)
    v1 = mask_of(part.V1)
    v2 = mask_of(part.V2)
    if len(part.S) + len(part.V1) + len(part.V2) != G.n:
        raise ValueError("S, V1, V2 must partition the vertex set")
    if (s_mask | v1 | v2) != G.full_mask or (s_mask & v1) or (s_mask & v2) or (v1 & v2):
        raise ValueError("S, V1, V2 must partition the vertex set")
    cap = balance_cap(G.n)
    if len(part.V1) > cap or len(part.V2) > cap:
        raise ValueError(f"side exceeds balance cap {cap}")
    for v in bits(v1):
        if G.adj[v] & v2:
            raise ValueError(f"edge joins V1 and V2 at vertex {v}")


def _pack_two_bins(chunks: Sequence[int], cap: int) -> int:
    """V1 as a union of chunks, disjoint vertex masks, such that V1 and the
    other chunks each hold at most cap vertices.

    Every caller passes chunks that each hold at most cap = ceil(2n/3)
    vertices and at most n in all, and such chunks always pack (see _fits).
    Subset sums via one bitmask; V1's size is the feasible sum closest to half
    the total, ties to the smaller sum.
    """
    sizes = [c.bit_count() for c in chunks]
    total = sum(sizes)
    reach = 1
    prefix = []
    for c in sizes:
        prefix.append(reach)
        reach |= reach << c
    best = min((s1 for s1 in range(max(0, total - cap), min(cap, total) + 1) if reach >> s1 & 1),
               key=lambda s1: abs(2 * s1 - total))
    v1 = 0
    target = best
    for i in range(len(sizes) - 1, -1, -1):
        if not prefix[i] >> target & 1:
            v1 |= chunks[i]
            target -= sizes[i]
    return v1


def _fits(G: Graph, rest: int, cap: int) -> bool:
    """Whether no component of G[rest] holds more than cap vertices. With
    rest of at most n vertices and cap = ceil(2n/3) that is whether the
    components pack: the largest alone when it holds n/3 or more, else
    pieces until the side holds n/3. Components are found one at a time,
    up to the first above cap, or until the vertices left cannot hold one."""
    left = rest.bit_count()
    comps = iter_components(G, rest)
    while left > cap:
        size = next(comps).bit_count()
        if size > cap:
            return False
        left -= size
    return True


def _partition(mask: int, s_mask: int, v1: int) -> SeparatorPartition:
    """S, V1 and the rest of mask as V2."""
    return SeparatorPartition(S=tuple(bits(s_mask)), V1=tuple(bits(v1)),
                              V2=tuple(bits(mask & ~s_mask & ~v1)))


def _exact(G: Graph, mask: int) -> SeparatorPartition:
    n = mask.bit_count()
    if n > _EXACT_LIMIT:
        raise TooLarge(f"exact separator strategy capped at n <= {_EXACT_LIMIT}, got {n}")
    cap = balance_cap(n)
    for k in range(n):
        for subset in combinations(tuple(bits(mask)), k):
            s_mask = mask_of(subset)
            rest = mask & ~s_mask
            if _fits(G, rest, cap):
                return _partition(mask, s_mask, _pack_two_bins(components_masked(G, rest), cap))
    return _partition(mask, mask, 0)


def _bfs_layers(G: Graph, root: int, comp: int) -> list[int]:
    layers = [1 << root]
    seen = 1 << root
    while True:
        frontier = 0
        for v in bits(layers[-1]):
            frontier |= G.adj[v]
        frontier &= comp & ~seen
        if not frontier:
            return layers
        layers.append(frontier)
        seen |= frontier


def _pseudo_peripheral(G: Graph, comp: int) -> int:
    root = (comp & -comp).bit_length() - 1
    for _ in range(2):
        layers = _bfs_layers(G, root, comp)
        root = (layers[-1] & -layers[-1]).bit_length() - 1
    return root


def _bfs_layer(G: Graph, mask: int) -> SeparatorPartition:
    cap = balance_cap(mask.bit_count())
    comps = components_masked(G, mask)
    comp = max(comps, key=int.bit_count, default=0)
    if comp.bit_count() <= cap:  # every piece fits, so they pack (see _fits)
        return _partition(mask, 0, _pack_two_bins(comps, cap))
    # The other components hold fewer than n - cap <= cap vertices in all, so
    # a layer's pieces pack iff the parts of comp below and above it fit.
    # Some layer does: the first with at most cap vertices above it has fewer
    # than |comp| - cap <= cap below it. So S = comp, the start, never stands.
    others = [c for c in comps if c != comp]
    s_mask, chunks = comp, others
    below = 0
    for layer in _bfs_layers(G, _pseudo_peripheral(G, comp), comp):
        above = comp & ~below & ~layer
        if (layer.bit_count() < s_mask.bit_count() and below.bit_count() <= cap
                and above.bit_count() <= cap):
            s_mask, chunks = layer, [c for c in (below, above) if c] + others
        below |= layer
    return _partition(mask, s_mask, _pack_two_bins(chunks, cap))


def _degree_peel(G: Graph, mask: int, best: Optional[SeparatorPartition] = None
                 ) -> SeparatorPartition:
    """S is the shortest prefix of peel_order(G, mask), the vertex with the
    most neighbours in the rest first, whose rest packs into balanced sides.

    The rest packs iff its largest component holds at most ceil(2n/3)
    vertices (see _fits), so each prefix is tested for that fit, which stops
    at the first component above the cap, or once the vertices left cannot
    hold one; the answer alone is packed. Fitting is monotone in the prefix:
    peeling one more vertex only splits and shrinks the pieces of the rest.
    So the shortest prefix is found by bisection, with O(log n) fit tests;
    the prefix of every vertex always fits. Each prefix mask extends the
    longest prefix found not to fit, so the bisection adds each vertex of
    the order to a mask O(1) times.

    Given best, only prefixes shorter than best.S are tried, and only that
    many vertices are taken from the order. The longest of them is tested
    first; when it does not fit, no shorter one does, and best is returned.
    """
    cap = balance_cap(mask.bit_count())
    if best is None:
        order = list(peel_order(G, mask))
        s_mask = mask
    elif not best.S:
        return best
    else:
        order = list(islice(peel_order(G, mask), len(best.S) - 1))
        s_mask = mask_of(order)
        if not _fits(G, mask & ~s_mask, cap):
            return best
    lo, hi = 0, len(order)
    lo_mask = 0  # the prefix order[:lo], which does not fit when lo > 0
    while lo < hi:
        mid = (lo + hi) // 2
        prefix = lo_mask | mask_of(order[lo:mid])
        if _fits(G, mask & ~prefix, cap):
            hi, s_mask = mid, prefix
        else:
            lo, lo_mask = mid + 1, prefix | 1 << order[mid]
    return _partition(mask, s_mask, _pack_two_bins(components_masked(G, mask & ~s_mask), cap))


def find_balanced_separator(G: Graph, strategy: str = "auto",
                            mask: Optional[int] = None) -> SeparatorPartition:
    """Balanced separator of G[mask]; mask None means every vertex of G.

    The balance cap and the exact size limit count the vertices of mask, and
    S, V1 and V2 are in G's vertex indices. `auto` is `exact` up to 14
    vertices; above, it is the `degree_peel` search seeded with the
    `bfs_layer` answer, so it returns the smaller of the two separators, ties
    to `bfs_layer`.
    """
    mask = vertex_mask(G, mask)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown separator strategy {strategy!r}")
    if strategy == "exact" or (strategy == "auto" and mask.bit_count() <= _EXACT_LIMIT):
        return _exact(G, mask)
    if strategy == "bfs_layer":
        return _bfs_layer(G, mask)
    if strategy == "degree_peel":
        return _degree_peel(G, mask)
    return _degree_peel(G, mask, _bfs_layer(G, mask))


def separator_size_survey(spec, sizes: Sequence[int], trials: int = 20,
                          strategy: str = "auto") -> list[tuple[int, float, float]]:
    """Median graph size and separator size per family size.

    Returns one row (n, median m, median |S|) per entry of sizes. Trial t of a
    size uses seed spec.seed + t, so the whole table is reproducible.
    """
    from dataclasses import replace

    from .generators import FAMILY_KINDS, generate
    from .geometry import intersection_graph

    if spec.kind not in FAMILY_KINDS:
        raise ValueError(f"survey needs a string family kind, not {spec.kind!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")

    rows = []
    for size in sizes:
        ms = []
        seps = []
        for t in range(trials):
            family = generate(replace(spec, count=size, seed=spec.seed + t))
            G = intersection_graph(family)
            part = find_balanced_separator(G, strategy)
            validate_partition(G, part)
            ms.append(G.m)
            seps.append(len(part.S))
        rows.append((size, float(statistics.median(ms)), float(statistics.median(seps))))
    return rows


def fit_loglog_slope(pairs: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x).

    Pairs with a nonpositive coordinate are skipped; fewer than two usable
    points (or zero x-variance) give slope 0.0.
    """
    points = [(math.log(x), math.log(y)) for x, y in pairs if x > 0 and y > 0]
    if len(points) < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    if sxx == 0:
        return 0.0
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx
