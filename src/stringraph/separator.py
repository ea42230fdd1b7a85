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
from .graph import (Graph, bits, components_masked, mask_of, peel_order,
                     vertex_mask)

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


def _pack_two_bins(chunks: Sequence[int], cap: int) -> Optional[int]:
    """V1 as a union of chunks, disjoint vertex masks, such that V1 and the
    other chunks each hold at most cap vertices; None when no union does.

    Subset sums via one bitmask; V1's size is the feasible sum closest to half
    the total, ties to the smaller sum.
    """
    sizes = [c.bit_count() for c in chunks]
    if any(sz > cap for sz in sizes):
        return None
    total = sum(sizes)
    reach = 1
    prefix = []
    for c in sizes:
        prefix.append(reach)
        reach |= reach << c
    best: Optional[int] = None
    for s1 in range(max(0, total - cap), min(cap, total) + 1):
        if reach >> s1 & 1 and (best is None or abs(2 * s1 - total) < abs(2 * best - total)):
            best = s1
    if best is None:
        return None
    v1 = 0
    target = best
    for i in range(len(sizes) - 1, -1, -1):
        if not prefix[i] >> target & 1:
            v1 |= chunks[i]
            target -= sizes[i]
    return v1


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
            v1 = _pack_two_bins(components_masked(G, mask & ~s_mask), cap)
            if v1 is not None:
                return _partition(mask, s_mask, v1)
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
    if comp.bit_count() <= cap:
        # Pieces of at most ceil(2n/3) vertices always pack: the largest alone
        # when it holds n/3 or more, else pieces until the side holds n/3.
        return _partition(mask, 0, _pack_two_bins(comps, cap))
    others = [c for c in comps if c != comp]
    s_mask, v1 = mask, 0
    below = 0
    for layer in _bfs_layers(G, _pseudo_peripheral(G, comp), comp):
        above = comp & ~below & ~layer
        if layer.bit_count() < s_mask.bit_count():
            side = _pack_two_bins([c for c in (below, above) if c] + others, cap)
            if side is not None:
                s_mask, v1 = layer, side
        below |= layer
    if s_mask == mask and others:
        # No layer splits comp: all of comp goes into S.
        side = _pack_two_bins(others, cap)
        if side is not None:
            s_mask, v1 = comp, side
    return _partition(mask, s_mask, v1)


def _degree_peel(G: Graph, mask: int, best: Optional[SeparatorPartition] = None
                 ) -> SeparatorPartition:
    """S is the shortest prefix of peel_order(G, mask), the vertex with the
    most neighbours in the rest first, whose rest packs into balanced sides.

    Packing is monotone in the prefix: peeling one more vertex only splits and
    shrinks the pieces of the rest, and each new piece can stay in the side of
    the piece it came from. So the shortest prefix is found by bisection, with
    O(log n) component computations; the prefix of every vertex always packs.

    Given best, only prefixes shorter than best.S are tried, and only that
    many vertices are taken from the order. The longest of them is tested
    first; when it does not pack, no shorter one does, and best is returned.
    """
    cap = balance_cap(mask.bit_count())
    if best is None:
        order = list(peel_order(G, mask))
        s_mask, v1 = mask, 0
    elif not best.S:
        return best
    else:
        order = list(islice(peel_order(G, mask), len(best.S) - 1))
        s_mask = mask_of(order)
        v1 = _pack_two_bins(components_masked(G, mask & ~s_mask), cap)
        if v1 is None:
            return best
    lo, hi = 0, len(order)
    while lo < hi:
        mid = (lo + hi) // 2
        prefix = mask_of(order[:mid])
        side = _pack_two_bins(components_masked(G, mask & ~prefix), cap)
        if side is None:
            lo = mid + 1
        else:
            hi, s_mask, v1 = mid, prefix, side
    return _partition(mask, s_mask, v1)


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
