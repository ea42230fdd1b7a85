"""Exact exponential-time reference solvers.

Every solver here is an independent route to ground truth: the production
algorithms are never called, so agreement between the two sides is evidence
rather than tautology. Inputs beyond the size caps raise TooLarge instead of
silently taking forever.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import DegenerateDrawing, TooLarge
from .graph import Graph, bits
from .separator import SeparatorPartition, balance_cap

_MIS_CAP = 40
_CLIQUE_CAP = 60
_KPFREE_CAP = 18
_SEPARATOR_CAP = 14
_BICLIQUE_CAP = 16
_CROSSING_SUBSET_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# Maximum independent set: branch on the closed neighborhood of a minimum-
# degree vertex (some member of N[v] is in every maximum independent set),
# after two exact reductions. A vertex of degree at most one is taken outright:
# swapping its neighbor, if any, for it keeps a maximum set independent. A mask
# of several connected components is solved one component at a time.

def _component(adj: tuple[int, ...], mask: int) -> int:
    """The connected component of mask's lowest vertex within mask; 0 for
    the empty mask."""
    comp = frontier = mask & -mask
    while frontier:
        reach = 0
        for v in bits(frontier):
            reach |= adj[v]
        frontier = reach & mask & ~comp
        comp |= frontier
    return comp


def _alpha(adj: tuple[int, ...], mask: int, size: int, best: int) -> int:
    """max(best, size + alpha(mask)), where alpha is the independence number
    of the graph induced on mask; returns best as soon as that cannot beat it."""
    while True:
        cnt = mask.bit_count()
        if size + cnt <= best:
            return best
        if cnt == 0:
            return size
        vmin = -1
        dmin = cnt
        for v in bits(mask):
            d = (adj[v] & mask).bit_count()
            if d < dmin:
                dmin, vmin = d, v
                if d <= 1:
                    break
        if dmin > 1:
            break
        size += 1
        mask &= ~(adj[vmin] | (1 << vmin))
    comp = _component(adj, mask)
    if comp == mask:
        for u in bits((adj[vmin] & mask) | (1 << vmin)):
            best = _alpha(adj, mask & ~(adj[u] | (1 << u)), size + 1, best)
        return best
    # Each component is solved exactly unless, with every vertex of the
    # components after it counted, the total still cannot beat best.
    left = cnt
    while comp:
        left -= comp.bit_count()
        floor = best - size - left
        got = _alpha(adj, comp, 0, floor)
        if got == floor:
            return best
        size += got
        mask &= ~comp
        comp = _component(adj, mask)
    return size


def max_independent_set_exact(G: Graph) -> tuple[int, ...]:
    """Lexicographically smallest maximum independent set."""
    if G.n > _MIS_CAP:
        raise TooLarge(f"independent-set oracle capped at n <= {_MIS_CAP}, got {G.n}")
    adj = G.adj
    alpha = _alpha(adj, G.full_mask, 0, 0)
    chosen: list[int] = []
    mask = G.full_mask
    need = alpha
    for v in range(G.n):
        if need == 0:
            break
        if not (mask >> v & 1):
            continue
        rest = mask & ~(adj[v] | (1 << v))
        if _alpha(adj, rest, 0, need - 2) >= need - 1:
            chosen.append(v)
            mask = rest
            need -= 1
        else:
            mask &= ~(1 << v)
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Maximum clique: branch and bound with a greedy coloring bound, processing
# candidates from the highest color class down.

def _max_clique_size(adj: tuple[int, ...], cand_mask: int,
                     stop_at: Optional[int] = None) -> int:
    """Largest clique size within cand_mask by branch and bound.

    Candidates are greedily colored each node; the class count bounds the
    clique size, and processing in reverse color order tightens pruning.
    With stop_at the search returns as soon as that size is reached.
    """
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            if size > best:
                best = size
            return
        order: list[tuple[int, int]] = []
        classes: list[int] = []
        for v in bits(cand):
            av = adj[v]
            for i, cls in enumerate(classes):
                if not (av & cls):
                    classes[i] = cls | (1 << v)
                    order.append((i + 1, v))
                    break
            else:
                classes.append(1 << v)
                order.append((len(classes), v))
        order.sort()
        rest = cand
        for color, v in reversed(order):
            if stop_at is not None and best >= stop_at:
                return
            if size + color <= best:
                return
            expand(size + 1, rest & adj[v])
            rest &= ~(1 << v)

    expand(0, cand_mask)
    return best


def max_clique_exact(G: Graph) -> tuple[int, ...]:
    """Lexicographically smallest maximum clique, by direct branch and bound."""
    if G.n > _CLIQUE_CAP:
        raise TooLarge(f"clique oracle capped at n <= {_CLIQUE_CAP}, got {G.n}")
    if G.n == 0:
        return ()
    adj = G.adj
    size = _max_clique_size(adj, G.full_mask)
    chosen: list[int] = []
    cand = G.full_mask
    while len(chosen) < size:
        # Greedy forcing: the smallest vertex still extendable to optimum size.
        for v in bits(cand):
            need = size - len(chosen) - 1
            sub = cand & adj[v]
            if _max_clique_size(adj, sub, stop_at=need) >= need:
                chosen.append(v)
                cand = sub
                break
        else:
            raise AssertionError("clique forcing lost the optimum")
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Maximum K_p-free subset: every K_p-free set misses a vertex of each
# p-clique, so branch over the vertices of any clique found.

def _kpfree_clique(adj: tuple[int, ...], mask: int, p: int) -> Optional[tuple[int, ...]]:
    def grow(current: list[int], cand: int) -> Optional[tuple[int, ...]]:
        if len(current) == p:
            return tuple(current)
        if len(current) + cand.bit_count() < p:
            return None
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            current.append(v)
            got = grow(current, rest & adj[v])
            if got is not None:
                return got
            current.pop()
        return None

    return grow([], mask)


def _exists_kpfree(adj: tuple[int, ...], p: int, locked: int, mask: int, k: int) -> bool:
    if mask.bit_count() < k:
        return False
    clique = _kpfree_clique(adj, mask, p)
    if clique is None:
        return True
    for v in clique:
        if not (locked >> v & 1):
            if _exists_kpfree(adj, p, locked, mask & ~(1 << v), k):
                return True
    return False


def max_kp_free_subset_exact(G: Graph, p: int) -> tuple[int, ...]:
    """Lexicographically smallest maximum set whose induced subgraph has no K_p."""
    if p < 1:
        raise ValueError("forbidden clique size must be positive")
    if G.n > _KPFREE_CAP:
        raise TooLarge(f"K_p-free oracle capped at n <= {_KPFREE_CAP}, got {G.n}")
    if p == 1:
        return ()
    adj = G.adj
    best_size = 0

    def search(mask: int, size_best: int) -> int:
        if mask.bit_count() <= size_best:
            return size_best
        clique = _kpfree_clique(adj, mask, p)
        if clique is None:
            return mask.bit_count()
        for v in clique:
            size_best = search(mask & ~(1 << v), size_best)
        return size_best

    best_size = search(G.full_mask, 0)
    chosen: list[int] = []
    locked = 0
    mask = G.full_mask
    for v in range(G.n):
        if len(chosen) == best_size:
            break
        if not (mask >> v & 1):
            continue
        if _exists_kpfree(adj, p, locked | (1 << v), mask, best_size):
            locked |= 1 << v
            chosen.append(v)
        else:
            mask &= ~(1 << v)
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Minimum balanced separator: direct search over 3-labelings S/V1/V2 with
# incremental balance and cross-edge pruning.

def min_balanced_separator_exact(G: Graph) -> SeparatorPartition:
    if G.n > _SEPARATOR_CAP:
        raise TooLarge(f"separator oracle capped at n <= {_SEPARATOR_CAP}, got {G.n}")
    n = G.n
    adj = G.adj
    cap = balance_cap(n)
    best: Optional[tuple[int, int, int]] = None
    best_size = n + 1

    def assign(v: int, s_mask: int, v1: int, v2: int, placed_side: bool) -> None:
        nonlocal best, best_size
        if s_mask.bit_count() >= best_size:
            return
        if v == n:
            best = (s_mask, v1, v2)
            best_size = s_mask.bit_count()
            return
        bit = 1 << v
        if v1.bit_count() < cap and not (adj[v] & v2):
            assign(v + 1, s_mask, v1 | bit, v2, True)
        # first vertex outside S goes to V1; the sides are symmetric
        if placed_side and v2.bit_count() < cap and not (adj[v] & v1):
            assign(v + 1, s_mask, v1, v2 | bit, True)
        assign(v + 1, s_mask | bit, v1, v2, placed_side)

    assign(0, 0, 0, 0, False)
    assert best is not None
    s_mask, v1, v2 = best
    return SeparatorPartition(S=tuple(bits(s_mask)), V1=tuple(bits(v1)), V2=tuple(bits(v2)))


# ---------------------------------------------------------------------------
# Pairwise crossing edge sets in a drawing: refuse a vertex on a curve that
# does not end there, decide every edge pair on the uncut curves with
# Fractions, then enumerate r-subsets in lexicographic order.

def _cross(ux, uy, vx, vy):
    return ux * vy - uy * vx


def _on_segment(p, a, b) -> bool:
    """Whether the point p lies on the closed segment a-b."""
    return (_cross(b[0] - a[0], b[1] - a[1], p[0] - a[0], p[1] - a[1]) == 0
            and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _meet_outside(a, b, c, d, shared: set) -> bool:
    """Whether the closed segments a-b and c-d share a point not in shared,
    a set of at most one point.

    Solves a + t (b - a) = c + s (d - c) for t and s in [0, 1]. Segments on
    one line share the stretch between the larger of their lower ends and
    the smaller of their upper ends, with points ordered as (x, y) pairs.
    """
    ux, uy = b[0] - a[0], b[1] - a[1]
    vx, vy = d[0] - c[0], d[1] - c[1]
    wx, wy = c[0] - a[0], c[1] - a[1]
    den = _cross(ux, uy, vx, vy)
    if den == 0:
        if _cross(wx, wy, ux, uy):
            return False  # parallel, on two lines
        lo, hi = max(min(a, b), min(c, d)), min(max(a, b), max(c, d))
        return lo < hi or lo == hi and lo not in shared
    t = Fraction(_cross(wx, wy, vx, vy)) / den
    s = Fraction(_cross(wx, wy, ux, uy)) / den
    return 0 <= t <= 1 and 0 <= s <= 1 and (a[0] + t * ux, a[1] + t * uy) not in shared


def pairwise_crossing_exact(drawing, r: int) -> Optional[tuple[int, ...]]:
    """Lexicographically first r edges that pairwise cross, or None.

    Two edges cross iff their curves share a point that is not an endpoint
    they share. A vertex on a curve that does not end there raises
    DegenerateDrawing, the first one found over vertices, then edges, then
    segments.
    """
    if r < 2:
        raise ValueError("pairwise crossing needs r >= 2")
    verts, edges = drawing.vertices, drawing.edges
    curves = [tuple(zip(e.curve.points, e.curve.points[1:])) for e in edges]
    for w, pw in enumerate(verts):
        for e, segs in zip(edges, curves):
            if w != e.u and w != e.v and any(_on_segment(pw, a, b) for a, b in segs):
                raise DegenerateDrawing(f"vertex {w} lies on the curve of edge ({e.u}, {e.v})")
    m = len(edges)
    if r > m:
        return None
    if math.comb(m, r) > _CROSSING_SUBSET_CAP:
        raise TooLarge(f"{math.comb(m, r)} edge subsets exceed the enumeration cap")
    cross = [0] * m
    for i, j in combinations(range(m), 2):
        e, f = edges[i], edges[j]
        shared = {verts[w] for w in {e.u, e.v} & {f.u, f.v}}
        if any(_meet_outside(a, b, c, d, shared) for a, b in curves[i] for c, d in curves[j]):
            cross[i] |= 1 << j
            cross[j] |= 1 << i
    for subset in combinations(range(m), r):
        if all(cross[a] >> b & 1 for a, b in combinations(subset, 2)):
            return subset
    return None


# ---------------------------------------------------------------------------
# Maximum balanced biclique: enumerate every candidate side A, intersect
# neighborhoods, and balance against the common neighborhood.

def max_balanced_biclique_exact(G: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if G.n > _BICLIQUE_CAP:
        raise TooLarge(f"biclique oracle capped at n <= {_BICLIQUE_CAP}, got {G.n}")
    adj = G.adj
    full = G.full_mask
    best_t = 0
    best_a = 0
    best_b = 0
    for amask in range(1, full + 1):
        if amask.bit_count() <= best_t:
            continue
        common = full
        rest = amask
        while rest and common:
            low = rest & -rest
            common &= adj[low.bit_length() - 1]
            rest ^= low
        bmask = common & ~amask
        t = min(amask.bit_count(), bmask.bit_count())
        if t > best_t:
            best_t, best_a, best_b = t, amask, bmask
    side_a = tuple(bits(best_a))[:best_t]
    side_b = tuple(bits(best_b))[:best_t]
    return side_a, side_b
