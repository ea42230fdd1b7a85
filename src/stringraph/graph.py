"""Bitset-backed simple undirected graphs.

A graph is its adjacency masks: one Python int per vertex, so neighborhood
intersection, independence checks and clique search all reduce to integer
bit operations. Graphs are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from typing import Callable, Iterable, Iterator, Optional

from .errors import DegenerateGraph, ExtractorViolation, TooLarge, UnknownVertex


# A mask of at least _SCAN_MEMBERS members, and at least one member per
# _SCAN_WIDTH bits of its length, is scanned in C: measured at lengths 16 to
# 2000, the loop's step per member costs about as much as the C scan of ten
# bits, and below 8 members the loop wins at any length.
_SCAN_MEMBERS, _SCAN_WIDTH = 8, 10
_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of mask in increasing order, lazily: one
    lowest bit at a time, or for a dense mask in C, its reversed binary digits
    mapped to 0/1 bytes selecting from a count, with no big-int step per
    member."""
    members = mask.bit_count()
    if members >= _SCAN_MEMBERS and members * _SCAN_WIDTH >= mask.bit_length():
        return compress(count(), bin(mask)[:1:-1].encode().translate(_ZERO_ONE))
    return _low_bits(mask)


def _low_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    adj: tuple[int, ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise UnknownVertex(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(tuple(adj))

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(higher):
                out.append((u, v))
        return out

    def complement(self) -> "Graph":
        full = self.full_mask
        return Graph(tuple((full & ~a & ~(1 << v)) for v, a in enumerate(self.adj)))


def induced_subgraph(G: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on the given vertices: vertex i is the i-th smallest of them."""
    vs = sorted(set(vertices))
    if any(v < 0 or v >= G.n for v in vs):
        raise UnknownVertex(f"vertex set {vs} not contained in 0..{G.n - 1}")
    pos = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    vmask = mask_of(vs)
    for v in vs:
        for u in bits(G.adj[v] & vmask):
            adj[pos[v]] |= 1 << pos[u]
    return Graph(tuple(adj))


def average_degree(G: Graph) -> Fraction:
    if G.n < 1:
        raise DegenerateGraph("average degree needs at least one vertex")
    return Fraction(2 * G.m, G.n)


# ---------------------------------------------------------------------------
# Masked helpers: operate on a vertex subset of G given as a bitmask, so the
# recursive extractors never have to re-index vertices.

def vertex_mask(G: Graph, mask: Optional[int]) -> int:
    """mask itself, or every vertex of G when mask is None."""
    if mask is None:
        return G.full_mask
    if mask < 0 or mask >> G.n:
        raise UnknownVertex(f"vertex mask reaches outside 0..{G.n - 1}")
    return mask


def edges_in_mask(G: Graph, mask: int) -> int:
    return sum((G.adj[v] & mask).bit_count() for v in bits(mask)) // 2


def components_masked(G: Graph, mask: int, complement: bool = False) -> list[int]:
    """Connected components of G[mask] (of its complement when complement is
    set) as masks, ordered by smallest member."""
    return list(iter_components(G, mask, complement))


def iter_components(G: Graph, mask: int, complement: bool = False) -> Iterator[int]:
    """components_masked, found one at a time as they are asked for."""
    adj = G.adj
    remaining = mask
    while remaining:
        start = remaining & -remaining
        comp = start
        frontier = start
        while frontier:
            # missing holds the unseen vertices no frontier vertex scanned so
            # far is adjacent to. Once it is empty the rest of the frontier
            # cannot add to the next one; on a dense graph that happens after
            # a vertex or two.
            unseen = missing = remaining & ~comp
            for v in bits(frontier):
                missing = missing & adj[v] if complement else missing ^ missing & adj[v]
                if not missing:
                    break
            frontier = unseen ^ missing
            comp |= frontier
        yield comp
        remaining &= ~comp


def most_adjacent(G: Graph, among: int, into: int) -> int:
    """The vertex of the nonempty mask among with the most neighbours in into,
    ties to the lowest index; ValueError when among is empty."""
    if not among:
        raise ValueError("most_adjacent needs a nonempty mask")
    adj = G.adj
    best = -1
    for v in bits(among):
        if (d := (adj[v] & into).bit_count()) > best:
            best, hub = d, v
    return hub


def peel_order(G: Graph, mask: int, fewest: bool = False,
               degree: Optional[dict[int, int]] = None) -> Iterator[int]:
    """The vertices of mask, each with the most (fewest, when fewest is set)
    neighbours among those not yet yielded, ties to the lowest index; degree,
    if given, maps the vertices of mask in increasing order to their degrees.

    Repeating most_adjacent(G, rest, rest) and removing the answer gives the
    same order. Here each vertex sits in the bucket mask of its degree in the
    rest. Yielding a vertex moves its neighbours down one bucket with one mask
    operation per bucket, from the lowest bucket that can hold one of them up
    to the highest that does: a step costs at most one mask operation per
    degree up to the largest in G[mask], however many neighbours it moves.
    """
    adj = G.adj
    if degree is None:
        degree = {v: (adj[v] & mask).bit_count() for v in bits(mask)}
    buckets = [0] * (max(degree.values(), default=0) + 1)
    for v, d in degree.items():
        buckets[d] |= 1 << v
    rest = mask
    d = 0 if fewest else len(buckets) - 1
    while rest:
        # The largest degree never grows; the smallest falls by at most one
        # per vertex yielded, which the step back below allows for.
        while not buckets[d]:
            d += 1 if fewest else -1
        low = buckets[d] & -buckets[d]
        v = low.bit_length() - 1
        yield v
        buckets[d] ^= low
        rest ^= low
        # A neighbour has degree at least 1, and at least d when v had the
        # fewest. Each one leaves nbrs as it moves, so none moves twice.
        nbrs = adj[v] & rest
        b = d if fewest else 1
        while nbrs:
            if moving := buckets[b] & nbrs:
                buckets[b] ^= moving
                buckets[b - 1] |= moving
                nbrs ^= moving
            b += 1
        if fewest and d:
            d -= 1


# Nodes one clique search may expand before it is refused with TooLarge. The
# most any Tier-1, golden-corpus or benchmark input takes is 242, and 100,000
# nodes on a dense G(400, 1/2) take about 1 s on a shared 2-vCPU VM.
CLIQUE_NODE_BUDGET = 100_000


def clique_in_mask(G: Graph, mask: int, k: int) -> Optional[tuple[int, ...]]:
    """Exact search for k pairwise-adjacent vertices inside mask; None if none exist.

    Backtracking branches in increasing index order and returns the first
    clique found. Where need >= 3 vertices are still missing, the candidates
    are coloured class by class, each greedily from the highest index down;
    above the top of the need-th class fewer than need classes remain, so the
    branch loop ends there. With need = 2 the first edge is the answer. Only
    branches without a clique are cut, so the answer is plain backtracking's.
    Open nodes are kept on a stack of frames, not Python's call stack, so a
    clique of any size is found without recursion. Past CLIQUE_NODE_BUDGET
    expanded nodes the search raises TooLarge.
    """
    if k <= 0:
        raise ValueError("clique size must be positive")
    if k > mask.bit_count():
        return None
    if k == 1:
        return ((mask & -mask).bit_length() - 1,)
    adj = G.adj
    nodes = 0
    current: list[int] = []
    # The open nodes, root first: each one's untried branch vertices and its
    # candidates; current holds the vertex that each but the last branched on.
    frames: list[tuple[Iterator[int], int]] = []
    cand = mask
    while True:
        # Expand a node: cand holds at least need >= 2 vertices, each
        # adjacent to current.
        nodes += 1
        if nodes > CLIQUE_NODE_BUDGET:
            raise TooLarge(f"clique search for K_{k} expanded more than "
                           f"{CLIQUE_NODE_BUDGET} nodes")
        need = k - len(current)
        uncoloured = 0
        if need == 2:
            for v in bits(cand):
                if nbrs := adj[v] & cand >> v + 1 << v + 1:
                    return (*current, v, (nbrs & -nbrs).bit_length() - 1)
        else:
            uncoloured = cand
            for _ in range(need - 1):
                free = uncoloured
                while free:
                    v = free.bit_length() - 1
                    top = 1 << v
                    uncoloured ^= top
                    free ^= free & adj[v] | top
        if uncoloured:
            # Branch up to the top of the need-th class: the highest uncoloured.
            frames.append((bits(cand & (1 << uncoloured.bit_length()) - 1), cand))
        elif current:
            current.pop()  # a node without branches: back to its parent
        # Descend by the next branch that keeps need - 1 candidates, leaving
        # every node whose branches are used up.
        while frames:
            branches, parent = frames[-1]
            want = k - len(frames)
            for v in branches:
                if (cand := adj[v] & parent >> v + 1 << v + 1).bit_count() >= want:
                    break
            else:
                frames.pop()
                if frames:
                    current.pop()
                continue
            current.append(v)
            break
        else:
            return None


def find_clique(G: Graph, k: int) -> Optional[tuple[int, ...]]:
    """Exact: k pairwise-adjacent vertices of G, or None when no k-clique exists."""
    return clique_in_mask(G, G.full_mask, k)


def is_independent(G: Graph, vertices: Iterable[int]) -> bool:
    m = mask_of(vertices)
    return all(not (G.adj[v] & m) for v in bits(m))


@dataclass(frozen=True)
class Coloring:
    """A partition of the vertices into independent classes."""

    classes: tuple[tuple[int, ...], ...]

    @property
    def num_colors(self) -> int:
        return len(self.classes)


def validate_coloring(G: Graph, coloring: Coloring) -> None:
    seen = 0
    for cls in coloring.classes:
        cmask = mask_of(cls)
        if cmask & seen:
            raise ValueError("color classes overlap")
        if not is_independent(G, cls):
            raise ValueError("a color class is not independent")
        seen |= cmask
    if seen != G.full_mask:
        raise ValueError("color classes do not cover all vertices")


def greedy_color(G: Graph, extractor: Callable[[int], int]) -> Coloring:
    """Color by repeatedly extracting an independent set from the remaining vertices.

    The extractor receives the mask of the remaining vertices and must return
    the mask of a non-empty subset of them that is independent in G; its
    output is checked every round rather than trusted.
    """
    remaining = G.full_mask
    classes: list[tuple[int, ...]] = []
    while remaining:
        chosen = extractor(remaining)
        if not chosen:
            raise ExtractorViolation("extractor returned an empty set")
        if chosen & ~remaining:
            raise ExtractorViolation("extractor returned vertices outside the remaining set")
        if any(G.adj[v] & chosen for v in bits(chosen)):
            raise ExtractorViolation("extractor returned a non-independent set")
        classes.append(tuple(bits(chosen)))
        remaining &= ~chosen
    return Coloring(classes=tuple(classes))
