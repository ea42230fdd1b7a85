"""Reference sizes the benchmark computes with its own code.

Nothing here imports stringraph: the quality baselines, the clique number
that sizes the extraction jobs, and the convex crossing pattern that checks
the geometry must stay independent of the code they judge, as the library's
own exact oracles are.

Graphs are adjacency bitmasks, one int per vertex, read from the library's
plain "n m" + edge-list text format.
"""
from __future__ import annotations

from itertools import combinations


def read_graph(text: str) -> list[int]:
    """Adjacency masks of a graph text file; comments after '#' are ignored."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    n, m = int(rows[0][0]), int(rows[0][1])
    if len(rows) - 1 != m:
        raise ValueError(f"graph text declares {m} edges but lists {len(rows) - 1}")
    adj = [0] * n
    for u, v in ((int(a), int(b)) for a, b in rows[1:]):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def edge_count(adj: list[int]) -> int:
    return sum(a.bit_count() for a in adj) // 2


def has_clique(adj: list[int], cand: int, k: int) -> bool:
    """Whether the vertices of cand contain k pairwise adjacent ones."""
    if k <= 0:
        return True
    if cand.bit_count() < k:
        return False
    if k == 1:
        return True
    while cand.bit_count() >= k:
        v = cand.bit_length() - 1
        cand &= ~(1 << v)
        if has_clique(adj, cand & adj[v], k - 1):
            return True
    return False


def clique_number(adj: list[int]) -> int:
    """Size of a largest clique, by branch and bound on bitmasks."""
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            expand(size + 1, cand & adj[v])

    expand(0, (1 << len(adj)) - 1)
    return best


def greedy_mis_size(adj: list[int]) -> int:
    """Greedy minimum-degree maximal independent set: take a vertex of least
    degree in what remains (lowest index on ties), delete its neighbourhood."""
    remaining = (1 << len(adj)) - 1
    size = 0
    while remaining:
        best_v, best_d = -1, -1
        rest = remaining
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            d = (adj[v] & remaining).bit_count()
            if best_d < 0 or d < best_d:
                best_v, best_d = v, d
        remaining &= ~(adj[best_v] | (1 << best_v))
        size += 1
    return size


def greedy_kp_free_size(adj: list[int], p: int) -> int:
    """Greedy maximal K_p-free set: visit vertices by increasing degree and keep
    each one whose kept neighbours hold no K_{p-1}."""
    order = sorted(range(len(adj)), key=lambda v: (adj[v].bit_count(), v))
    kept = 0
    for v in order:
        if not has_clique(adj, adj[v] & kept, p - 1):
            kept |= 1 << v
    return kept.bit_count()


def convex_crossing_edges(n: int) -> set[tuple[int, int]]:
    """Crossing pairs among the chords of n points in convex position, chords
    numbered in pair order: two chords cross iff their endpoints interleave."""
    chords = list(combinations(range(n), 2))
    out = set()
    for i, (a, b) in enumerate(chords):
        for j in range(i + 1, len(chords)):
            c, d = chords[j]
            if a < c < b < d or c < a < d < b:
                out.add((i, j))
    return out


def four_quasiplanar_max(n: int) -> int:
    """Most chords of a convex n-gon with no 4 pairwise crossing: 6n - 21
    for n >= 7 (Capoyleas and Pach 1992); below that every chord fits."""
    return 6 * n - 21 if n >= 7 else n * (n - 1) // 2
