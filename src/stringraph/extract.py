"""Constructive extraction procedures with certified witnesses.

Each operation returns an ExtractionWitness whose claimed property is
checked against the input graph exactly once before returning: by the final
validate_witness call, or for a cover and for color-or-clique by the check
that stands in for it (validate_multipartite_cover, greedy_color's check of
every class, _check_clique). No step re-checks what a later check covers.
A clique-free precondition is checked once, at entry: every subgraph of a
K_r-free G is K_r-free, so every mask a recursion or colour round meets is.
The tunable constants only influence guaranteed sizes, never correctness.
All recursions work on vertex bitmasks of the original graph, so witnesses
stay in original indices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Optional, Union

from .errors import (DomainError, ExtractorViolation, InternalBoundViolation, NoCoverFound,
                     PreconditionViolated, RefinementFailed, TooLarge, finite_value)
from .graph import (Coloring, Graph, average_degree, bits, clique_in_mask,
                    components_masked, edges_in_mask, greedy_color, mask_of,
                    most_adjacent, peel_order, validate_coloring,
                    vertex_mask)
from .separator import STRATEGIES, find_balanced_separator


@dataclass(frozen=True)
class AlgorithmParams:
    """Tunable constants for the extraction recursions.

    None of the defaults are forced by theory; any positive value is accepted
    and no relation between them is enforced. epsilon is an argument of
    dense_core and color_or_clique, not a constant; when delta is None,
    color_or_clique derives it from that epsilon.
    """

    c1: float = 2.0
    c2: float = 1.0
    c: float = 0.01
    c_prime: float = 0.01
    c_dblprime: float = 0.05
    delta: Optional[float] = None
    separator_strategy: str = "auto"

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c", "c_prime", "c_dblprime", "delta"):
            if isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} cannot be a boolean")
        for name in ("c1", "c2", "c", "c_prime", "c_dblprime"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.delta is not None and self.delta <= 0:
            raise ValueError("delta must be strictly positive when given")
        for name in ("c1", "c2", "c", "c_prime", "c_dblprime", "delta"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.separator_strategy not in STRATEGIES:
            raise ValueError(f"unknown separator strategy {self.separator_strategy!r}")

    def C_refine(self, epsilon: float) -> float:
        """max((12 c1)^2, 4 c1^2 / epsilon^2), refused with DomainError when it
        overflows or when a small c1 makes it underflow to 0."""
        C = finite_value(
            lambda: max((12 * self.c1) ** 2, 4 * self.c1 ** 2 / epsilon ** 2),
            "refinement constant C")
        if C == 0:
            raise DomainError("refinement constant C underflows to 0 for these arguments")
        return C


def _finite(value: Optional[float]) -> bool:
    """Whether value is None or a number within a finite float's range."""
    try:
        return value is None or math.isfinite(value)
    except OverflowError:  # an int past a float's range
        return False


DEFAULT_PARAMS = AlgorithmParams()

VertexSet = tuple[int, ...]


@dataclass(frozen=True)
class ExtractionWitness:
    kind: str
    vertices: Union[VertexSet, tuple[VertexSet, ...]]
    certificate: dict


@dataclass(frozen=True)
class MultipartiteCover:
    parts: tuple[VertexSet, ...]
    alpha: float

    @property
    def t(self) -> int:
        return len(self.parts)

    @property
    def p(self) -> int:
        return self.t.bit_length() - 1


# ---------------------------------------------------------------------------
# Size floors. All logs are base 2. A graph of n < 2 vertices has floor n;
# from two vertices on every floor is clamped to at least 1.

def cover_floor(n: int, c: float) -> float:
    if n < 2:
        return float(n)
    return max(1.0, finite_value(lambda: c * n / math.log2(n) ** 2, "cover floor"))


def half_clique_floor(n: int, c: float) -> float:
    if n < 2:
        return float(n)
    return max(1.0, finite_value(lambda: c * n / math.log2(n) ** 3, "half-clique floor"))


def independent_floor(n: int, s: int, c: float) -> int:
    if n < 2:
        return n
    return max(1, math.floor(finite_value(
        lambda: n * (c * s / math.log2(n)) ** (2 * s - 2), "independent-set floor")))


def q_independent_floor(n: int, s: int, q: int, c: float) -> int:
    if n < 2:
        return n
    # Dividing by 2^(2s) on the float's exponent never builds 2^(2s).
    return max(1, math.floor(finite_value(lambda: math.ldexp(
        n * (c * (s + 1 - q) / math.log2(n)) ** (2 * s - 2 * q), -2 * s),
        "q-independent floor")))


# ---------------------------------------------------------------------------
# Witness validation. Every checker is exact; failures raise
# ExtractorViolation with a description of the broken property.

def _check_clique(G: Graph, vertices: Iterable[int]) -> None:
    m = mask_of(vertices)
    for v in bits(m):
        if (G.adj[v] & m) != m & ~(1 << v):
            raise ExtractorViolation(f"vertices are not pairwise adjacent at {v}")


def _check_kp_free(G: Graph, vertices: Iterable[int], p: int) -> None:
    clique = clique_in_mask(G, mask_of(vertices), p)
    if clique is not None:
        raise ExtractorViolation(f"claimed K_{p}-free set contains clique {clique}")


def validate_multipartite_cover(G: Graph, cover: MultipartiteCover,
                                c_dblprime: float, mask: Optional[int] = None) -> None:
    """Check a cover of G[mask] (all of G when mask is None); parts must lie in
    mask, and the part-size threshold counts the vertices of mask."""
    mask = vertex_mask(G, mask)
    if cover.t < 2:
        raise ExtractorViolation("cover needs at least two parts")
    if cover.t & (cover.t - 1):
        raise ExtractorViolation("part count must be a power of two")
    masks = [mask_of(part) for part in cover.parts]
    seen = 0
    for m in masks:
        if m & seen:
            raise ExtractorViolation("parts are not disjoint")
        seen |= m
    if seen & ~mask:
        raise ExtractorViolation("parts reach outside the vertex set")
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            for v in bits(masks[i]):
                if (G.adj[v] & masks[j]) != masks[j]:
                    raise ExtractorViolation(
                        f"vertex {v} of part {i} is not complete to part {j}")
    threshold = c_dblprime * cover.alpha * mask.bit_count() / cover.t ** 2
    smallest = min(len(part) for part in cover.parts)
    if smallest < threshold:
        raise ExtractorViolation(
            f"smallest part has {smallest} vertices, below threshold {threshold}")


def validate_witness(G: Graph, witness: ExtractionWitness) -> None:
    kind = witness.kind
    cert = witness.certificate
    if kind == "independent":
        m = mask_of(witness.vertices)
        for v in bits(m):
            if G.adj[v] & m:
                raise ExtractorViolation(f"vertex {v} has a neighbor inside the set")
    elif kind in ("q_independent", "kp_free"):
        _check_kp_free(G, witness.vertices, int(cert["p"]))
    elif kind == "dense_core":
        _check_dense_core(G, witness.vertices, cert)
    elif kind == "multipartite":
        cover = MultipartiteCover(parts=tuple(tuple(p) for p in witness.vertices),
                                  alpha=float(cert["alpha"]))
        validate_multipartite_cover(G, cover, float(cert["c_dblprime"]))
    elif kind == "coloring":
        validate_coloring(G, Coloring(tuple(tuple(c) for c in witness.vertices)))
    elif kind == "clique":
        _check_clique(G, witness.vertices)
    else:
        raise ExtractorViolation(f"unknown witness kind {kind!r}")


def _check_dense_core(G: Graph, vertices: Iterable[int], cert: dict) -> None:
    core = mask_of(vertices)
    size = core.bit_count()
    if size == 0:
        raise ExtractorViolation("dense core is empty")
    d = average_degree(G)
    d_prime = Fraction(2 * edges_in_mask(G, core), size)
    eps = Fraction(float(cert["epsilon"]))
    C = Fraction(float(cert["C"]))
    if d_prime < (1 - eps) * d:
        raise ExtractorViolation(
            f"core average degree {d_prime} below (1-eps)*{d}")
    if Fraction(size) > max(Fraction(1), C * d_prime):
        raise ExtractorViolation(
            f"core has {size} vertices, above the C*d' bound")


# ---------------------------------------------------------------------------
# Shared plumbing.

def _split_by_separator(G: Graph, mask: int, params: AlgorithmParams
                        ) -> tuple[int, int, int]:
    """Separator of G[mask]; returns (S, V1, V2) as masks, each side smaller
    than mask, so that recursing on the sides always terminates."""
    part = find_balanced_separator(G, params.separator_strategy, mask)
    s_mask, v1, v2 = mask_of(part.S), mask_of(part.V1), mask_of(part.V2)
    if mask in (v1, v2):
        # The cap ceil(2n/3) lets one side hold every vertex only when n <= 2;
        # fall back to the trivial partition, which puts them all into S.
        return mask, 0, 0
    return s_mask, v1, v2


Step = Callable[[int], Union[int, None, tuple[int, "Step"]]]


def _divide(G: Graph, mask: int, params: AlgorithmParams, step: Step) -> int:
    """The separator recursion behind every extractor.

    A mask of at most one vertex is its own answer. Otherwise step(mask)
    answers for G[mask] with a kept mask; or returns None to split G[mask]
    by a balanced separator, recurse on both sides and unite their answers,
    the lowest vertex of mask standing in when both sides answer empty; or
    returns (sub_mask, next_step), and next_step then answers for sub_mask
    in its place. What a call drops is mask & ~kept.
    """
    while mask.bit_count() > 1:
        answer = step(mask)
        if answer is None:
            _, v1, v2 = _split_by_separator(G, mask, params)
            return _divide(G, v1, params, step) | _divide(G, v2, params, step) or mask & -mask
        if not isinstance(answer, tuple):
            return answer
        mask, step = answer
    return mask


def _verify_no_clique(G: Graph, r: int) -> None:
    clique = clique_in_mask(G, G.full_mask, r)
    if clique is not None:
        raise PreconditionViolated(
            f"input graph contains K_{r}",
            witness=ExtractionWitness("clique", clique, {"size": r}))


# ---------------------------------------------------------------------------
# Neighborhood covers and K_{r-1}-free subgraphs.

def kr1_free_subgraph(G: Graph, r: int,
                      params: AlgorithmParams = DEFAULT_PARAMS) -> ExtractionWitness:
    """K_{r-1}-free induced subgraph of a K_r-free graph, via the apex
    argument: a clique in a covered component would extend by its apex."""
    if r < 3:
        raise ValueError("forbidden clique size r must be at least 3")
    _verify_no_clique(G, r)
    bound = cover_floor(G.n, params.c)
    # The apex of each covered component of 2+ vertices, by its lowest vertex.
    apexes: dict[int, int] = {}

    def step(mask: int) -> Optional[int]:
        hub = most_adjacent(G, mask, mask)
        w = G.adj[hub] & mask
        if w.bit_count() < cover_floor(mask.bit_count(), params.c):
            return None
        for comp in components_masked(G, w):
            if comp.bit_count() >= 2:
                apexes[(comp & -comp).bit_length() - 1] = hub
        return w

    w = _divide(G, G.full_mask, params, step)
    witness = ExtractionWitness(
        "kp_free", tuple(bits(w)),
        {"p": r - 1, "apexes": apexes, "source": "neighborhood_cover",
         "bound": bound})
    validate_witness(G, witness)
    return witness


# ---------------------------------------------------------------------------
# Balanced bicliques.

def _biclique_exact(G: Graph, mask: int) -> tuple[int, int]:
    """Sides of a biclique in G[mask] whose smaller side is as large as possible."""
    adj = G.adj
    best_t = 0
    best = (0, 0)

    def dfs(rest: int, amask: int, common: int) -> None:
        nonlocal best_t, best
        bcand = common & ~amask
        t_here = min(amask.bit_count(), bcand.bit_count())
        if t_here > best_t:
            best_t, best = t_here, (amask, bcand)
        if not rest:
            return
        if min(amask.bit_count() + rest.bit_count(), bcand.bit_count()) <= best_t:
            return
        low = rest & -rest
        dfs(rest ^ low, amask | low, common & adj[low.bit_length() - 1])
        dfs(rest ^ low, amask, common)

    dfs(mask, 0, mask)
    return best


# Candidates one greedy balanced-biclique search may scan before it is
# refused with TooLarge. The most any Tier-1, golden-corpus or benchmark
# input scans is 498,501, on K_1000 (the benchmark's most is 4005), so this
# is four times that; a seeded G(1000, 0.99) scans about 27 million, some
# 7 s, and is refused after about 0.5 s on a shared 2-vCPU VM.
BICLIQUE_SCAN_BUDGET = 2_000_000


def _biclique_greedy(G: Graph, mask: int) -> tuple[int, int]:
    """Sides (A, B) of the best biclique grown from about 120 strided seed
    edges of G[mask], each side grown by the candidate with the most
    neighbours among the other side's. A seed is dropped once it cannot
    beat the best t so far: a side never outgrows its size plus its
    candidates, nor the disjoint sides the union of both sides and both
    candidate sets; the answer is the one growing every seed fully gives.
    Each growth step scans one side's candidates; past BICLIQUE_SCAN_BUDGET
    scanned candidates the search raises TooLarge."""
    adj = G.adj
    scans = 0
    seeds = [(u, v) for u in bits(mask) for v in bits(adj[u] & mask >> u + 1 << u + 1)]
    if len(seeds) > 120:
        step = len(seeds) // 120
        seeds = seeds[::step]
    best_t = 0
    best = (0, 0)
    for u, v in seeds:
        amask, bmask = 1 << u, 1 << v
        na = nb = 1
        cand_a = adj[v] & mask & ~amask
        cand_b = adj[u] & mask & ~bmask
        while ((cand_a or cand_b) and min(na + cand_a.bit_count(), nb + cand_b.bit_count()) > best_t
               and (amask | bmask | cand_a | cand_b).bit_count() > 2 * best_t + 1):
            if cand_a and (na <= nb or not cand_b):
                scans += cand_a.bit_count()
                most = -1
                for y in bits(cand_a):
                    if (d := (adj[y] & cand_b).bit_count()) > most:
                        most, x = d, y
                amask |= 1 << x
                na += 1
                cand_a ^= 1 << x
                cand_b &= adj[x]
            else:
                scans += cand_b.bit_count()
                most = -1
                for y in bits(cand_b):
                    if (d := (adj[y] & cand_a).bit_count()) > most:
                        most, x = d, y
                bmask |= 1 << x
                nb += 1
                cand_b ^= 1 << x
                cand_a &= adj[x]
            if scans > BICLIQUE_SCAN_BUDGET:
                raise TooLarge("greedy balanced-biclique search scanned more than "
                               f"{BICLIQUE_SCAN_BUDGET} candidates")
        if min(na, nb) > best_t:
            best_t, best = min(na, nb), (amask, bmask)
    return best


def find_balanced_biclique(G: Graph, t_min: int, mask: Optional[int] = None
                           ) -> Optional[tuple[VertexSet, VertexSet]]:
    """Disjoint A, B in G[mask] with |A| = |B| >= t_min and A complete to B.

    mask None means every vertex of G. Exact search (None certifies
    nonexistence) for at most 20 vertices, greedy seed-edge completion
    beyond; greedy None is not a nonexistence proof. The greedy search drops
    a seed once it cannot beat the best so far, and returns the same sides
    as growing every seed to the end.
    """
    mask = vertex_mask(G, mask)
    if t_min < 1:
        raise ValueError("t_min must be at least 1")
    search = _biclique_exact if mask.bit_count() <= 20 else _biclique_greedy
    a_mask, b_mask = search(G, mask)
    t = min(a_mask.bit_count(), b_mask.bit_count())
    if t < t_min:
        return None
    return tuple(bits(a_mask))[:t], tuple(bits(b_mask))[:t]


# ---------------------------------------------------------------------------
# Half-clique-free subgraphs: dense graphs yield a balanced biclique one of
# whose sides must avoid K_{ceil(r/2)}; sparse graphs recurse by separator.

def half_clique_free_subgraph(G: Graph, r: int,
                              params: AlgorithmParams = DEFAULT_PARAMS
                              ) -> ExtractionWitness:
    if r < 3:
        raise ValueError("forbidden clique size r must be at least 3")
    _verify_no_clique(G, r)
    bound = half_clique_floor(G.n, params.c)
    p_half = (r + 1) // 2

    def step(mask: int) -> Optional[int]:
        # A dense G[mask] with a large balanced biclique keeps a side that
        # avoids K_{p_half}; two such cliques would assemble a K_r.
        nm = mask.bit_count()
        if edges_in_mask(G, mask) < params.c * params.c2 * nm * nm / math.log2(nm) ** 2:
            return None
        found = find_balanced_biclique(G, math.ceil(half_clique_floor(nm, params.c)),
                                       mask=mask)
        if found is None:
            return None
        a_mask, b_mask = mask_of(found[0]), mask_of(found[1])
        return a_mask if clique_in_mask(G, a_mask, p_half) is None else b_mask

    w = _divide(G, G.full_mask, params, step)
    witness = ExtractionWitness(
        "kp_free", tuple(bits(w)),
        {"p": p_half, "source": "balanced_biclique", "bound": bound})
    validate_witness(G, witness)
    return witness


# ---------------------------------------------------------------------------
# Dense cores.

def dense_core(G: Graph, epsilon: float,
               params: AlgorithmParams = DEFAULT_PARAMS) -> ExtractionWitness:
    """Subset V' with average degree d' >= (1-eps)*d and |V'| <= max(1, C*d')."""
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    C = Fraction(params.C_refine(epsilon))
    d_full = average_degree(G)

    @cache  # read again as the next step's mask, and for the core at the end
    def density(side: int) -> Fraction:
        return Fraction(2 * edges_in_mask(G, side), side.bit_count())

    def step(mask: int) -> Union[int, tuple[int, Step]]:
        # Stop at |V'| <= C*d', or follow the denser side V_i | S; no side is
        # empty, as _split_by_separator turns V_j = mask into S = mask.
        if density(mask) >= Fraction(mask.bit_count()) / C:
            return mask
        s_mask, v1, v2 = _split_by_separator(G, mask, params)
        denser, other = sorted((v1 | s_mask, v2 | s_mask), key=density, reverse=True)
        chosen = other if denser == mask else denser
        if chosen == mask:
            raise RefinementFailed("separator produced no strictly smaller side")
        return chosen, step

    mask = _divide(G, G.full_mask, params, step)
    d_prime = density(mask)
    # validate_witness re-checks the stop at |V'| <= max(1, C*d'); only the density can fail.
    eps = Fraction(epsilon)
    if d_prime < (1 - eps) * d_full:
        raise RefinementFailed(
            f"core density {float(d_prime):.4f} fell below (1-eps)*d = "
            f"{float((1 - eps) * d_full):.4f}; a larger c1, hence a larger C, "
            "stops the refinement on a larger core")
    witness = ExtractionWitness(
        "dense_core", tuple(bits(mask)),
        {"epsilon": epsilon, "C": float(C), "d": d_full, "d_prime": d_prime})
    validate_witness(G, witness)
    return witness


# ---------------------------------------------------------------------------
# Complete multipartite covers, built on the complement graph: vertices in
# different complement components are pairwise adjacent in G.

def multipartite_cover(G: Graph, alpha: float, params: AlgorithmParams = DEFAULT_PARAMS,
                       mask: Optional[int] = None) -> MultipartiteCover:
    """Complete multipartite cover of G[mask] (all of G when mask is None); n
    and the edge floor alpha*n^2 count inside mask, parts are in G's indices."""
    mask = vertex_mask(G, mask)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if not _finite(alpha):
        raise ValueError("alpha must be finite")
    n = mask.bit_count()
    if n < 2:
        raise ValueError("need at least two vertices")
    degree = {v: (G.adj[v] & mask).bit_count() for v in bits(mask)}
    m = sum(degree.values()) // 2
    if m < alpha * n * n:
        raise PreconditionViolated(
            f"graph has {m} edges, below the alpha*n^2 = {alpha * n * n:.2f} floor")
    # Peel the vertex with the most complement neighbours in work, which is
    # the one with the fewest neighbours in G, until the complement falls apart.
    # Were it apart, its smallest component C would be complete in G to the
    # rest of work, so a vertex of C would have at least |work| / 2 neighbours
    # in work, and no fewer in mask.
    # Above twice the largest degree in G[mask] the complement is thus
    # connected, and the first n - 2*max(degree) vertices are peeled unseen.
    work = mask
    order = peel_order(G, mask, fewest=True, degree=degree)
    for _ in range(n - 2 * max(degree.values())):
        work &= ~(1 << next(order))
    while len(comps := components_masked(G, work, complement=True)) < 2:
        if work.bit_count() <= 1:
            raise NoCoverFound("complement peeling exhausted the vertex set")
        work &= ~(1 << next(order))
    k = len(comps)
    ordered = sorted(comps, key=lambda c: (-c.bit_count(), c & -c))
    for p in range(1, k.bit_length()):
        t = 1 << p
        groups = [0] * t
        loads = [0] * t
        for comp in ordered:
            g = min(range(t), key=lambda i: (loads[i], i))
            groups[g] |= comp
            loads[g] += comp.bit_count()
        threshold = params.c_dblprime * alpha * n / t ** 2
        if min(loads) >= max(1, threshold):
            cover = MultipartiteCover(
                parts=tuple(tuple(bits(g)) for g in groups), alpha=alpha)
            validate_multipartite_cover(G, cover, params.c_dblprime, mask)
            return cover
    raise NoCoverFound("no power-of-two grouping met the part-size threshold")


# ---------------------------------------------------------------------------
# Independent and K_{2^q}-free ("2^q-independent") sets by double induction:
# sparse graphs split by separator, dense graphs split by multipartite cover
# into parts, one of which must avoid the next forbidden clique size.

def _power_size(mask: int, e: int) -> int:
    """2^e, or |mask| + 1 when 2^e is larger: no clique inside mask reaches
    either, so both sizes give the same clique search. A huge e never builds
    2^e."""
    size = mask.bit_count()
    return 1 << e if size >> e else size + 1


def _qindep(G: Graph, mask: int, s: int, q: int, params: AlgorithmParams
            ) -> tuple[int, Optional[VertexSet], int]:
    """K_{2^q}-free subset of G[mask] as a mask; also the latest of the
    largest cliques met on the way and the count of cover fallbacks. The
    caller has found no K_{2^s} in G, so none in G[mask], at its entry."""
    if clique_in_mask(G, mask, _power_size(mask, q)) is None:
        # Already free of the target clique: the whole vertex set qualifies.
        return mask, None, 0
    found: Optional[VertexSet] = None
    fallbacks = 0

    def step_at(s: int) -> Step:
        # The step for a G[mask] that is K_{2^s}-free with s > q.
        def step(mask: int) -> Union[int, None, tuple[int, Step]]:
            nonlocal found, fallbacks
            nm = mask.bit_count()
            if nm <= 10:
                # Base case: keep everything when the block is already clique-free.
                if clique_in_mask(G, mask, _power_size(mask, q)) is None:
                    return mask
                return mask & -mask
            alpha = finite_value(
                lambda: params.c_prime * ((s + 1 - q) / math.log2(nm)) ** 2,
                "dense-branch trigger alpha")
            if edges_in_mask(G, mask) <= alpha * nm * nm:
                return None
            try:
                cover = multipartite_cover(G, alpha, params, mask)
            except NoCoverFound:
                fallbacks += 1
                return None
            # t <= k complement components; one vertex of each is a K_k, so k < 2^s.
            if cover.p >= s:
                raise InternalBoundViolation(
                    "cover part count contradicts the clique-free certificate")
            # One part avoids K_{2^target}; the parts' cliques assemble one
            # clique, since the parts are complete to each other.
            target = s - cover.p
            chosen: Optional[int] = None
            part_cliques: list[VertexSet] = []
            for part in cover.parts:
                part_mask = mask_of(part)
                clique = clique_in_mask(G, part_mask, _power_size(part_mask, target))
                if clique is not None:
                    part_cliques.append(clique)
                elif chosen is None:
                    chosen = part_mask
            if part_cliques:
                assembled = tuple(sorted(v for cl in part_cliques for v in cl))
                if found is None or len(assembled) >= len(found):
                    found = assembled
            if chosen is None:
                raise InternalBoundViolation(
                    "every cover part contains the forbidden clique")
            return chosen if target <= q else (chosen, step_at(target))

        return step

    return _divide(G, mask, params, step_at(s)), found, fallbacks


def _independent(G: Graph, s: int, q: int, params: AlgorithmParams, kind: str,
                 certificate: dict) -> ExtractionWitness:
    """The body of independent_set and q_independent_set."""
    _verify_no_clique(G, _power_size(G.full_mask, s))
    res, found, fallbacks = _qindep(G, G.full_mask, s, q, params)
    certificate.update(fallbacks=fallbacks, found_clique=found)
    witness = ExtractionWitness(kind, tuple(bits(res)), certificate)
    validate_witness(G, witness)
    return witness


def independent_set(G: Graph, s: int,
                    params: AlgorithmParams = DEFAULT_PARAMS) -> ExtractionWitness:
    if s < 1:
        raise ValueError("s must be at least 1")
    return _independent(G, s, 1, params, "independent",
                        {"s": s, "floor": independent_floor(G.n, s, params.c)})


def q_independent_set(G: Graph, s: int, q: int,
                      params: AlgorithmParams = DEFAULT_PARAMS) -> ExtractionWitness:
    if q < 1 or s < q:
        raise ValueError("need s >= q >= 1")
    # The certificate records p = 2^q, so q is held to a finite float's range,
    # as the floors are, before 2^q is built.
    finite_value(lambda: math.ldexp(1.0, q), "forbidden clique size 2^q")
    return _independent(G, s, q, params, "q_independent",
                        {"s": s, "q": q, "p": 2 ** q,
                         "floor": q_independent_floor(G.n, s, q, params.c)})


# ---------------------------------------------------------------------------
# Color-or-clique dichotomy.

class _CliqueFound(Exception):
    def __init__(self, vertices: VertexSet) -> None:
        super().__init__(f"clique of size {len(vertices)}")
        self.vertices = vertices


def choose_delta(epsilon: float, c: float) -> float:
    """Largest delta with 2*delta*log2(1/(c*delta)) < epsilon/2 and
    x < 2^(epsilon*x/2) for every x >= 1/delta."""
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")

    def ok(d: float) -> bool:
        if d <= 0:
            return True
        if c * d >= 1:
            return False
        if 2 * d * math.log2(1 / (c * d)) >= epsilon / 2:
            return False
        x0 = 1 / d
        if x0 < 2 / (epsilon * math.log(2)):
            return False
        return epsilon * x0 / 2 > math.log2(x0)

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo if lo > 0 else 1e-9


def color_or_clique(G: Graph, epsilon: float,
                    params: AlgorithmParams = DEFAULT_PARAMS) -> ExtractionWitness:
    """Either a proper coloring with at most n^epsilon classes or a clique of
    size at least n^delta; the achieved branch is verified before returning."""
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    n = G.n
    delta = params.delta if params.delta is not None else choose_delta(epsilon, params.c)
    clique_threshold = finite_value(lambda: n ** delta, "clique threshold n^delta")
    s = max(1, math.ceil(delta * math.log2(n))) if n >= 2 else 1

    def extractor(remaining: int) -> int:
        res, found, _ = _qindep(G, remaining, s, 1, params)
        if found and len(found) >= clique_threshold:
            raise _CliqueFound(found)
        return res

    try:
        clique = clique_in_mask(G, G.full_mask, _power_size(G.full_mask, s))
        if clique is not None:
            raise _CliqueFound(clique)
        coloring = greedy_color(G, extractor)
    except _CliqueFound as exc:
        _check_clique(G, exc.vertices)
        if len(exc.vertices) < clique_threshold:
            raise InternalBoundViolation(
                f"clique of size {len(exc.vertices)} below n^delta = {clique_threshold}")
        return ExtractionWitness(
            "clique", exc.vertices,
            {"epsilon": epsilon, "delta": delta, "s": s,
             "threshold": clique_threshold, "size": len(exc.vertices)})
    if coloring.num_colors > n ** epsilon:
        raise InternalBoundViolation(
            f"{coloring.num_colors} color classes exceed n^epsilon = {n ** epsilon:.2f}")
    return ExtractionWitness(
        "coloring", coloring.classes,
        {"epsilon": epsilon, "delta": delta, "s": s,
         "num_colors": coloring.num_colors})
