"""Constructive extraction routines and their witness validators."""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from stringraph import (AlgorithmParams, DegenerateGraph, DomainError, ExtractionWitness,
                        ExtractorViolation, Graph, InternalBoundViolation,
                        MultipartiteCover, NoCoverFound, PreconditionViolated, choose_delta, color_or_clique,
                        dense_core, find_balanced_biclique,
                        half_clique_free_subgraph, independent_set,
                        kr1_free_subgraph, multipartite_cover,
                        q_independent_set, validate_multipartite_cover,
                        validate_witness)
from stringraph.extract import (_split_by_separator, cover_floor,
                                half_clique_floor, independent_floor,
                                q_independent_floor)
from stringraph.generators import GeneratorSpec, generate
from stringraph.geometry import intersection_graph
from stringraph.separator import STRATEGIES, find_balanced_separator
from stringraph import extract as extract_module
from stringraph.graph import (bits, clique_in_mask, components_masked, edges_in_mask,
                              induced_subgraph, is_independent, mask_of)
from stringraph.oracles import max_clique_exact
from tests.conftest import FAMILIES, er_graph, er_masked, family_graph
from tests.reference import convex_interleaving_graph, most_adjacent_reference


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n):
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def test_params_validation():
    with pytest.raises(ValueError):
        AlgorithmParams(c1=0)
    with pytest.raises(ValueError):
        AlgorithmParams(c_prime=-0.5)
    # epsilon is an argument of dense_core and color_or_clique, not a constant.
    with pytest.raises(TypeError):
        AlgorithmParams(epsilon=0.5)
    p = AlgorithmParams()
    assert p.C_refine(0.5) >= (12 * p.c1) ** 2


def test_floor_formulas():
    assert independent_floor(1, 2, 0.01) == 1
    n = 10 ** 6
    want = math.floor(n * (0.01 * 2 / math.log2(n)) ** 2)
    assert independent_floor(n, 2, 0.01) == max(1, want)
    assert cover_floor(16, 1.0) == 1.0
    assert cover_floor(2 ** 20, 1.0) == 2 ** 20 / 400
    assert half_clique_floor(2 ** 10, 1.0) == 2 ** 10 / 1000
    assert q_independent_floor(8, 2, 1, 0.01) == 1


def test_empty_graph_is_answered_with_floor_zero():
    E = Graph.from_edges(0, [])
    for floor in (cover_floor(0, 0.01), half_clique_floor(0, 0.01),
                  independent_floor(0, 2, 0.01), q_independent_floor(0, 3, 2, 0.01)):
        assert floor == 0
    assert (cover_floor(1, 0.01), independent_floor(1, 2, 0.01)) == (1.0, 1)
    for w, floor in ((independent_set(E, 2), "floor"), (q_independent_set(E, 3, 2), "floor"),
                     (kr1_free_subgraph(E, 3), "bound"),
                     (half_clique_free_subgraph(E, 3), "bound")):
        assert w.vertices == () and w.certificate[floor] == 0
        validate_witness(E, w)
    w = color_or_clique(E, 0.5)
    assert (w.kind, w.vertices, w.certificate["num_colors"]) == ("coloring", (), 0)
    validate_witness(E, w)
    # Average degree is undefined without a vertex, and a cover has two parts.
    with pytest.raises(DegenerateGraph):
        dense_core(E, 0.5)
    with pytest.raises(ValueError, match="at least two vertices"):
        multipartite_cover(E, 0.1)


def test_independent_set_on_edgeless_graph_keeps_everything():
    G = Graph.from_edges(12, [])
    w = independent_set(G, 1)
    assert w.kind == "independent" and len(w.vertices) == 12
    validate_witness(G, w)


def test_independent_set_on_cycle():
    G = _cycle(5)
    w = independent_set(G, 2)
    validate_witness(G, w)
    assert is_independent(G, w.vertices)
    assert len(w.vertices) >= independent_floor(5, 2, 0.01)


def test_independent_set_precondition_reports_clique():
    G = _complete(4)
    with pytest.raises(PreconditionViolated) as exc:
        independent_set(G, 2)
    assert exc.value.witness is not None
    assert exc.value.witness.kind == "clique"
    assert len(exc.value.witness.vertices) == 4


def test_q_independent_set_shortcut_when_target_absent():
    # No K_4 anywhere, so every edge already qualifies.
    G = _cycle(6)
    w = q_independent_set(G, 3, 2)
    assert len(w.vertices) == 6
    assert w.certificate["p"] == 4 and w.certificate["found_clique"] is None
    validate_witness(G, w)


def test_q_independent_set_recursion_output_is_kp_free(rng):
    for trial in range(10):
        G = er_graph(14, 0.45, 700 + trial)
        if clique_in_mask(G, G.full_mask, 8) is not None:
            continue
        w = q_independent_set(G, 3, 2)
        validate_witness(G, w)
        assert clique_in_mask(G, mask_of(w.vertices), 4) is None
        assert len(w.vertices) >= q_independent_floor(14, 3, 2, 0.01)


@pytest.mark.parametrize("kind,fallbacks,size", [
    ("random_segments", 4, 5),
    ("grid_paths", 6, 8),
])
def test_independent_set_counts_cover_fallbacks(kind, fallbacks, size):
    # A part-size constant this large leaves no multipartite cover, so every
    # dense block falls back to the separator split and is counted.
    G = intersection_graph(generate(GeneratorSpec(kind, 60, seed=3)))
    w = independent_set(G, 4, AlgorithmParams(c_dblprime=1e3))
    assert (w.certificate["fallbacks"], len(w.vertices)) == (fallbacks, size)
    assert w.certificate["found_clique"] is None


def test_q_independent_set_argument_checks():
    G = _cycle(6)
    with pytest.raises(ValueError):
        q_independent_set(G, 2, 3)  # q must not exceed s
    with pytest.raises(ValueError):
        q_independent_set(G, 2, 0)


def test_kr1_free_subgraph_on_triangle_free_graph():
    G = _cycle(5)
    w = kr1_free_subgraph(G, 3)
    validate_witness(G, w)
    assert is_independent(G, w.vertices)
    assert len(w.vertices) >= 1


def test_kr1_free_subgraph_precondition_and_arguments():
    with pytest.raises(PreconditionViolated) as exc:
        kr1_free_subgraph(_complete(4), 3)
    assert exc.value.witness.kind == "clique"
    with pytest.raises(ValueError):
        kr1_free_subgraph(_cycle(5), 2)


def _assert_apexes_cover(G, w):
    """Each component of G[W] with two or more vertices lies in the
    neighborhood of the apex recorded under its lowest vertex."""
    apexes = w.certificate["apexes"]
    for comp in components_masked(G, mask_of(w.vertices)):
        if comp.bit_count() > 1:
            apex = apexes[(comp & -comp).bit_length() - 1]
            assert G.adj[apex] & comp == comp


def test_neighborhood_cover_on_star_needs_no_apex():
    star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    w = kr1_free_subgraph(star, 3)
    assert w.vertices == (1, 2, 3, 4, 5)
    assert w.certificate["apexes"] == {}
    validate_witness(star, w)


def test_neighborhood_cover_validates_on_random_graphs(rng):
    for trial in range(15):
        G = er_graph(rng.randrange(2, 25), rng.uniform(0.1, 0.6), 800 + trial)
        w = kr1_free_subgraph(G, max(3, len(max_clique_exact(G)) + 1))
        validate_witness(G, w)
        _assert_apexes_cover(G, w)
        assert len(w.vertices) >= cover_floor(G.n, 0.01)


def test_half_clique_free_subgraph():
    pete_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                  (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                  (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    G = Graph.from_edges(10, pete_edges)
    w = half_clique_free_subgraph(G, 4)
    validate_witness(G, w)
    assert clique_in_mask(G, mask_of(w.vertices), 2) is None
    with pytest.raises(PreconditionViolated):
        half_clique_free_subgraph(_complete(6), 4)
    with pytest.raises(ValueError):
        half_clique_free_subgraph(G, 2)


def test_split_sides_are_smaller_than_the_mask():
    # On two vertices a balanced separator may put both into one side, which
    # the recursions would split again forever.
    for G in (Graph.from_edges(2, []), Graph.from_edges(2, [(0, 1)]),
              er_graph(6, 0.3, 2)):
        for strategy in STRATEGIES:
            params = AlgorithmParams(separator_strategy=strategy)
            for mask in range(1, 1 << G.n):
                s_mask, v1, v2 = _split_by_separator(G, mask, params)
                assert s_mask | v1 | v2 == mask
                assert v1 != mask and v2 != mask
                assert not any(G.adj[v] & v2 for v in range(G.n) if v1 >> v & 1)


def test_degree_peel_recursions_terminate_on_sparse_graphs():
    params = AlgorithmParams(separator_strategy="degree_peel")
    for seed in range(20):
        G = er_graph(5, 0.2, seed)
        for w in (half_clique_free_subgraph(G, 5, params),
                  kr1_free_subgraph(G, 5, params)):
            validate_witness(G, w)
            assert w.vertices


def test_dense_core_on_edgeless_graphs_under_degree_peel():
    params = AlgorithmParams(separator_strategy="degree_peel")
    for n in range(2, 7):
        G = Graph.from_edges(n, [])
        w = dense_core(G, 0.5, params)
        validate_witness(G, w)
        assert len(w.vertices) == 1


def test_dense_core_follows_the_separator_when_the_denser_side_is_everything():
    # bfs_layer leaves V1 empty here, so V2 | S is the whole vertex set and
    # the denser side; the refinement follows S instead, which stops at once.
    G = er_graph(12, 0.6, 1)
    part = find_balanced_separator(G, "bfs_layer")
    whole, s_mask = mask_of(part.V2 + part.S), mask_of(part.S)
    assert not part.V1 and whole == G.full_mask
    assert 2 * G.m / G.n > 2 * edges_in_mask(G, s_mask) / len(part.S)
    w = dense_core(G, 0.5, AlgorithmParams(c1=0.1, separator_strategy="bfs_layer"))
    assert w.vertices == part.S == (2, 3, 7, 8, 11)
    assert w.certificate["d_prime"] == Fraction(18, 5)


@pytest.mark.parametrize("extract", [
    lambda G, p: kr1_free_subgraph(G, 3, p),
    lambda G, p: half_clique_free_subgraph(G, 3, p),
], ids=["kr1free", "halfclique"])
def test_a_separator_of_every_vertex_leaves_the_lowest_vertex(extract):
    # No step fires at c = 1000, and the only separator of K_2 is both
    # vertices: both sides answer empty, and vertex 0 stands in.
    G = _complete(2)
    assert _split_by_separator(G, G.full_mask, AlgorithmParams()) == (0b11, 0, 0)
    assert extract(G, AlgorithmParams(c=1e3)).vertices == (0,)


def test_find_balanced_biclique_modes():
    # Exact search on at most 20 vertices, greedy completion above: K_{3,3}
    # alone, and K_{3,3} with 15 isolated vertices.
    k33_edges = [(u, v + 3) for u in range(3) for v in range(3)]
    for n in (6, 21):
        G = Graph.from_edges(n, k33_edges)
        A, B = find_balanced_biclique(G, 3)
        assert len(A) == len(B) == 3
        assert all(G.has_edge(u, v) for u in A for v in B)
        assert find_balanced_biclique(G, 4) is None
    with pytest.raises(ValueError):
        find_balanced_biclique(G, 0)


def test_dense_core_keeps_complete_graph():
    G = _complete(6)
    w = dense_core(G, 0.5)
    assert len(w.vertices) == 6
    assert w.certificate["d_prime"] == 5
    validate_witness(G, w)


def test_dense_core_on_random_graphs(rng):
    for trial in range(10):
        G = er_graph(rng.randrange(2, 30), rng.uniform(0.2, 0.7), 900 + trial)
        w = dense_core(G, 0.5)
        validate_witness(G, w)
    with pytest.raises(ValueError):
        dense_core(G, 0.0)


def test_multipartite_cover_known_graphs():
    K6 = _complete(6)
    cov = multipartite_cover(K6, 0.4)
    validate_multipartite_cover(K6, cov, 0.05)
    assert cov.parts == ((0, 2, 4), (1, 3, 5))
    octa = Graph.from_edges(6, [(u, v) for u, v in combinations(range(6), 2)
                                if abs(u - v) != 3])
    cov = multipartite_cover(octa, 0.3)
    validate_multipartite_cover(octa, cov, 0.05)
    assert cov.parts == ((0, 2, 3, 5), (1, 4))


def test_multipartite_cover_requires_density():
    sparse = Graph.from_edges(6, [(0, 1)])
    with pytest.raises(PreconditionViolated):
        multipartite_cover(sparse, 0.5)


def test_multipartite_validator_rejects_missing_cross_edge():
    G = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2)])  # 1-3 missing
    bad = MultipartiteCover(parts=((0, 1), (2, 3)), alpha=0.1)
    with pytest.raises(ExtractorViolation):
        validate_multipartite_cover(G, bad, 0.05)


def test_validate_witness_rejects_tampering():
    G = _cycle(5)
    w = independent_set(G, 2)
    forged = ExtractionWitness("independent", (0, 1), w.certificate)
    with pytest.raises(ExtractorViolation):
        validate_witness(G, forged)
    with pytest.raises(ExtractorViolation):
        validate_witness(G, ExtractionWitness("mystery", (), {}))


def test_choose_delta_satisfies_constraints():
    for eps in (0.3, 0.5, 0.8):
        d = choose_delta(eps, 0.01)
        assert d > 0
        assert 2 * d * math.log2(1 / (0.01 * d)) < eps / 2
        x0 = 1 / d
        assert eps * x0 / 2 > math.log2(x0)
    with pytest.raises(ValueError):
        choose_delta(1.5, 0.01)


def test_color_or_clique_edgeless_takes_coloring_branch():
    G = Graph.from_edges(30, [])
    w = color_or_clique(G, 0.5)
    assert w.kind == "coloring" and len(w.vertices) == 1


def test_color_or_clique_clique_branch_with_explicit_delta():
    w = color_or_clique(_complete(6), 0.5, AlgorithmParams(delta=0.5))
    assert w.kind == "clique"
    assert w.vertices == (0, 1, 2, 3)
    assert len(w.vertices) >= 6 ** 0.5


def test_color_or_clique_multiclass_coloring_branch():
    C20 = _cycle(20)
    w = color_or_clique(C20, 0.8, AlgorithmParams(delta=0.3))
    assert w.kind == "coloring"
    assert len(w.vertices) <= 20 ** 0.8


def test_color_or_clique_reports_unprovable_bound():
    # Tight epsilon with a large forced delta leaves no achievable branch.
    with pytest.raises(InternalBoundViolation):
        color_or_clique(_cycle(20), 0.5, AlgorithmParams(delta=0.45))


def test_color_or_clique_default_params_always_verified(rng):
    for trial in range(10):
        G = er_graph(40, rng.uniform(0.1, 0.9), 950 + trial)
        w = color_or_clique(G, 0.5)
        assert w.kind in ("coloring", "clique")
        if w.kind == "clique":
            assert all(G.has_edge(u, v)
                       for u, v in combinations(w.vertices, 2))
            assert len(w.vertices) >= w.certificate["threshold"]
        else:
            assert len(w.vertices) <= 40 ** 0.5


def test_color_or_clique_searches_for_its_clique_once(monkeypatch):
    # s = ceil(0.3 * log2 400) = 3. The seed-3 grid-path graph takes 101 colour
    # rounds, and one K_8 search before them certifies every round's mask.
    G = family_graph("grid_paths", 400, 3)
    sizes = []

    def counted(G, mask, k):
        sizes.append(k)
        return clique_in_mask(G, mask, k)

    monkeypatch.setattr(extract_module, "clique_in_mask", counted)
    with pytest.raises(InternalBoundViolation,
                       match=r"^101 color classes exceed n\^epsilon = 20\.00$"):
        color_or_clique(G, 0.5, AlgorithmParams(delta=0.3))
    assert sizes[0] == 8 and sizes.count(8) == 1


def _peeled_work_reference(G, mask):
    """The loop multipartite_cover's peel replaced: remove the vertex with the
    most complement neighbours, by most_adjacent_reference on the complement,
    until the complement of the rest is disconnected; None when the rest runs
    out."""
    H = G.complement()
    work = mask
    while len(components_masked(H, work)) < 2:
        if work.bit_count() <= 1:
            return None
        work &= ~(1 << most_adjacent_reference(H, work, work))
    return work


def _biclique(a, b):
    return [(u, a + v) for u in range(a) for v in range(b)]


def _tight_cover_instances(rng):
    """Masks at or near twice their largest degree, where the peel that skips
    the component search must stop exactly: K_{a,a} has |mask| = 2Δ and its
    complement is already apart. K_{1,1} is K_2."""
    graphs = []
    for a in range(1, 7):
        graphs.append(Graph.from_edges(2 * a, _biclique(a, a)))
        graphs.append(Graph.from_edges(2 * a + 1, _biclique(a, a) + [(0, 2 * a)]))
    graphs.append(Graph.from_edges(  # K_{2,2,2}
        6, [(u, v) for u, v in combinations(range(6), 2) if v - u != 3]))
    graphs.append(Graph.from_edges(10, [(i, i + 5) for i in range(5)]))
    graphs.append(Graph.from_edges(6, []))
    instances = [(G, G.full_mask) for G in graphs]
    for n in range(4, 11):
        G = convex_interleaving_graph(n)
        instances += [(G, G.full_mask)] + [(G, rng.getrandbits(G.n)) for _ in range(3)]
    return instances


def test_multipartite_cover_peels_like_the_complement_loop(rng):
    # With alpha = 0 the first grouping always qualifies, so the cover is two
    # parts whose union is the peeled set; the grouping is a function of it.
    instances = [(G, mask) for G, mask in er_masked(rng) if mask.bit_count() >= 2]
    for kind in FAMILIES:
        G = family_graph(kind, 200, 7)
        instances += [(G, G.full_mask), (G, rng.getrandbits(G.n))]
    instances += [(G, mask) for G, mask in _tight_cover_instances(rng)
                  if mask.bit_count() >= 2]
    for G, mask in instances:
        want = _peeled_work_reference(G, mask)
        if want is None:
            with pytest.raises(NoCoverFound):
                multipartite_cover(G, 0.0, mask=mask)
        else:
            cover = multipartite_cover(G, 0.0, mask=mask)
            assert mask_of(v for part in cover.parts for v in part) == want


@pytest.mark.parametrize("kind", FAMILIES)
def test_multipartite_cover_searches_components_below_twice_the_max_degree(
        kind, monkeypatch):
    # While |work| > 2Δ the complement is connected, so the component search
    # starts at |work| = 2Δ and runs at most once per vertex from there.
    G = family_graph(kind, 300, 3)
    calls = []

    def counted(graph, mask, complement=False):
        assert graph is G and complement
        calls.append(mask)
        return components_masked(graph, mask, complement)

    monkeypatch.setattr(extract_module, "components_masked", counted)
    multipartite_cover(G, 0.0)
    max_degree = max(G.degree(v) for v in range(G.n))
    assert 1 <= len(calls) <= 2 * max_degree + 1 < G.n // 2


def test_q_independent_set_holds_q_to_a_finite_float():
    G = Graph.from_edges(3, [(0, 1)])
    w = q_independent_set(G, 1023, 1023)
    assert w.vertices == (0, 1, 2) and w.certificate["p"] == 2 ** 1023
    with pytest.raises(DomainError, match="forbidden clique size 2\\^q"):
        q_independent_set(G, 1024, 1024)


@pytest.mark.parametrize("field,value,message", [
    ("c", math.nan, "c must be finite"),
    ("c1", math.inf, "c1 must be finite"),
    ("c2", math.nan, "c2 must be finite"),
    ("c_prime", math.inf, "c_prime must be finite"),
    ("c_dblprime", math.nan, "c_dblprime must be finite"),
    ("c", 10 ** 400, "c must be finite"),
    ("delta", math.nan, "delta must be finite"),
    ("delta", math.inf, "delta must be finite"),
    ("c", -math.inf, "c must be strictly positive"),
], ids=["c-nan", "c1-inf", "c2-nan", "c_prime-inf", "c_dblprime-nan", "c-int-1e400",
        "delta-nan", "delta-inf", "c-minus-inf"])
def test_params_refuse_non_finite_constants(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AlgorithmParams(**{field: value})


def test_multipartite_cover_refuses_non_finite_alpha():
    G = _complete(4)
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            multipartite_cover(G, alpha)
    with pytest.raises(ValueError, match="^alpha must be nonnegative$"):
        multipartite_cover(G, -math.inf)


def test_floors_and_refinement_constant_refuse_overflow():
    with pytest.raises(DomainError, match="^cover floor is not a finite float"):
        cover_floor(5, 1e308)
    with pytest.raises(DomainError, match="^half-clique floor is not a finite float"):
        half_clique_floor(5, 1e308)
    with pytest.raises(DomainError, match="^refinement constant C is not a finite float"):
        AlgorithmParams(c1=1e200).C_refine(0.5)
    # epsilon ** 2 underflows to zero: the quotient is past any float.
    with pytest.raises(DomainError, match="^refinement constant C is not a finite float"):
        AlgorithmParams().C_refine(1e-200)
    # Both terms underflow to 0.0, and a C of 0 would divide by zero.
    with pytest.raises(DomainError, match="^refinement constant C underflows to 0"):
        AlgorithmParams(c1=1e-200).C_refine(0.5)


def test_extractors_refuse_an_overflowing_floor_before_recursing():
    G = _cycle(5)
    params = AlgorithmParams(c=1e308)
    for extract in (kr1_free_subgraph, half_clique_free_subgraph):
        with pytest.raises(DomainError):
            extract(G, 3, params)
    with pytest.raises(DomainError):
        dense_core(G, 0.5, AlgorithmParams(c1=1e200))


def test_cover_part_count_never_exceeds_the_clique_number(rng):
    # _qindep needs p < s for a cover of a K_{2^s}-free mask. It holds because
    # t is at most the number of complement components, and one vertex from
    # each is a clique of G[mask]; the exact oracle checks t <= omega.
    returned = 0
    for n in range(6, 31):
        for p in (0.5, 0.7, 0.85, 0.95):
            G = er_graph(n, p, rng.randrange(1 << 30))
            for mask in (G.full_mask, rng.getrandbits(n), rng.getrandbits(n)):
                if mask.bit_count() < 2:
                    continue
                for alpha in (0.0, 0.05, 0.2):
                    try:
                        cover = multipartite_cover(G, alpha, mask=mask)
                    except (NoCoverFound, PreconditionViolated):
                        continue
                    returned += 1
                    omega = len(max_clique_exact(induced_subgraph(G, bits(mask))))
                    assert cover.t <= omega
    assert returned >= 100
