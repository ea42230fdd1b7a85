"""Acceptance gate: nine property-based criteria with exact-oracle baselines.

Each test prints one summary line; pytest -v adds its own pass/fail verdict
per criterion.
"""

import math
import random
import statistics
import time
from itertools import combinations

from stringraph import (Graph, choose_delta, color_or_clique, crossing_graph,
                        dense_core, edge_bound, find_balanced_biclique,
                        find_balanced_separator, find_clique, fit_loglog_slope,
                        half_clique_free_subgraph, independent_set,
                        intersection_graph, is_r_quasiplanar,
                        kr1_free_subgraph, max_balanced_biclique_exact,
                        max_clique_exact, max_independent_set_exact,
                        max_kp_free_subset_exact, multipartite_cover,
                        pairwise_crossing_exact, q_independent_set,
                        separator_size_survey, sparse_subgraph,
                        validate_coloring,
                        validate_partition, validate_witness)
from stringraph.cli import main
from stringraph.extract import independent_floor, validate_multipartite_cover
from stringraph.generators import GeneratorSpec, generate
from stringraph.graph import Coloring, induced_subgraph
from tests.conftest import er_graph
from tests.reference import convex_interleaving_graph, intersection_graph_reference
from tests.test_separator import _min_separator_size

_FAMILY_KINDS = ("random_segments", "random_polylines", "grid_paths",
                 "disjoint_segments", "all_crossing_segments")


def _probe_free_s(G: Graph, cap: int = 4) -> int:
    """Smallest s <= cap with no K_{2^s} in G, or 0 when none qualifies."""
    for s in range(1, cap + 1):
        if find_clique(G, 2 ** s) is None:
            return s
    return 0


def _probe_free_r(G: Graph, cap: int = 8) -> int:
    """Smallest r >= 3 with no K_r in G, or 0 when none qualifies."""
    for r in range(3, cap + 1):
        if find_clique(G, r) is None:
            return r
    return 0


def test_criterion_1_intersection_graph_matches_brute_force():
    started = time.perf_counter()
    checked = 0
    for i in range(500):
        kind = _FAMILY_KINDS[i % len(_FAMILY_KINDS)]
        count = 2 + i % 11  # n <= 12 strings
        family = generate(GeneratorSpec(kind=kind, count=count, seed=i))
        assert intersection_graph(family) == intersection_graph_reference(family)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 500
    assert elapsed < 30.0
    print(f"criterion 1: pass (500 families, {elapsed:.1f}s)")


def test_criterion_2_separator_validator_and_exact_minimum():
    validated = 0
    for i in range(150):
        count = 20 + i % 41
        family = generate(GeneratorSpec(kind="random_segments", count=count,
                                        seed=1000 + i))
        G = intersection_graph(family)
        part = find_balanced_separator(G)
        validate_partition(G, part)
        validated += 1
    for i in range(350):
        rng = random.Random(2000 + i)
        n = rng.randrange(2, 301)
        p = rng.choice((1.0 / n, 2.0 / n, 4.0 / n, 0.1, 0.3))
        G = er_graph(n, p, 2000 + i)
        part = find_balanced_separator(G)
        validate_partition(G, part)
        validated += 1
    assert validated == 500
    exact_checked = 0
    for i in range(40):
        rng = random.Random(3000 + i)
        G = er_graph(rng.randrange(2, 11), rng.uniform(0.1, 0.9), 3000 + i)
        part = find_balanced_separator(G, "exact")
        validate_partition(G, part)
        assert part.size == _min_separator_size(G)
        exact_checked += 1
    print(f"criterion 2: pass (500 validated, {exact_checked} exact minima)")


def test_criterion_3_separator_scaling_exponent():
    started = time.perf_counter()
    spec = GeneratorSpec(kind="random_segments", count=50, seed=0)
    rows = separator_size_survey(spec, (50, 100, 200, 400), trials=20)
    beta = fit_loglog_slope([(m, sep) for _, m, sep in rows])
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    assert 0.4 <= beta <= 0.65, f"beta {beta} outside [0.4, 0.65]"
    print(f"criterion 3: pass (beta={beta:.3f}, {elapsed:.1f}s)")


def test_criterion_4_thousand_witnesses_all_validate():
    ops = ("independent", "qindep", "kr1free", "halfclique", "densecore",
           "multipartite")
    passed = 0
    i = 0
    while passed < 1000:
        op = ops[passed % len(ops)]
        rng = random.Random(5000 + i)
        i += 1
        n = rng.randrange(6, 33)
        G = er_graph(n, rng.uniform(0.05, 0.45), 5000 + i)
        if op == "independent":
            s = _probe_free_s(G)
            if not s:
                continue
            w = independent_set(G, s)
            validate_witness(G, w)
        elif op == "qindep":
            s = _probe_free_s(G)
            if not s:
                continue
            w = q_independent_set(G, s, max(1, s - 1))
            validate_witness(G, w)
        elif op == "kr1free":
            r = _probe_free_r(G)
            if not r:
                continue
            w = kr1_free_subgraph(G, r)
            validate_witness(G, w)
        elif op == "halfclique":
            r = _probe_free_r(G)
            if not r:
                continue
            w = half_clique_free_subgraph(G, r)
            validate_witness(G, w)
        elif op == "densecore":
            w = dense_core(G, 0.5)
            validate_witness(G, w)
        else:
            if G.m == 0:
                continue
            alpha = min(0.2, 0.5 * G.m / (n * n))
            cov = multipartite_cover(G, alpha)
            validate_multipartite_cover(G, cov, 0.05)
        passed += 1
    assert passed == 1000
    print(f"criterion 4: pass (1000 witnesses validated, {i} instances drawn)")


def test_criterion_5_oracle_dominance_and_floor():
    checked = 0
    floor_checked = 0
    i = 0
    while checked < 200:
        rng = random.Random(6000 + i)
        i += 1
        n = rng.randrange(4, 17)
        if i % 3:
            G = er_graph(n, rng.uniform(0.1, 0.6), 6000 + i)
        else:
            family = generate(GeneratorSpec(kind="random_segments", count=n,
                                            seed=6000 + i))
            G = intersection_graph(family)
        s = _probe_free_s(G)
        if not s:
            continue
        w = independent_set(G, s)
        mis = len(max_independent_set_exact(G))
        assert len(w.vertices) <= mis
        floor = independent_floor(n, s, 0.01)
        assert floor == max(1, math.floor(
            n * (0.01 * s / math.log2(n)) ** (2 * s - 2))) if n >= 2 else floor == 1
        assert len(w.vertices) >= floor
        floor_checked += 1
        if s >= 2:
            q = s - 1
            wq = q_independent_set(G, s, q)
            assert len(wq.vertices) <= len(max_kp_free_subset_exact(G, 2 ** q))
        r = _probe_free_r(G)
        if r:
            wk = kr1_free_subgraph(G, r)
            assert len(wk.vertices) <= len(max_kp_free_subset_exact(G, r - 1))
            wh = half_clique_free_subgraph(G, r)
            assert len(wh.vertices) <= len(
                max_kp_free_subset_exact(G, (r + 1) // 2))
        checked += 1
    assert checked == 200 and floor_checked == 200
    print(f"criterion 5: pass (200 instances, floors on {floor_checked})")


def test_criterion_6_dichotomy_always_verified_and_polynomial():
    sizes = (50, 100, 200, 400)
    times = {n: [] for n in sizes}
    runs = 0
    for i in range(100):
        n = sizes[i % len(sizes)]
        eps = (0.5, 0.8)[(i // len(sizes)) % 2]
        G = er_graph(n, 3.0 / n, 8000 + i)
        started = time.perf_counter()
        w = color_or_clique(G, eps)
        times[n].append(time.perf_counter() - started)
        delta = w.certificate["delta"]
        assert delta == choose_delta(eps, 0.01)
        if w.kind == "clique":
            assert all(G.has_edge(u, v) for u, v in combinations(w.vertices, 2))
            assert len(w.vertices) >= n ** delta
        else:
            assert w.kind == "coloring"
            validate_coloring(G, Coloring(tuple(tuple(c) for c in w.vertices)))
            assert len(w.vertices) <= n ** eps
        runs += 1
    assert runs == 100
    slope = fit_loglog_slope([(n, statistics.median(ts))
                              for n, ts in times.items()])
    assert slope <= 4.0, f"wall-time slope {slope} exceeds 4"
    print(f"criterion 6: pass (100 verified branches, time slope {slope:.2f})")


def test_criterion_7_quasiplanar_pipeline_on_convex_drawings():
    for n in range(5, 10):
        D = generate(GeneratorSpec(kind="convex_chords", count=n, seed=1))
        cg = crossing_graph(D)
        assert cg == convex_interleaving_graph(n)
        for r in (2, 3, 4):
            ok, witness = is_r_quasiplanar(cg, r)
            oracle = pairwise_crossing_exact(D, r)
            assert ok == (oracle is None)
            if witness is not None:
                assert all(cg.has_edge(a, b)
                           for a, b in combinations(witness, 2))
        w = sparse_subgraph(cg, 3)
        for quad in combinations(w.vertices, 4):
            assert not all(cg.has_edge(a, b)
                           for a, b in combinations(quad, 2))
    bound = edge_bound(256, 3, 1)
    want = 256 * (8 / 3) ** 2
    assert abs(bound - want) <= 1e-9 * want
    print("criterion 7: pass (convex 5..9 pipeline, bound exact)")


def test_criterion_8_biclique_branch_matches_oracle():
    instances = 0
    for i in range(40):
        rng = random.Random(7000 + i)
        n = rng.randrange(8, 17)
        base = er_graph(n, rng.uniform(0.1, 0.4), 7000 + i)
        t = rng.randrange(2, min(5, n // 2) + 1)
        verts = rng.sample(range(n), 2 * t)
        planted = [(u, v) for u in verts[:t] for v in verts[t:]]
        edges = set(tuple(sorted(e)) for e in base.edges() + planted)
        G = Graph.from_edges(n, sorted(edges))
        got = find_balanced_biclique(G, 1)
        A, B = max_balanced_biclique_exact(G)
        assert got is not None and len(got[0]) == len(A)
        assert len(A) >= t
        r = _probe_free_r(G)
        if r:
            w = half_clique_free_subgraph(G, r)
            sub = induced_subgraph(G, w.vertices)
            p_half = (r + 1) // 2
            assert len(max_clique_exact(sub)) < p_half
        instances += 1
    assert instances == 40
    print("criterion 8: pass (40 planted instances)")


def test_criterion_9_reports_byte_identical_across_runs(tmp_path):
    cycle = tmp_path / "cycle.txt"
    cycle.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    dense = tmp_path / "dense.txt"
    octa = [(u, v) for u in range(6) for v in range(u + 1, 6) if v - u != 3]
    dense.write_text("6 12\n" + "".join(f"{u} {v}\n" for u, v in octa))
    fam = tmp_path / "fam.json"
    main(["gen", "--kind", "random_segments", "--count", "10", "--seed", "4",
          "-o", str(fam)])
    drawing = tmp_path / "d.json"
    main(["gen", "--kind", "convex_chords", "--count", "6", "--seed", "1",
          "-o", str(drawing)])
    commands = [
        ["gen", "--kind", "random_polylines", "--count", "8", "--seed", "3"],
        ["build-graph", str(fam)],
        ["build-graph", str(drawing)],
        ["separator", str(cycle)],
        ["extract", "independent", str(cycle), "--s", "2"],
        ["extract", "qindep", str(cycle), "--s", "3", "--q", "2"],
        ["extract", "kr1free", str(cycle), "--r", "3"],
        ["extract", "halfclique", str(cycle), "--r", "4"],
        ["extract", "densecore", str(dense), "--epsilon", "0.5"],
        ["extract", "multipartite", str(dense), "--alpha", "0.3"],
        ["color-or-clique", str(dense), "--epsilon", "0.5"],
        ["qp", "check", str(drawing), "--r", "3"],
        ["qp", "sparse", str(drawing), "--s", "3"],
        ["qp", "bound", "--n", "256", "--s", "3", "--edges", "1820"],
        ["oracle", "mis", str(cycle)],
        ["oracle", "clique", str(cycle)],
        ["oracle", "kpfree", str(cycle), "--p", "2"],
        ["oracle", "sep", str(cycle)],
        ["oracle", "biclique", str(dense)],
        ["oracle", "crossings", str(drawing), "--r", "3"],
        ["survey", "--kind", "random_segments", "--sizes", "20,40",
         "--trials", "2", "--seed", "3"],
    ]
    for ci, cmd in enumerate(commands):
        outputs = []
        for rep in range(3):
            dest = tmp_path / f"out_{ci}_{rep}"
            code = main([*cmd, "-o", str(dest)])
            assert code == 0, (cmd, code)
            outputs.append(dest.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], cmd
    print(f"criterion 9: pass ({len(commands)} commands, 3 runs each)")
