from __future__ import annotations

import gc
import random
import sys
from itertools import combinations, permutations, product

import pytest

from ternary_ecc import search
from ternary_ecc.core import (
    Code,
    Word,
    _at_least,
    _columns,
    _iter_bits,
    _pairwise_planes,
    hamming_weight,
    min_hamming_distance,
)
from ternary_ecc.metric import dist_b, min_dist_b
from ternary_ecc.search import (
    BudgetExceededError,
    SearchGraph,
    _binary_hamming_graph,
    build_restricted_graph,
    build_unrestricted_graph,
    exact_clique,
    greedy_clique,
    optimal_binary_code,
    optimal_binary_code_size,
    search_code,
)

from oracles import (
    brute_max_clique,
    brute_max_weight_clique,
    greedy_clique_reference,
    orbit_classes_reference,
    pairwise_dist_b_masks,
)


def word_group(q: int, n: int):
    """The words of length n in lexicographic order, and every coordinate
    permutation combined with every set of per-coordinate 1<->2 swaps (on
    ternary words only), each as the tuple of image indexes of the words."""
    words = list(product(range(q), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    swap = (0, 2, 1)
    swap_sets = product((False, True), repeat=n) if q == 3 else [(False,) * n]
    group = []
    for swapped in swap_sets:
        for perm in permutations(range(n)):
            image = tuple(
                index[tuple(swap[w[p]] if t else w[p] for p, t in zip(perm, swapped))]
                for w in words
            )
            group.append(image)
    return words, group


def _refuse(*args, **kwargs):
    raise AssertionError(f"unexpected call with {args}")


def band_rows(words, lo: int, hi: int | None = None) -> tuple[int, ...]:
    """Rows of lo <= dist_b <= hi (hi None: open) as the graph builder cuts
    them: each word's count planes from _pairwise_planes, read by _at_least."""
    full = (1 << len(words)) - 1
    rows = [0] * len(words)
    for j, planes in _pairwise_planes([w.symbols for w in words], words[0].q, "b"):
        rows[j] = _at_least(full, planes, lo)
        if hi is not None:
            rows[j] &= ~_at_least(full, planes, hi + 1)
    return tuple(rows)


def random_graph(rng: random.Random, v_count: int, density: float) -> SearchGraph:
    """Arbitrary graph over dummy words, for solver-only tests."""
    words = [Word(3, (v % 3, v // 3 % 3, v // 9 % 3, v // 27 % 3)) for v in range(v_count)]
    adj = [0] * v_count
    for a, b in combinations(range(v_count), 2):
        if rng.random() < density:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return SearchGraph(tuple(words), (1,) * v_count, tuple(adj), 1)


class TestGraphBuilders:
    def test_tiny_unrestricted(self):
        graph = build_unrestricted_graph(2, 4)
        assert len(graph.vertices) == 9
        idx = {str(w): i for i, w in enumerate(graph.vertices)}
        assert graph.adj[idx["11"]] >> idx["22"] & 1
        assert graph.adj[idx["12"]] >> idx["21"] & 1
        assert not graph.adj[idx["11"]] >> idx["12"] & 1

    def test_distance_one_gives_complete_graph(self):
        graph = build_unrestricted_graph(5, 1)
        assert len(graph.vertices) == 243
        assert all(mask.bit_count() == 242 for mask in graph.adj)

    def test_weight_window(self):
        graph = build_unrestricted_graph(4, 2, wmin=4, wmax=4)
        assert len(graph.vertices) == 16
        assert all(0 not in w.symbols for w in graph.vertices)
        graph = build_unrestricted_graph(5, 3, wmin=1, wmax=3)
        window = {s for s in product(range(3), repeat=5) if 1 <= 5 - s.count(0) <= 3}
        assert {w.symbols for w in graph.vertices} == window
        # search order: Hamming weight descending, then reverse lexicographic
        expected = sorted(window, key=lambda s: (5 - s.count(0), s), reverse=True)
        assert [w.symbols for w in graph.vertices] == expected
        # vertex weight ascending comes first: A(0, 2) = A(1, 2) = 1 share a class
        graph = build_restricted_graph(5, 3)
        assert sorted(w.symbols for w in graph.vertices) == list(product(range(2), repeat=5))
        keys = [
            (weight, -hamming_weight(w), [-s for s in w.symbols])
            for w, weight in zip(graph.vertices, graph.weights)
        ]
        assert keys == sorted(keys)
        assert [str(w) for w in graph.vertices[:6]] == [
            "10000", "01000", "00100", "00010", "00001", "00000"
        ]
        # a narrow window of a long length is laid out without walking 3^30 words
        graph = build_unrestricted_graph(30, 3, wmax=1)
        assert len(graph.vertices) == 61

    def test_vertex_cap(self, monkeypatch):
        # the count stops at the cap: 2^30000 outer words are refused at once,
        # in a message that names the cap and not the count
        with pytest.raises(BudgetExceededError, match="cap of 20000 vertices") as info:
            build_restricted_graph(30000, 3)
        assert len(str(info.value)) < 100
        monkeypatch.setattr(search, "_MAX_VERTICES", 1000)
        with pytest.raises(BudgetExceededError, match="cap of 1000 vertices"):
            build_unrestricted_graph(9, 2)

    def test_adjacency_matches_metric(self):
        graph = build_unrestricted_graph(3, 3)
        for i, u in enumerate(graph.vertices):
            for j, v in enumerate(graph.vertices):
                expected = i != j and dist_b(u, v) >= 3
                assert bool(graph.adj[i] >> j & 1) == expected

    @pytest.mark.parametrize(
        "mode, n, dbmin, wmin, wmax",
        [
            ("unrestricted", 3, 0, 0, None),
            ("unrestricted", 4, 3, 0, None),
            ("unrestricted", 4, 4, 1, 3),
            ("unrestricted", 5, 5, 2, 4),
            ("restricted", 5, 2, 0, None),
            ("restricted", 6, 3, 0, None),
            ("restricted", 6, 4, 1, 5),
            ("restricted", 7, 5, 3, 7),
            ("unrestricted", 0, 1, 0, None),
            ("restricted", 0, 1, 0, None),
            *(("binary", n, d, 0, None) for n, d in enumerate((1, 1, 2, 3, 3, 3, 4, 3))),
        ],
    )
    def test_masks_match_pairwise_dist_b(self, mode, n, dbmin, wmin, wmax):
        # adjacency is dist_b >= dbmin off the diagonal; a ball is dist_b <= radius
        if mode == "unrestricted":
            graph = build_unrestricted_graph(n, dbmin, wmin, wmax)
        elif mode == "restricted":
            graph = build_restricted_graph(n, dbmin, wmin, wmax)
        else:
            graph = _binary_hamming_graph(n, dbmin)
        words = graph.vertices
        expected_adj = tuple(
            mask & ~(1 << i)
            for i, mask in enumerate(pairwise_dist_b_masks(words, dbmin))
        )
        assert graph.adj == expected_adj
        radius = (dbmin - 1) // 2
        balls = list(pairwise_dist_b_masks(words, 0, radius)) if radius >= 1 else []
        assert search._ball_rows(graph) == balls
        assert band_rows(words, 0, radius) == pairwise_dist_b_masks(words, 0, radius)
        assert band_rows(words, 2, 3) == pairwise_dist_b_masks(words, 2, 3)
        # no pair is further apart than 2n, so this band leaves every row empty
        beyond = band_rows(words, 2 * n + 1)
        assert beyond == pairwise_dist_b_masks(words, 2 * n + 1) == (0,) * len(words)

    def test_restricted_weights(self):
        graph = build_restricted_graph(5, 3)
        weight_of = {str(w): wt for w, wt in zip(graph.vertices, graph.weights)}
        assert weight_of["11111"] == 16
        assert weight_of["00000"] == 1
        assert weight_of["01100"] == 2

    def test_restricted_weights_distance_five(self):
        graph = build_restricted_graph(7, 5)
        weight_of = {str(w): wt for w, wt in zip(graph.vertices, graph.weights)}
        assert weight_of["1111111"] == 16


class TestOptimalBinaryCodes:
    def test_distance_two_closed_form(self):
        for length in range(1, 9):
            assert optimal_binary_code_size(length, 2) == max(1, 2 ** (length - 1))

    def test_closed_form_sizes_build_no_code(self, monkeypatch):
        # sizes at distances 1 and 2, and past the length, match the codes
        # optimal_binary_code writes out, and come without building one
        cells = [(length, dist) for length in range(9) for dist in (1, 2, length + 1)]
        codes = {cell: optimal_binary_code(*cell) for cell in cells}
        monkeypatch.setattr(search, "optimal_binary_code", _refuse)
        for (length, dist), code in codes.items():
            assert optimal_binary_code_size(length, dist) == code.size
        assert optimal_binary_code_size(40, 1) == 2**40
        assert optimal_binary_code_size(40, 2) == 2**39
        assert optimal_binary_code_size(40, 41) == 1

    def test_clique_backed_sizes(self):
        assert optimal_binary_code_size(7, 3) == 16
        assert optimal_binary_code_size(7, 4) == 8
        assert optimal_binary_code_size(8, 4) == 16
        assert optimal_binary_code_size(4, 3) == 2

    def test_materialized_codes_meet_distance(self):
        for length, dist in ((6, 3), (7, 4), (5, 3)):
            code = optimal_binary_code(length, dist)
            assert min_hamming_distance(code) >= dist

    def test_pinned_members(self):
        # these searches take the orbital path over the binary Hamming graph
        # and decide the inner codes that restricted search writes out
        pinned = {
            (6, 3): "000001 001010 010100 011111 100110 101101 110011 111000",
            (7, 3): "0000001 0001010 0010110 0011101 0100111 0101100 0110000 0111011 "
            "1000100 1001111 1010011 1011000 1100010 1101001 1110101 1111110",
            (7, 4): "0000001 0011010 0100110 0111101 1001100 1010111 1101011 1110000",
            (8, 5): "00000011 01101100 10010100 11111011",
        }
        for (length, dist), words in pinned.items():
            code = optimal_binary_code(length, dist)
            assert " ".join(str(w) for w in code.sorted_words()) == words

    def test_degenerate_lengths(self):
        assert optimal_binary_code_size(0, 3) == 1
        assert optimal_binary_code_size(2, 3) == 1
        assert optimal_binary_code_size(3, 1) == 8


class TestGreedy:
    def test_complete_graph_returns_everything(self):
        graph = build_unrestricted_graph(2, 1)
        result = greedy_clique(graph, seed=0, iterations=5)
        assert result.size == 9
        assert not result.exact

    def test_edgeless_graph_returns_one(self):
        graph = build_unrestricted_graph(2, 5)  # no pair reaches distance 5
        assert graph.edge_count() == 0
        result = greedy_clique(graph, seed=0, iterations=5)
        assert result.size == 1

    def test_quality_band_on_unrestricted_length_five(self):
        graph = build_unrestricted_graph(5, 3)
        result = greedy_clique(graph, seed=1, iterations=100)
        assert 21 <= result.total_weight <= 27

    def test_members_form_a_clique(self):
        graph = build_unrestricted_graph(4, 3)
        result = greedy_clique(graph, seed=3, iterations=20)
        for a in result.members:
            for b in result.members:
                if a != b:
                    assert dist_b(a, b) >= 3

    def test_deterministic_given_seed(self):
        graph = build_unrestricted_graph(4, 4)
        first = greedy_clique(graph, seed=5, iterations=30)
        second = greedy_clique(graph, seed=5, iterations=30)
        assert first == second

    @staticmethod
    def _oracle_graphs(family):
        if family == "unrestricted":
            return [build_unrestricted_graph(n, d) for n in range(6) for d in range(1, 7)]
        if family == "restricted":
            return [build_restricted_graph(n, d) for n in range(1, 8) for d in range(1, 8)]
        if family == "binary_hamming":
            return [_binary_hamming_graph(n, d) for n in range(3, 8) for d in range(2, 5)]
        if family == "window":
            return [build_unrestricted_graph(5, 3, wmin=1, wmax=4)]
        rng = random.Random(41)
        graphs = [SearchGraph((), (), (), 1)]
        for _ in range(30):
            v_count = rng.randrange(1, 60)
            base = random_graph(rng, v_count, rng.uniform(0.1, 0.9))
            weights = tuple(rng.randrange(1, 6) for _ in range(v_count))
            graphs.append(SearchGraph(base.vertices, weights, base.adj, base.dbmin))
        return graphs

    @pytest.mark.parametrize(
        "family", ["unrestricted", "restricted", "binary_hamming", "window", "random"]
    )
    def test_matches_reference(self, family):
        # same picks as the per-vertex recount; unrestricted n = 0 is the 1-vertex
        # graph and the random family starts with the empty graph
        for graph in self._oracle_graphs(family):
            for seed, iterations in ((0, 24), (1, 2), (7, 5)):
                expected = greedy_clique_reference(graph, seed, iterations)
                assert greedy_clique(graph, seed, iterations) == expected

    def test_degenerate_graphs(self):
        empty = greedy_clique(SearchGraph((), (), (), 1), seed=0, iterations=3)
        assert empty.members == () and empty.total_weight == 0
        single = greedy_clique(build_unrestricted_graph(0, 1), seed=0, iterations=1)
        assert single.size == 1 and single.total_weight == 1
        for iterations in (0, -1):
            with pytest.raises(ValueError):
                greedy_clique(build_unrestricted_graph(2, 2), seed=0, iterations=iterations)

    def test_visit_budget_refuses_before_any_pass(self, monkeypatch):
        # 8 outer words: 2 passes make 16 visits, 3 make 24
        graph = build_restricted_graph(3, 3)
        monkeypatch.setattr(search, "_MAX_GREEDY_VISITS", 16)
        assert greedy_clique(graph, seed=1, iterations=2).iterations == 2
        monkeypatch.setattr(search.random, "Random", _refuse)
        with pytest.raises(BudgetExceededError, match="budget of 16 vertex visits"):
            greedy_clique(graph, seed=1, iterations=3)
        # a pass over the empty graph still counts one visit
        empty = SearchGraph((), (), (), 1)
        with pytest.raises(BudgetExceededError):
            greedy_clique(empty, seed=0, iterations=17)

    def test_randrange_draws_as_choice(self):
        # the pick uses randrange(k) on the pool size where the recount used
        # choice() on the pool list: both must consume the stream identically
        for s in range(300):
            for k in (1, 2, 3, 5, 8, 63, 64, 65, 100, 729, 2**20 + 1):
                a, b = random.Random(s), random.Random(s)
                assert a.randrange(k) == b.choice(range(k))
                assert a.getstate() == b.getstate()


class TestExact:
    def test_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(31)
        for trial in range(25):
            graph = random_graph(rng, rng.randrange(4, 13), rng.uniform(0.2, 0.9))
            adjacency = [
                [bool(graph.adj[a] >> b & 1) for b in range(len(graph.vertices))]
                for a in range(len(graph.vertices))
            ]
            assert exact_clique(graph).total_weight == brute_max_clique(adjacency)

    def test_weighted_matches_bruteforce(self):
        rng = random.Random(32)
        for trial in range(15):
            v_count = rng.randrange(4, 12)
            base = random_graph(rng, v_count, rng.uniform(0.2, 0.9))
            weights = tuple(rng.randrange(1, 9) for _ in range(v_count))
            graph = SearchGraph(base.vertices, weights, base.adj, base.dbmin)
            adjacency = [
                [bool(graph.adj[a] >> b & 1) for b in range(v_count)]
                for a in range(v_count)
            ]
            assert exact_clique(graph).total_weight == brute_max_weight_clique(
                adjacency, list(weights)
            )

    def test_greedy_never_beats_exact(self):
        rng = random.Random(33)
        for trial in range(10):
            graph = random_graph(rng, rng.randrange(5, 12), rng.uniform(0.3, 0.8))
            greedy = greedy_clique(graph, seed=trial, iterations=10)
            assert greedy.total_weight <= exact_clique(graph).total_weight

    def test_search_leaves_no_reference_cycles(self):
        # the search must not keep its state alive until a full collection;
        # warm up first so that imports and memos are settled
        cells = [
            (5, 2, "unrestricted"),
            (5, 4, "unrestricted"),
            (7, 5, "restricted"),
            (7, 7, "restricted"),
        ]
        for n, d, mode in cells:
            search_code(n, d, mode)
        gc.collect()
        gc.disable()
        try:
            for n, d, mode in cells:
                search_code(n, d, mode)
                assert gc.collect() == 0, (n, d, mode)
        finally:
            gc.enable()

    def test_budget_refusal(self, monkeypatch):
        graph = build_unrestricted_graph(4, 2)
        monkeypatch.setattr(search, "_MAX_EDGES", 10)
        with pytest.raises(BudgetExceededError, match="exceed the budget 10"):
            exact_clique(graph)

    @staticmethod
    def _spy_on_milp(monkeypatch) -> list[int]:
        """Record the row-ball count of every escalation to the integer program."""
        calls: list[int] = []
        milp = search._exact_milp

        def spy(graph):
            calls.append(len(search._ball_rows(graph)))
            return milp(graph)

        monkeypatch.setattr(search, "_exact_milp", spy)
        return calls

    def test_node_budget_escalates_to_the_integer_program(self, monkeypatch):
        # sphere rows for the word-symmetric graph, pair rows for its plain copy
        graph = _binary_hamming_graph(7, 3)
        assert exact_clique(graph).total_weight == 16
        calls = self._spy_on_milp(monkeypatch)
        monkeypatch.setattr(search, "_NODE_CAP", 10)
        plain = SearchGraph(graph.vertices, graph.weights, graph.adj, graph.dbmin)
        for copy in (graph, plain):
            result = exact_clique(copy)
            assert result.exact and result.total_weight == 16
            assert min_hamming_distance(Code(2, 7, frozenset(result.members))) >= 3
        assert calls == [128, 0]

    def test_distance_two_search_is_capped(self, monkeypatch):
        # below dbmin = 3 there are no balls, but the node budget still holds
        graph = build_unrestricted_graph(4, 2)
        expected = exact_clique(graph).total_weight
        calls = self._spy_on_milp(monkeypatch)
        monkeypatch.setattr(search, "_NODE_CAP", 10)
        result = exact_clique(graph)
        assert result.exact and result.total_weight == expected
        assert calls == [0]

    @pytest.mark.parametrize("n, dbmin, cap, size", [(5, 4, 2_000, 17), (6, 6, 150, 12)])
    def test_orbit_classes_settle_cells_within_node_budget(
        self, monkeypatch, n, dbmin, cap, size
    ):
        # classes of the full stabilizer settle these cells in 232 and 144
        # nodes in search order (1,393 and 142 in lexicographic order with
        # recoloring); column-matching classes alone needed 2,426 and 228
        # (those two counts with a greedy-seeded incumbent and sphere-cover
        # coloring)
        calls = self._spy_on_milp(monkeypatch)
        monkeypatch.setattr(search, "_NODE_CAP", cap)
        code, result = search_code(n, dbmin, "unrestricted")
        assert result.exact and result.total_weight == code.size == size
        assert calls == []

    def test_clique_of_candidates_is_taken_whole(self, monkeypatch):
        # 1,611 words pairwise at dist_b >= 1: the root takes them in its one
        # node, where a dive of one node per word would pass a cap of 1 and
        # escalate
        calls = self._spy_on_milp(monkeypatch)
        monkeypatch.setattr(search, "_NODE_CAP", 1)
        graph = build_unrestricted_graph(7, 1, wmax=5)
        result = exact_clique(graph)
        assert result.exact and result.total_weight == len(graph.vertices) == 1611
        assert calls == []

    def test_deep_dive_needs_no_interpreter_stack(self):
        # the first dive on this cell goes some 170 nodes deep (423 for a
        # recursive kernel in lexicographic vertex order); open nodes live on
        # the kernel's own stack, so a limit 60 frames above the caller holds
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            code, result = search_code(7, 2, "unrestricted", wmax=5)
        finally:
            sys.setrecursionlimit(limit)
        assert sys.getrecursionlimit() == limit
        assert result.exact and result.total_weight == code.size == 966

    @pytest.mark.parametrize("n, dbmin, mode, kernel_calls", [
        (5, 4, "unrestricted", 1),
        # the outer graph and the inner codes A(w, 3) for w = 3..7
        (7, 5, "restricted", 6),
    ])
    def test_exact_search_runs_no_greedy(self, monkeypatch, n, dbmin, mode, kernel_calls):
        # the kernel starts from the empty clique and finds its own incumbent
        monkeypatch.setattr(search, "_OPTIMAL_BINARY", {})
        monkeypatch.setattr(search, "greedy_clique", _refuse)
        calls = []
        exact = search.exact_clique

        def spy(graph):
            calls.append(len(graph.vertices))
            return exact(graph)

        monkeypatch.setattr(search, "exact_clique", spy)
        code, result = search_code(n, dbmin, mode)
        assert result.exact and code.size == result.total_weight
        assert len(calls) == kernel_calls

    def test_restricted_code_over_the_cap_is_refused_before_the_search(self, monkeypatch):
        # 1,024 outer words weigh 59,049 in all; one greedy pass already
        # passes the 20,000-word cap, so the exact search never starts
        monkeypatch.setattr(search, "_branch_and_bound", _refuse)
        with pytest.raises(BudgetExceededError, match="cap of 20000 words"):
            search_code(10, 2, "restricted")

    def test_word_symmetry_needs_weights_by_hamming_weight(self):
        # orbit elimination is sound only if the symmetries keep vertex weights
        graph = build_restricted_graph(4, 3)
        v = graph.vertices.index(Word(2, (0, 0, 0, 1)))
        weights = list(graph.weights)
        weights[v] += 1
        skewed = SearchGraph(
            graph.vertices, tuple(weights), graph.adj, graph.dbmin, word_symmetry=True
        )
        with pytest.raises(ValueError, match="Hamming weight"):
            exact_clique(skewed)
        plain = exact_clique(SearchGraph(graph.vertices, tuple(weights), graph.adj, graph.dbmin))
        assert plain.total_weight >= exact_clique(graph).total_weight

    def test_milp_time_budget(self, monkeypatch):
        # the unrestricted (5, 3) graph takes HiGHS about a minute to optimise
        graph = build_unrestricted_graph(5, 3)
        monkeypatch.setattr(search, "_MILP_TIME_LIMIT", 1e-3)
        with pytest.raises(BudgetExceededError, match="time limit"):
            search._exact_milp(graph)

    def test_symmetry_pruning_matches_plain_search(self):
        # orbit elimination must agree with per-vertex elimination on ternary
        # words, on binary outer words with inner-code weights, and on the
        # binary Hamming graphs behind the inner codes, which are also the
        # outer-word graphs with unit weights
        graphs = [build_unrestricted_graph(n, d) for n in (2, 3, 4) for d in (2, 3, 4)]
        graphs += [build_restricted_graph(n, d) for n in range(3, 8) for d in range(2, 6)]
        graphs += [_binary_hamming_graph(n, 2) for n in (3, 4, 5, 6)]
        # A(8, 3) is left out: it exhausts the node budget and the integer
        # program takes minutes
        graphs += [
            _binary_hamming_graph(n, d)
            for n in range(3, 9)
            for d in (3, 4)
            if (n, d) != (8, 3)
        ]
        for graph in graphs:
            result = exact_clique(graph)
            plain = exact_clique(
                SearchGraph(graph.vertices, graph.weights, graph.adj, graph.dbmin)
            )
            assert result.exact and plain.exact
            assert result.total_weight == plain.total_weight
            index = {w: i for i, w in enumerate(graph.vertices)}
            members = [index[w] for w in result.members]
            assert sum(graph.weights[v] for v in members) == result.total_weight
            for a, b in combinations(result.members, 2):
                assert dist_b(a, b) >= graph.dbmin

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_networkx_beyond_bruteforce(self, weighted):
        nx = pytest.importorskip("networkx")
        rng = random.Random(34 + weighted)
        for trial in range(20):
            v_count = rng.randrange(13, 41)
            base = random_graph(rng, v_count, rng.uniform(0.2, 0.9))
            weights = (
                tuple(rng.randrange(1, 9) for _ in range(v_count))
                if weighted
                else base.weights
            )
            graph = SearchGraph(base.vertices, weights, base.adj, base.dbmin)
            oracle = nx.Graph()
            for v in range(v_count):
                oracle.add_node(v, weight=weights[v])
                for u in range(v):
                    if graph.adj[v] >> u & 1:
                        oracle.add_edge(u, v)
            _, best = nx.max_weight_clique(oracle, weight="weight")
            result = exact_clique(graph)
            assert result.total_weight == best
            index = {w: i for i, w in enumerate(graph.vertices)}
            members = [index[w] for w in result.members]
            assert sum(weights[v] for v in members) == best
            for a, b in combinations(members, 2):
                assert graph.adj[a] >> b & 1

    def test_symmetry_pruning_on_weight_windows(self):
        # weight windows stay closed under the word symmetries, for ternary
        # words and for binary outer words weighted by inner-code size
        graphs = [
            build_unrestricted_graph(5, dbmin, wmin=wmin, wmax=wmax)
            for wmin, wmax, dbmin in ((2, 5, 4), (0, 3, 3), (3, 5, 5))
        ]
        restricted = {(5, 3, 1, 4): 16, (6, 4, 1, 5): 25, (7, 4, 3, 7): 92, (7, 5, 1, 5): 6}
        for (n, dbmin, wmin, wmax), size in restricted.items():
            graph = build_restricted_graph(n, dbmin, wmin=wmin, wmax=wmax)
            assert exact_clique(graph).total_weight == size
            graphs.append(graph)
        for graph in graphs:
            plain = SearchGraph(graph.vertices, graph.weights, graph.adj, graph.dbmin)
            assert (
                exact_clique(graph).total_weight == exact_clique(plain).total_weight
            )

    @pytest.mark.parametrize(
        "q, n", [(3, n) for n in range(1, 5)] + [(2, n) for n in range(1, 6)]
    )
    def test_orbit_masks_match_brute_force_stabilizer(self, q, n):
        # the classes partition the pending set, and each one equals the orbit
        # of its members under the group elements fixing every chosen word,
        # cut to the pending set; the canonical-tag oracle gives the same
        words, group = word_group(q, n)
        symbol_masks = _columns(words, 3)
        rng = random.Random(10 * q + n)
        for chosen_count in range(5):
            for _ in range(4):
                chosen = [rng.randrange(len(words)) for _ in range(chosen_count)]
                stabilizer = [
                    image for image in group if all(image[c] == c for c in chosen)
                ]
                pending = rng.getrandbits(len(words)) | 1 << rng.randrange(len(words))
                pending_set = set(_iter_bits(pending))
                chosen_words = [words[c] for c in chosen]
                classes = search._orbit_masks(pending, symbol_masks, chosen_words)
                assert all(classes)
                assert sum(c.bit_count() for c in classes) == len(pending_set)
                union = 0
                for mask in classes:
                    union |= mask
                assert union == pending
                for mask in classes:
                    members = set(_iter_bits(mask))
                    v = min(members)
                    assert members == {image[v] for image in stabilizer} & pending_set
                reference = orbit_classes_reference(pending, words, chosen_words)
                assert sorted(classes) == sorted(reference)


class TestGoldenValues:
    def test_unrestricted_length_five(self, unrestricted_optima_n5):
        results, _ = unrestricted_optima_n5
        assert results[2].total_weight == 122
        assert results[3].total_weight == 27
        assert results[4].total_weight == 17
        assert results[5].total_weight == 7
        assert all(r.exact for r in results.values())

    def test_members_verified_against_metric(self, unrestricted_optima_n5):
        results, _ = unrestricted_optima_n5
        for dbmin, result in results.items():
            for a in result.members:
                for b in result.members:
                    if a != b:
                        assert dist_b(a, b) >= dbmin

    def test_restricted_cells(self, restricted_optima):
        results, _ = restricted_optima
        code53, result53 = results[(5, 3)]
        assert result53.total_weight == 21
        assert code53.size == 21
        assert min_dist_b(code53) >= 3
        code77, result77 = results[(7, 7)]
        assert result77.total_weight == 9
        assert code77.size == 9
        assert min_dist_b(code77) >= 7


class TestSearchCode:
    def test_unrestricted_mode_returns_the_clique(self):
        code, result = search_code(4, 4, "unrestricted")
        assert code.size == result.total_weight
        assert min_dist_b(code) >= 4

    def test_unrestricted_n6_d6(self):
        code, result = search_code(6, 6, "unrestricted")
        assert result.total_weight == 12
        assert min_dist_b(code) >= 6

    def test_restricted_n5_d2(self):
        code, result = search_code(5, 2, "restricted")
        assert result.total_weight == 122
        assert code.size == 122
        assert min_dist_b(code) >= 2

    def test_greedy_mode(self):
        code, result = search_code(5, 3, "unrestricted", algo="greedy", seed=4, iterations=50)
        assert not result.exact
        assert 21 <= result.total_weight <= 27
        assert min_dist_b(code) >= 3

    def test_restricted_expansion_weights_by_outer_weight(self):
        code, result = search_code(4, 4, "restricted")
        outer_weights = {hamming_weight(w) for w in result.members}
        assert code.size == result.total_weight
        assert min_dist_b(code) >= 4 if code.size >= 2 else True
        assert outer_weights  # expansion touched at least one weight class

    @pytest.mark.parametrize("algo", ["exact", "greedy"])
    def test_refuses_restricted_code_over_the_cap(self, monkeypatch, algo):
        # one outer word of weight 40 carries the even-weight code of 2^39
        # words: the refusal comes before any inner code is written out
        monkeypatch.setattr(search, "optimal_binary_code", _refuse)
        monkeypatch.setattr(search, "build_code", _refuse)
        with pytest.raises(BudgetExceededError) as info:
            search_code(40, 3, "restricted", wmin=40, algo=algo, iterations=1)
        assert str(info.value) == "the code exceeds the cap of 20000 words"

    @pytest.mark.parametrize("mode", ["unrestricted", "restricted"])
    def test_rejects_length_below_one(self, mode):
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"length must be >= 1, got {n}"):
                search_code(n, 1, mode)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            search_code(4, 3, "both")
        with pytest.raises(ValueError):
            search_code(4, 3, "unrestricted", algo="magic")
