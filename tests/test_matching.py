"""Bipartite matching: maximality against an oracle, envy-freeness, Hall splits."""

import itertools
import random

from mmsalloc.matching import (
    BipartiteGraph,
    envy_free_matching,
    hall_deficient_split,
    is_envy_free,
    max_matching,
)


def brute_force_max_matching_size(g):
    ys = list(range(1, g.y_size + 1))
    best = 0
    xs = list(range(1, g.x_size + 1))

    def extend(i, used, size):
        nonlocal best
        best = max(best, size)
        if i > len(xs):
            return
        # skip x_i
        extend(i + 1, used, size)
        for y in g.adjacency[xs[i - 1] - 1]:
            if y not in used:
                extend(i + 1, used | {y}, size + 1)

    extend(1, frozenset(), 0)
    return best


def random_graph(rng, max_side=6, p=0.4):
    x, y = rng.randint(1, max_side), rng.randint(1, max_side)
    edges = [
        (i, j)
        for i in range(1, x + 1)
        for j in range(1, y + 1)
        if rng.random() < p
    ]
    return BipartiteGraph.from_edges(x, y, edges)


def test_max_matching_size_matches_brute_force():
    rng = random.Random(17)
    for _ in range(300):
        g = random_graph(rng)
        m = max_matching(g)
        # matching structure: pairwise distinct endpoints, edges of the graph
        xs = [x for x, _ in m]
        ys = [y for _, y in m]
        assert len(set(xs)) == len(xs) and len(set(ys)) == len(ys)
        for x, y in m:
            assert y in g.adjacency[x - 1]
        assert len(m) == brute_force_max_matching_size(g)


def test_envy_free_matching_is_envy_free():
    rng = random.Random(23)
    for _ in range(500):
        g = random_graph(rng, max_side=8)
        efm = envy_free_matching(g)
        assert is_envy_free(g, efm)


def all_graphs(x, y):
    cells = [(i, j) for i in range(1, x + 1) for j in range(1, y + 1)]
    for mask in range(2 ** len(cells)):
        edges = [c for k, c in enumerate(cells) if mask >> k & 1]
        yield BipartiteGraph.from_edges(x, y, edges)


def test_nonempty_when_neighborhood_at_least_x_small_exhaustive():
    # exhaustively over tiny graphs: if |N(X)| >= |X| >= 1 then the
    # envy-free matching is non-empty
    for x in range(1, 4):
        for y in range(1, 4):
            for g in all_graphs(x, y):
                neighborhood = set().union(*map(set, g.adjacency))
                efm = envy_free_matching(g)
                assert is_envy_free(g, efm)
                if len(neighborhood) >= g.x_size >= 1:
                    assert efm, (x, y, g.adjacency)


def test_hall_deficient_split_finds_violating_set():
    rng = random.Random(31)
    for _ in range(400):
        g = random_graph(rng)
        split = hall_deficient_split(g)
        if split is None:
            assert len(max_matching(g)) == g.x_size
            continue
        xs, ys = split
        assert len(xs) > len(ys)
        # every neighbor of the deficient set lies inside ys
        for x in xs:
            assert set(g.adjacency[x - 1]) <= set(ys)


def test_known_tiny_cases():
    # two left vertices fighting over one right vertex: EFM must be empty
    g = BipartiteGraph.from_edges(2, 1, [(1, 1), (2, 1)])
    assert envy_free_matching(g) == frozenset()
    # a perfect matching is envy-free outright
    g2 = BipartiteGraph.from_edges(2, 2, [(1, 1), (2, 2)])
    assert len(envy_free_matching(g2)) == 2
