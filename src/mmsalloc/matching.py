"""Bipartite matching: maximum, envy-free, and Hall-deficiency extraction.

Vertices are 1-based on both sides, and a matching is the frozenset of
its (x, y) pairs.  All searches visit vertices in ascending id order, so
results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class BipartiteGraph:
    x_size: int
    y_size: int
    adjacency: tuple  # adjacency[x-1] = sorted tuple of y ids

    @staticmethod
    def from_edges(x_size: int, y_size: int, edges) -> "BipartiteGraph":
        adj = [set() for _ in range(x_size)]
        for x, y in edges:
            if not (1 <= x <= x_size and 1 <= y <= y_size):
                raise ValueError(f"edge ({x}, {y}) out of range")
            adj[x - 1].add(y)
        return BipartiteGraph(
            x_size=x_size,
            y_size=y_size,
            adjacency=tuple(tuple(sorted(s)) for s in adj),
        )


def _augment(g: BipartiteGraph, match_y: dict, x: int, seen: set) -> bool:
    for y in g.adjacency[x - 1]:
        if y in seen:
            continue
        seen.add(y)
        if y not in match_y or _augment(g, match_y, match_y[y], seen):
            match_y[y] = x
            return True
    return False


def max_matching(g: BipartiteGraph) -> frozenset:
    """Maximum-cardinality matching via augmenting paths."""
    match_y: dict = {}
    for x in range(1, g.x_size + 1):
        _augment(g, match_y, x, set())
    return frozenset((x, y) for y, x in match_y.items())


def _alternating_reach(g: BipartiteGraph, matching: frozenset):
    """X and Y vertices reachable by alternating paths from unmatched X."""
    match_x = {x: y for x, y in matching}
    match_y = {y: x for x, y in matching}
    frontier = [x for x in range(1, g.x_size + 1) if x not in match_x]
    reached_x = set(frontier)
    reached_y: set = set()
    while frontier:
        x = frontier.pop()
        for y in g.adjacency[x - 1]:
            if y in reached_y:
                continue
            reached_y.add(y)
            partner = match_y.get(y)
            if partner is not None and partner not in reached_x:
                reached_x.add(partner)
                frontier.append(partner)
    return reached_x, reached_y


def envy_free_matching(g: BipartiteGraph) -> frozenset:
    """A matching in which no unmatched X vertex sees a matched Y vertex.

    Drop from a maximum matching every X vertex reachable by an alternating
    path from some unmatched X vertex; what remains is envy-free, and it is
    non-empty whenever |N(X)| >= |X| >= 1.
    """
    m = max_matching(g)
    reached_x, _ = _alternating_reach(g, m)
    return frozenset((x, y) for x, y in m if x not in reached_x)


def is_envy_free(g: BipartiteGraph, matching: frozenset) -> bool:
    matched_x = {x for x, _ in matching}
    matched_y = {y for _, y in matching}
    for x in range(1, g.x_size + 1):
        if x in matched_x:
            continue
        if any(y in matched_y for y in g.adjacency[x - 1]):
            return False
    return True


def hall_deficient_split(g: BipartiteGraph):
    """A Hall violator (N', N(N')) with |N'| > |N(N')|, or None.

    Exists exactly when no X-perfect matching does; built from alternating
    reachability off a maximum matching, so vertices in N' have no edges
    outside the returned neighbourhood.
    """
    m = max_matching(g)
    if len(m) == g.x_size:
        return None
    reached_x, reached_y = _alternating_reach(g, m)
    return frozenset(reached_x), frozenset(reached_y)
