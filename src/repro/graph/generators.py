"""Workload generators for tests, examples and the benchmark harness.

Each generator takes an explicit ``random.Random`` so every experiment is
reproducible.  Weighted variants attach a random permutation of ``1..m`` as
weights — unique positive integers, the paper's standing assumption.
"""

from __future__ import annotations

import random

from .graph import Graph

__all__ = [
    "gnm_random_graph",
    "random_connected_graph",
    "random_tree",
    "cycle_graph",
    "two_cycles",
    "one_or_two_cycles",
    "complete_graph",
    "grid_graph",
    "torus_graph",
    "preferential_attachment_graph",
    "power_law_graph",
    "planted_components_graph",
    "planted_community_graph",
    "multi_component_graph",
    "planted_cut_graph",
    "near_clique_graph",
    "random_bipartite_graph",
    "weighted",
]


def weighted(graph: Graph, rng: random.Random) -> Graph:
    """Attach unique random integer weights ``1..m`` to *graph*."""
    return graph.with_unique_weights(rng)


def _sample_edges(n: int, m: int, rng: random.Random, forbidden=frozenset()):
    max_edges = n * (n - 1) // 2
    if m > max_edges - len(forbidden):
        raise ValueError(f"cannot place {m} edges in a simple graph on {n} vertices")
    edges: set[tuple[int, int]] = set()
    # Dense case: sample from the explicit complement to avoid rejection
    # stalls; sparse case: rejection sampling.
    if m > max_edges // 2:
        population = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in forbidden
        ]
        edges.update(rng.sample(population, m))
    else:
        while len(edges) < m:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            if u > v:
                u, v = v, u
            if (u, v) in forbidden or (u, v) in edges:
                continue
            edges.add((u, v))
    return edges


def gnm_random_graph(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform simple graph with exactly *m* edges (the G(n, m) model)."""
    return Graph(n, sorted(_sample_edges(n, m, rng)))


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random recursive tree (each vertex attaches to a random
    earlier vertex)."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph(n, edges)


def random_connected_graph(n: int, m: int, rng: random.Random) -> Graph:
    """Connected graph: a random spanning tree plus ``m - (n-1)`` extra
    random edges."""
    if m < n - 1:
        raise ValueError("a connected graph needs at least n-1 edges")
    tree = {(min(u, v), max(u, v)) for u, v in random_tree(n, rng).edges}
    extra = _sample_edges(n, m - len(tree), rng, forbidden=frozenset(tree))
    return Graph(n, sorted(tree | extra))


def cycle_graph(n: int, rng: random.Random | None = None) -> Graph:
    """A single cycle on *n* vertices (with randomly permuted vertex labels
    when *rng* is given, so the structure is not visible in the ids)."""
    labels = list(range(n))
    if rng is not None:
        rng.shuffle(labels)
    edges = [
        (labels[i], labels[(i + 1) % n]) for i in range(n)
    ]
    return Graph(n, [(min(u, v), max(u, v)) for u, v in edges])


def two_cycles(n: int, rng: random.Random | None = None) -> Graph:
    """Two disjoint cycles covering *n* vertices (n >= 6)."""
    if n < 6:
        raise ValueError("need n >= 6 for two cycles of length >= 3")
    labels = list(range(n))
    if rng is not None:
        rng.shuffle(labels)
    half = n // 2
    edges = []
    for block in (labels[:half], labels[half:]):
        k = len(block)
        edges.extend((block[i], block[(i + 1) % k]) for i in range(k))
    return Graph(n, [(min(u, v), max(u, v)) for u, v in edges])


def one_or_two_cycles(n: int, rng: random.Random) -> tuple[Graph, int]:
    """A random instance of the 1-vs-2 cycle problem; returns the graph and
    the true number of cycles."""
    cycles = rng.choice((1, 2))
    graph = cycle_graph(n, rng) if cycles == 1 else two_cycles(n, rng)
    return graph, cycles


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid; vertex ``(r, c)`` has id ``r * cols + c``."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def preferential_attachment_graph(n: int, k: int, rng: random.Random) -> Graph:
    """Barabási–Albert-style graph: each new vertex attaches to *k* distinct
    existing vertices chosen proportionally to degree.  Produces the skewed
    degree distributions that exercise the degree-split matching phases."""
    if k < 1 or n <= k:
        raise ValueError("need 1 <= k < n")
    edges: set[tuple[int, int]] = set()
    endpoint_pool: list[int] = list(range(k + 1))
    for u in range(k + 1):
        for v in range(u + 1, k + 1):
            edges.add((u, v))
            endpoint_pool.extend((u, v))
    for v in range(k + 1, n):
        targets: set[int] = set()
        while len(targets) < k:
            targets.add(rng.choice(endpoint_pool))
        for t in targets:
            edges.add((min(t, v), max(t, v)))
            endpoint_pool.extend((t, v))
    return Graph(n, sorted(edges))


def torus_graph(rows: int, cols: int) -> Graph:
    """The periodic 2D grid (torus): :func:`grid_graph` plus wraparound
    edges.  Both dimensions must be >= 3 so the wraparound edges are
    distinct from the grid edges."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs rows >= 3 and cols >= 3")
    edges = set(grid_graph(rows, cols).edge_set())
    for r in range(rows):
        edges.add((r * cols, r * cols + cols - 1))
    for c in range(cols):
        edges.add((c, (rows - 1) * cols + c))
    return Graph(rows * cols, sorted(edges))


def power_law_graph(
    n: int, rng: random.Random, exponent: float = 2.5, avg_degree: float = 4.0
) -> Graph:
    """Chung–Lu power-law graph: vertex *i* has expected degree
    ``w_i ~ (i+1)^(-1/(exponent-1))`` (scaled so the mean degree is
    ``avg_degree``) and edge ``(u, v)`` appears independently with
    probability ``min(1, w_u w_v / sum(w))``.

    Unlike :func:`preferential_attachment_graph` (which grows a graph with
    minimum degree *k*), this produces genuine power-law tails *and* many
    degree-1 vertices — the skew that stresses degree-split phases from
    both ends.  Connectivity is not guaranteed.
    """
    if exponent <= 2.0:
        raise ValueError("need exponent > 2 for a finite-mean degree sequence")
    if n < 2:
        raise ValueError("need n >= 2")
    raw = [(i + 1.0) ** (-1.0 / (exponent - 1.0)) for i in range(n)]
    scale = avg_degree * n / sum(raw)
    w = [x * scale for x in raw]
    total = sum(w)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < min(1.0, w[u] * w[v] / total):
                edges.append((u, v))
    return Graph(n, edges)


def planted_community_graph(
    n: int, communities: int, p_in: float, inter_edges: int, rng: random.Random
) -> Graph:
    """Connected planted-partition graph: *communities* equal-size blocks
    of contiguous vertex ids, dense inside (each intra-pair present with
    probability *p_in*, on top of a random spanning tree per block), and
    sparse between (a ring of bridges joining consecutive blocks — this is
    what keeps the graph connected — plus *inter_edges* extra random cross
    edges).  Vertex ``v`` belongs to community ``v * communities // n``."""
    if communities < 2 or communities * 2 > n:
        raise ValueError("need 2 <= communities <= n/2")
    bounds = [n * c // communities for c in range(communities + 1)]
    blocks = [list(range(bounds[c], bounds[c + 1])) for c in range(communities)]
    edges: set[tuple[int, int]] = set()
    for block in blocks:
        for index in range(1, len(block)):
            parent = block[rng.randrange(index)]
            edges.add((parent, block[index]))
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                if rng.random() < p_in:
                    edges.add((u, v))
    for c in range(communities):
        u = rng.choice(blocks[c])
        v = rng.choice(blocks[(c + 1) % communities])
        edges.add((min(u, v), max(u, v)))
    placed = 0
    attempts = 0
    while placed < inter_edges and attempts < 50 * inter_edges + 100:
        attempts += 1
        a, b = rng.sample(range(communities), 2)
        u = rng.choice(blocks[a])
        v = rng.choice(blocks[b])
        edge = (min(u, v), max(u, v))
        if edge not in edges:
            edges.add(edge)
            placed += 1
    return Graph(n, sorted(edges))


def multi_component_graph(
    n: int, components: int, avg_degree: float, rng: random.Random
) -> Graph:
    """Disconnected graph with exactly *components* connected components of
    uneven sizes, each one a :func:`random_connected_graph` of average
    degree ~*avg_degree*.  Unlike :func:`planted_components_graph` (trees
    plus a few extra edges) the components here are genuinely dense, so
    sketch- and Borůvka-style algorithms do real merging work inside each
    component before discovering that the pieces never join."""
    if components < 2 or components * 3 > n:
        raise ValueError("need 2 <= components <= n/3")
    sizes = [3] * components
    for _ in range(n - 3 * components):
        sizes[rng.randrange(components)] += 1
    edges: list[tuple[int, int]] = []
    offset = 0
    for size in sizes:
        m = min(size * (size - 1) // 2, max(size - 1, int(avg_degree * size / 2)))
        block = random_connected_graph(size, m, rng)
        edges.extend((u + offset, v + offset) for u, v in block.edges)
        offset += size
    return Graph(n, sorted(edges))


def near_clique_graph(n: int, missing: int, rng: random.Random) -> Graph:
    """Dense near-clique: the complete graph on *n* vertices minus
    *missing* random edges.  Since ``K_n`` is (n-1)-edge-connected, the
    result is guaranteed connected whenever ``missing < n - 1``."""
    max_edges = n * (n - 1) // 2
    if not 0 <= missing <= max_edges:
        raise ValueError(f"missing must lie in [0, {max_edges}]")
    removed = _sample_edges(n, missing, rng)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in removed
    ]
    return Graph(n, edges)


def planted_components_graph(
    n: int, components: int, extra_edges: int, rng: random.Random
) -> Graph:
    """A graph with exactly *components* connected components: disjoint
    random trees plus intra-component extra edges."""
    if components > n:
        raise ValueError("more components than vertices")
    if components < 1:
        raise ValueError("need at least one component")
    if extra_edges < 0:
        raise ValueError(f"extra edge count must be non-negative, got {extra_edges}")
    boundaries = sorted(rng.sample(range(1, n), components - 1)) if components > 1 else []
    blocks = []
    start = 0
    for end in boundaries + [n]:
        blocks.append(list(range(start, end)))
        start = end
    edges: set[tuple[int, int]] = set()
    for block in blocks:
        for index in range(1, len(block)):
            parent = block[rng.randrange(index)]
            edges.add((min(parent, block[index]), max(parent, block[index])))
    room = sum(len(block) * (len(block) - 1) // 2 for block in blocks) - len(edges)
    if extra_edges > room:
        raise ValueError(
            f"cannot plant {extra_edges} extra edges: {components} components "
            f"on {n} vertices have room for {room} beside their trees"
        )
    attempts = 0
    while extra_edges > 0 and attempts < 50 * extra_edges + 100:
        attempts += 1
        block = rng.choice(blocks)
        if len(block) < 3:
            continue
        u, v = rng.sample(block, 2)
        edge = (min(u, v), max(u, v))
        if edge not in edges:
            edges.add(edge)
            extra_edges -= 1
    return Graph(n, sorted(edges))


def planted_cut_graph(
    n: int, cut_size: int, intra_density: float, rng: random.Random
) -> Graph:
    """Two dense halves joined by exactly *cut_size* edges.

    With ``intra_density`` comfortably above ``2 * cut_size / n``, the
    planted cut is the (unique) minimum cut — the min-cut benchmarks verify
    this with the sequential Stoer–Wagner oracle rather than assuming it.
    """
    half = n // 2
    left = list(range(half))
    right = list(range(half, n))
    if not 0 <= cut_size <= len(left) * len(right):
        raise ValueError(
            f"cannot plant {cut_size} crossing edges between halves of "
            f"{len(left)} and {len(right)} vertices"
        )
    if len(left) < 2:
        raise ValueError(
            f"each half needs at least two vertices, so n >= 4; got n={n}"
        )
    edges: set[tuple[int, int]] = set()
    for block in (left, right):
        for index in range(1, len(block)):
            parent = block[rng.randrange(index)]
            edges.add((min(parent, block[index]), max(parent, block[index])))
        target = int(intra_density * len(block))
        added = 0
        attempts = 0
        while added < target and attempts < 50 * target + 100:
            attempts += 1
            u, v = rng.sample(block, 2)
            edge = (min(u, v), max(u, v))
            if edge not in edges:
                edges.add(edge)
                added += 1
    crossing = set()
    while len(crossing) < cut_size:
        u = rng.choice(left)
        v = rng.choice(right)
        crossing.add((u, v))
    return Graph(n, sorted(edges | crossing))


def random_bipartite_graph(
    left: int, right: int, m: int, rng: random.Random
) -> Graph:
    """Random bipartite graph on ``left + right`` vertices with *m* edges."""
    if m > left * right:
        raise ValueError("too many edges for the bipartition")
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u = rng.randrange(left)
        v = left + rng.randrange(right)
        edges.add((u, v))
    return Graph(left + right, sorted(edges))
