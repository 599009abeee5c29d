"""Workload graph generators.

Every generator returns an immutable :class:`~repro.graphs.graph.Graph` and,
where randomized, takes an explicit ``seed`` (or ``numpy.random.Generator``)
so that experiment sweeps are exactly reproducible.

The families cover the workloads used by the paper's motivating scenarios:

* wireless sensor networks → :func:`unit_disk`, :func:`random_regular`,
  :func:`grid_2d`, :func:`torus_2d`
* biological cell layers (fly SOP selection) → :func:`triangular_lattice`,
  :func:`unit_disk`
* worst-case / structured topologies for the theory claims →
  :func:`path`, :func:`cycle`, :func:`star`, :func:`complete`,
  :func:`complete_bipartite`, :func:`binary_tree`, :func:`hypercube`,
  :func:`caterpillar`, :func:`lollipop`, :func:`barbell`
* scale-free degree skew (where Theorem 2.2's own-degree knowledge differs
  most from global Δ) → :func:`barabasi_albert`, :func:`power_law_cluster`
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..devtools.seeding import SeedLike, resolve_rng
from .graph import Graph, _normalize_edge

__all__ = [
    "empty",
    "path",
    "cycle",
    "star",
    "complete",
    "complete_bipartite",
    "grid_2d",
    "torus_2d",
    "triangular_lattice",
    "binary_tree",
    "watts_strogatz",
    "complete_multipartite",
    "wheel",
    "random_tree",
    "hypercube",
    "caterpillar",
    "lollipop",
    "barbell",
    "erdos_renyi",
    "erdos_renyi_mean_degree",
    "random_regular",
    "random_bipartite",
    "barabasi_albert",
    "power_law_cluster",
    "unit_disk",
    "by_name",
    "FAMILY_NAMES",
]

#: Local alias kept for call-site brevity; the blessed coercion point is
#: :func:`repro.devtools.seeding.resolve_rng`.
_rng = resolve_rng


# ----------------------------------------------------------------------
# Deterministic families
# ----------------------------------------------------------------------
def empty(n: int) -> Graph:
    """``n`` isolated vertices, no edges."""
    return Graph(n)


def path(n: int) -> Graph:
    """The path P_n."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """The cycle C_n (requires n >= 3)."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """The star K_{1,n-1}: vertex 0 is the hub."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    return Graph(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> Graph:
    """The complete graph K_n."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: left part is ``0..a-1``, right part is ``a..a+b-1``."""
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def grid_2d(rows: int, cols: int) -> Graph:
    """The rows × cols king-free grid (4-neighbor lattice)."""
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(rows * cols, edges)


def torus_2d(rows: int, cols: int) -> Graph:
    """The rows × cols torus (grid with wraparound); 4-regular when dims >= 3."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs both dimensions >= 3")

    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            edges.append((vid(r, c), vid(r, (c + 1) % cols)))
            edges.append((vid(r, c), vid((r + 1) % rows, c)))
    return Graph(rows * cols, edges)


def triangular_lattice(rows: int, cols: int) -> Graph:
    """A triangular lattice patch — a standard model of an epithelial
    cell layer (the fly SOP-selection motivation of the beeping model)."""
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
                # Diagonal giving each interior cell 6 neighbors.
                if c + 1 < cols:
                    edges.append((vid(r, c + 1), vid(r + 1, c)))
    return Graph(rows * cols, edges)


def binary_tree(depth: int) -> Graph:
    """A complete binary tree of the given depth (depth 0 = single root)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = 2 ** (depth + 1) - 1
    edges = [((i - 1) // 2, i) for i in range(1, n)]
    return Graph(n, edges)


def hypercube(dim: int) -> Graph:
    """The hypercube Q_dim on 2^dim vertices."""
    if dim < 0:
        raise ValueError("dim must be >= 0")
    n = 1 << dim
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    return Graph(n, edges)


def caterpillar(spine: int, legs: int) -> Graph:
    """A caterpillar: a path of ``spine`` vertices, each with ``legs`` leaves."""
    if spine < 1:
        raise ValueError("spine must be >= 1")
    edges = [(i, i + 1) for i in range(spine - 1)]
    next_id = spine
    for s in range(spine):
        for _ in range(legs):
            edges.append((s, next_id))
            next_id += 1
    return Graph(next_id, edges)


def lollipop(clique: int, tail: int) -> Graph:
    """A K_clique with a path of ``tail`` vertices attached to vertex 0."""
    g = complete(clique)
    edges = list(g.edges)
    prev = 0
    for i in range(tail):
        edges.append((prev, clique + i))
        prev = clique + i
    return Graph(clique + tail, edges)


def barbell(clique: int, bridge: int) -> Graph:
    """Two K_clique's joined by a path of ``bridge`` vertices."""
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    offset = clique + bridge
    edges += [
        (offset + u, offset + v)
        for u in range(clique)
        for v in range(u + 1, clique)
    ]
    chain = [0] + [clique + i for i in range(bridge)] + [offset]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return Graph(2 * clique + bridge, edges)


# ----------------------------------------------------------------------
# Random families
# ----------------------------------------------------------------------
def _skip_block(mean_edges: float) -> int:
    """First block size: the edge count stays below ``m̄ + 6√m̄`` with
    overwhelming probability, so the block almost never runs short."""
    return int(mean_edges + 6.0 * math.sqrt(mean_edges)) + 16


def erdos_renyi(n: int, p: float, seed: SeedLike = None) -> Graph:
    """G(n, p): each of the C(n,2) edges present independently w.p. ``p``.

    Geometric skipping (Batagelj–Brandes), O(n + m) expected time, with
    the skips drawn in blocks: ``rng.random(k)`` yields the same doubles
    as ``k`` scalar calls, so the edges and the generator's final stream
    position equal those of the one-draw-per-edge loop.  Draw ``i`` jumps
    the linear pair index ``L = v(v-1)/2 + w`` (pairs ``w < v`` ordered by
    ``v``, then ``w``) by ``1 + int(skip_i)``; the loop stops at the
    first draw that passes the last pair, and consumes that draw too.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    rng = _rng(seed)
    if n < 2 or p == 0.0:
        return Graph(n)
    if p == 1.0:
        return complete(n)
    log_q = math.log1p(-p)
    pairs = n * (n - 1) // 2
    # Skip lengths are clamped at n^2 (past every remaining pair): for
    # denormally small p the division can reach float infinity, and an
    # unclamped int() would overflow.
    max_skip = float(n) * n + 2.0
    k = _skip_block(p * pairs)
    saved = rng.bit_generator.state
    while True:
        block = 1.0 - rng.random(k)
        # math.log, not np.log: the two can differ in the last ulp, and
        # one flipped int(skip) would change the graph.
        logs = np.fromiter(map(math.log, block.tolist()), dtype=np.float64, count=k)
        with np.errstate(over="ignore"):  # clamped just below
            skips = np.minimum(logs / log_q, max_skip).astype(np.int64)
        index = np.cumsum(skips + 1) - 1
        if index[-1] >= pairs:
            break
        rng.bit_generator.state = saved
        k *= 2
    drawn = int(np.searchsorted(index, pairs)) + 1  # the overshooting draw too
    rng.bit_generator.state = saved
    rng.random(drawn)
    index = index[: drawn - 1]
    # Triangular inverse: v = floor((1 + sqrt(1 + 8L)) / 2), corrected
    # by one either way where the float root rounds across an integer.
    v = ((1.0 + np.sqrt(8.0 * index + 1.0)) // 2.0).astype(np.int64)
    v -= v * (v - 1) // 2 > index
    v += (v + 1) * v // 2 <= index
    w = index - v * (v - 1) // 2
    return Graph(n, np.stack([w, v], axis=1))


def erdos_renyi_mean_degree(n: int, mean_degree: float, seed: SeedLike = None) -> Graph:
    """G(n, p) parameterized by expected degree: ``p = mean_degree/(n-1)``."""
    if n <= 1:
        return Graph(n)
    p = min(1.0, mean_degree / (n - 1))
    return erdos_renyi(n, p, seed)


def random_regular(n: int, d: int, seed: SeedLike = None, max_tries: int = 200) -> Graph:
    """A random d-regular graph via the repaired pairing model.

    Each attempt repeatedly shuffles the unmatched stubs and keeps every
    pairing that is neither a self loop nor a duplicate edge; an attempt
    that stops making progress (a dead end) is restarted from scratch.
    This is the standard practical configuration-model sampler and
    succeeds within a couple of attempts for the constant degrees used in
    the benchmarks.
    """
    if d < 0 or d >= n:
        raise ValueError(f"need 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even for a d-regular graph")
    if d == 0:
        return Graph(n)
    rng = _rng(seed)
    for _ in range(max_tries):
        edge_set: Set[Tuple[int, int]] = set()
        stubs = [v for v in range(n) for _ in range(d)]
        stuck = False
        while stubs and not stuck:
            rng.shuffle(stubs)
            leftover: List[int] = []
            for i in range(0, len(stubs), 2):
                u, v = stubs[i], stubs[i + 1]
                e = (u, v) if u < v else (v, u)
                if u == v or e in edge_set:
                    leftover += [u, v]
                else:
                    edge_set.add(e)
            stuck = len(leftover) == len(stubs)
            stubs = leftover
        if not stubs:
            return Graph(n, edge_set)
    raise RuntimeError(
        f"failed to sample a simple {d}-regular graph on {n} vertices "
        f"after {max_tries} pairing attempts"
    )


def random_bipartite(a: int, b: int, p: float, seed: SeedLike = None) -> Graph:
    """Random bipartite graph: each left-right pair is an edge w.p. ``p``."""
    rng = _rng(seed)
    mask = rng.random((a, b)) < p
    edges = [(int(u), int(a + v)) for u, v in zip(*np.nonzero(mask))]
    return Graph(a + b, edges)


def barabasi_albert(n: int, m: int, seed: SeedLike = None) -> Graph:
    """Barabási–Albert preferential attachment: scale-free degree skew."""
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = _rng(seed)
    edges: List[Tuple[int, int]] = []
    # repeated_nodes holds each endpoint once per incident edge, so sampling
    # uniformly from it is degree-proportional sampling.
    repeated_nodes: List[int] = []
    # Seed with a star on m+1 vertices so early vertices have degree >= 1.
    for i in range(m):
        edges.append((i, m))
        repeated_nodes += [i, m]
    for new in range(m + 1, n):
        targets: Set[int] = set()
        while len(targets) < m:
            targets.add(repeated_nodes[int(rng.integers(len(repeated_nodes)))])
        for t in targets:
            edges.append((t, new))
            repeated_nodes += [t, new]
    return Graph(n, edges)


def power_law_cluster(n: int, m: int, triangle_p: float, seed: SeedLike = None) -> Graph:
    """Holme–Kim power-law graph with tunable clustering.

    Like Barabási–Albert, but after each preferential attachment step a
    triangle is closed with probability ``triangle_p``.
    """
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if not 0.0 <= triangle_p <= 1.0:
        raise ValueError("triangle_p must be in [0,1]")
    rng = _rng(seed)
    edges: Set[Tuple[int, int]] = set()
    repeated_nodes: List[int] = []
    neighbor_lists: List[List[int]] = [[] for _ in range(n)]

    def add_edge(u: int, v: int) -> bool:
        if u == v:
            return False
        e = (u, v) if u < v else (v, u)
        if e in edges:
            return False
        edges.add(e)
        neighbor_lists[u].append(v)
        neighbor_lists[v].append(u)
        repeated_nodes.extend((u, v))
        return True

    for i in range(m):
        add_edge(i, m)
    for new in range(m + 1, n):
        added = 0
        last_target: Optional[int] = None
        while added < m:
            if (
                last_target is not None
                and rng.random() < triangle_p
                and neighbor_lists[last_target]
            ):
                # Triangle-closure step: attach to a neighbor of the
                # previous target.
                candidates = neighbor_lists[last_target]
                t = candidates[int(rng.integers(len(candidates)))]
            else:
                t = repeated_nodes[int(rng.integers(len(repeated_nodes)))]
            if add_edge(t, new):
                added += 1
                last_target = t
    return Graph(n, edges)


def unit_disk(
    n: int,
    radius: float,
    seed: SeedLike = None,
    area: float = 1.0,
) -> Graph:
    """Unit-disk graph: ``n`` points uniform in a ``sqrt(area)``-side square,
    edges between points at distance <= ``radius``.

    The canonical wireless-sensor-network topology that motivates the
    beeping model.
    """
    rng = _rng(seed)
    side = math.sqrt(area)
    points = rng.random((n, 2)) * side
    r2 = radius * radius
    # Grid bucketing keeps this O(n) for constant expected degree.
    cell = max(radius, 1e-9)
    buckets: Dict[Tuple[int, int], List[int]] = {}
    for i, (x, y) in enumerate(points):
        buckets.setdefault((int(x / cell), int(y / cell)), []).append(i)
    edges: List[Tuple[int, int]] = []
    for (cx, cy), members in buckets.items():
        neighbors_cells = [
            buckets.get((cx + dx, cy + dy), [])
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        ]
        for i in members:
            xi, yi = points[i]
            for cell_members in neighbors_cells:
                for j in cell_members:
                    if j <= i:
                        continue
                    dx = points[j][0] - xi
                    dy = points[j][1] - yi
                    if dx * dx + dy * dy <= r2:
                        edges.append((i, j))
    return Graph(n, edges)


def watts_strogatz(n: int, k: int, rewire_p: float, seed: SeedLike = None) -> Graph:
    """Watts–Strogatz small-world graph.

    Start from a ring lattice where each vertex connects to its ``k``
    nearest neighbors (``k`` even), then rewire each edge's far endpoint
    with probability ``rewire_p`` (avoiding self loops and duplicates).
    """
    if k % 2 != 0 or k < 0:
        raise ValueError(f"k must be even and >= 0, got {k}")
    if k >= n:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    if not 0.0 <= rewire_p <= 1.0:
        raise ValueError("rewire_p must be in [0,1]")
    rng = _rng(seed)
    edges: Set[Tuple[int, int]] = set()
    for v in range(n):
        for j in range(1, k // 2 + 1):
            edges.add(_normalize_edge(v, (v + j) % n))
    if rewire_p > 0.0:
        rewired: Set[Tuple[int, int]] = set()
        for u, v in sorted(edges):
            if rng.random() >= rewire_p:
                rewired.add((u, v))
                continue
            # Rewire the far endpoint to a uniform non-neighbor.
            for _ in range(8 * n):
                w = int(rng.integers(n))
                e = _normalize_edge(u, w)
                if w != u and e not in rewired and e not in edges:
                    rewired.add(e)
                    break
            else:
                rewired.add((u, v))  # dense corner case: keep the edge
        edges = rewired
    return Graph(n, edges)


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph: parts are consecutive id blocks."""
    if any(s < 0 for s in part_sizes):
        raise ValueError("part sizes must be >= 0")
    offsets = [0]
    for s in part_sizes:
        offsets.append(offsets[-1] + s)
    n = offsets[-1]
    part_of: List[int] = []
    for index, s in enumerate(part_sizes):
        part_of += [index] * s
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v]
    ]
    return Graph(n, edges)


def wheel(n: int) -> Graph:
    """The wheel W_n: a cycle on ``n-1`` vertices plus a universal hub 0."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    spokes = [(0, i) for i in range(1, n)]
    return Graph(n, rim + spokes)


def random_tree(n: int, seed: SeedLike = None) -> Graph:
    """A uniformly random labelled tree via a random Prüfer sequence."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return path(n)
    rng = _rng(seed)
    prufer = [int(rng.integers(n)) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    edges: List[Tuple[int, int]] = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Graph(n, edges)


# ----------------------------------------------------------------------
# Name-based dispatch used by the benchmark harness / CLI
# ----------------------------------------------------------------------
FAMILY_NAMES: Tuple[str, ...] = (
    "path",
    "cycle",
    "star",
    "complete",
    "grid",
    "torus",
    "binary_tree",
    "random_tree",
    "hypercube",
    "er",
    "regular",
    "ba",
    "unit_disk",
    "ws",
)


def by_name(name: str, n: int, seed: SeedLike = None) -> Graph:
    """Build a graph of roughly ``n`` vertices from a family name.

    Used by benchmark sweeps, where a uniform ``(name, n, seed)``
    interface is handy.  Family-specific parameters are fixed to the
    values used throughout EXPERIMENTS.md.
    """
    if name == "path":
        return path(n)
    if name == "cycle":
        return cycle(max(n, 3))
    if name == "star":
        return star(n)
    if name == "complete":
        return complete(n)
    if name == "grid":
        side = max(2, int(round(math.sqrt(n))))
        return grid_2d(side, side)
    if name == "torus":
        side = max(3, int(round(math.sqrt(n))))
        return torus_2d(side, side)
    if name == "binary_tree":
        depth = max(0, int(math.log2(max(n, 1))))
        return binary_tree(depth)
    if name == "random_tree":
        return random_tree(n, seed)
    if name == "hypercube":
        dim = max(0, int(round(math.log2(max(n, 1)))))
        return hypercube(dim)
    if name == "er":
        return erdos_renyi_mean_degree(n, 8.0, seed)
    if name == "regular":
        d = 6
        if (n * d) % 2:
            n += 1
        return random_regular(n, d, seed)
    if name == "ba":
        return barabasi_albert(n, 3, seed)
    if name == "unit_disk":
        # Radius chosen for expected degree ~ 8.
        radius = math.sqrt(9.0 / (math.pi * max(n, 1)))
        return unit_disk(n, radius, seed)
    if name == "ws":
        return watts_strogatz(max(n, 5), 4, 0.1, seed)
    raise ValueError(f"unknown graph family {name!r}; known: {FAMILY_NAMES}")
