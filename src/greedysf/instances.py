"""Instance model: terminal pairs, reveal schedules, serialization, generators.

An instance is a graph, an ordered list of terminal pairs, and a reveal
schedule: schedule[i] lists extra edges made available to the online
algorithm immediately before pair i arrives.  Offline optima never read the
schedule.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import InputError, ParseError
from .exact import class_radius, format_fraction, parse_edge, parse_int, parse_list, pow2
from .graph import WeightedGraph, girth, obj_to_graph, graph_to_obj, spanning_forest


@dataclass(frozen=True)
class TerminalPair:
    s: int
    t: int


@dataclass(frozen=True)
class Instance:
    graph: WeightedGraph
    pairs: tuple[TerminalPair, ...]
    schedule: tuple[tuple[tuple[int, int, Fraction], ...], ...]

    @property
    def k(self) -> int:
        return len(self.pairs)

    @cached_property
    def pair_distances(self) -> tuple[Optional[Fraction], ...]:
        """Original-graph distance of every pair, None where disconnected.

        One search per distinct source, stopped once that source's mates are
        settled.  Computed on first read and kept, as the graph keeps its
        metric; no field holds it, so equality, hash, repr and digest never
        see it.
        """
        g = self.graph
        mates: dict[int, set[int]] = {}
        for pair in self.pairs:
            g.check_vertex(pair.s)
            g.check_vertex(pair.t)
            mates.setdefault(pair.s, set()).add(pair.t)
        metric = g.metric
        found = {s: metric.distances_to(s, ts) for s, ts in mates.items()}
        return tuple(
            None if (d := found[pair.s][pair.t]) is None else Fraction(d, metric.scale)
            for pair in self.pairs
        )

    def terminals(self) -> frozenset[int]:
        return frozenset(v for p in self.pairs for v in (p.s, p.t))

    def digest(self) -> str:
        return hashlib.sha256(serialize_instance(self).encode()).hexdigest()


def make_instance(graph: WeightedGraph, pairs, schedule=None) -> Instance:
    """Build an Instance from raw (s, t) pairs; schedule defaults to empty."""
    tp = tuple(TerminalPair(s, t) for s, t in pairs)
    if schedule is None:
        schedule = [[] for _ in tp]
    sched = tuple(
        tuple((u, v, Fraction(w)) for u, v, w in edges) for edges in schedule
    )
    return Instance(graph, tp, sched)


class MateMap:
    """Mate lookup at the level of terminal occurrences.

    A vertex may appear in several pairs; each (pair, side) occurrence has a
    unique mate, which matches the usual convention of duplicating shared
    terminals (zero-weight copies change no distance, so occurrence
    bookkeeping is equivalent and is what the audits use).
    """

    def __init__(self, inst: Instance):
        self._by_vertex: dict[int, list[tuple[int, int]]] = {}
        for i, p in enumerate(inst.pairs):
            self._by_vertex.setdefault(p.s, []).append((i, p.t))
            self._by_vertex.setdefault(p.t, []).append((i, p.s))

    def occurrences(self, vertex: int) -> list[tuple[int, int]]:
        """List of (pair index, mate vertex) for every occurrence of vertex."""
        return list(self._by_vertex.get(vertex, []))


def validate_instance(inst: Instance) -> list[str]:
    """Collect invariant violations; an empty list means the instance is valid."""
    out = []
    n = inst.graph.n
    for i, p in enumerate(inst.pairs):
        if not (0 <= p.s < n and 0 <= p.t < n):
            out.append(f"pairs[{i}]: endpoint out of range")
        if p.s == p.t:
            out.append(f"pairs[{i}]: s == t")
    if len(inst.schedule) != len(inst.pairs):
        out.append(
            f"schedule: length {len(inst.schedule)} != pair count {len(inst.pairs)}"
        )
    for i, edges in enumerate(inst.schedule):
        for j, (u, v, w) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                out.append(f"schedule[{i}][{j}]: endpoint out of range")
            if u == v:
                out.append(f"schedule[{i}][{j}]: self-loop")
            if w < 0:
                out.append(f"schedule[{i}][{j}]: negative weight")
    return out


# -- serialization ----------------------------------------------------------

def instance_to_obj(inst: Instance) -> dict:
    return {
        "graph": graph_to_obj(inst.graph),
        "pairs": [[p.s, p.t] for p in inst.pairs],
        "schedule": [
            [[u, v, format_fraction(w)] for u, v, w in edges]
            for edges in inst.schedule
        ],
    }


def obj_to_instance(obj) -> Instance:
    if not isinstance(obj, dict):
        raise ParseError("instance must be a JSON object")
    unknown = set(obj) - {"graph", "pairs", "schedule"}
    if unknown:
        raise ParseError(f"instance has unknown fields: {sorted(unknown)}")
    for field in ("graph", "pairs", "schedule"):
        if field not in obj:
            raise ParseError(f"instance is missing field {field!r}")
    g = obj_to_graph(obj["graph"])
    pairs = []
    for i, item in enumerate(parse_list(obj["pairs"], "pairs")):
        if not (isinstance(item, list) and len(item) == 2):
            raise ParseError(f"pairs[{i}] must be [s, t]")
        pairs.append(tuple(parse_int(v, f"pairs[{i}] endpoint") for v in item))
    schedule = []
    for i, row in enumerate(parse_list(obj["schedule"], "schedule")):
        row = parse_list(row, f"schedule[{i}]")
        schedule.append([parse_edge(e, f"schedule[{i}][{j}]") for j, e in enumerate(row)])
    inst = make_instance(g, pairs, schedule)
    problems = validate_instance(inst)
    if problems:
        raise ParseError("; ".join(problems))
    return inst


def serialize_instance(inst: Instance) -> str:
    return json.dumps(instance_to_obj(inst), sort_keys=True, separators=(",", ":"))


def parse_instance(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    return obj_to_instance(obj)


# -- matchings --------------------------------------------------------------

def maximal_matching(g: WeightedGraph) -> list[tuple[int, int]]:
    """Inclusion-maximal matching, greedy over edges sorted by (min, max)."""
    chosen = []
    used: set[int] = set()
    for u, v in sorted((min(u, v), max(u, v)) for u, v, _ in g.edges):
        if u not in used and v not in used:
            chosen.append((u, v))
            used.add(u)
            used.add(v)
    return chosen


# -- cage catalog ------------------------------------------------------------

def _lcf_graph(n: int, offsets: list[int]) -> list[tuple[int, int]]:
    """Hamiltonian cycle 0..n-1 plus chords i -- i+offsets[i mod len]."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges = {(min(a, b), max(a, b)) for a, b in edges}
    for i in range(n):
        j = (i + offsets[i % len(offsets)]) % n
        edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def _petersen_edges() -> list[tuple[int, int]]:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((i, 5 + i))                # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return sorted((min(u, v), max(u, v)) for u, v in edges)


CAGES: dict[str, tuple[int, list[tuple[int, int]]]] = {
    "petersen": (10, _petersen_edges()),
    "heawood": (14, _lcf_graph(14, [5, -5])),
    "mcgee": (24, _lcf_graph(24, [12, 7, -7])),
    "tutte_coxeter": (30, _lcf_graph(30, [-13, -9, 7, -7, 9, 13])),
}


def gen_girth_lower_bound(cage: str) -> Instance:
    """Hard instance over a cage graph: tree edges cost 1, chords cost g/2.

    The pairs are the endpoints of a deterministic maximal matching of the
    non-tree edges, arriving in sorted order, with an empty schedule.
    """
    if cage not in CAGES:
        raise InputError(f"unknown cage {cage!r}; choices: {sorted(CAGES)}")
    n, skeleton = CAGES[cage]
    unit = WeightedGraph(n, [(u, v, Fraction(1)) for u, v in skeleton])
    # the breadth-first tree from vertex 0; the skeleton is sorted, so the
    # walk meets each vertex's neighbours in id order
    tree = {skeleton[ei] for ei in spanning_forest(unit).parent_edge if ei != -1}
    half_girth = Fraction(girth(unit), 2)
    weighted = [
        (u, v, Fraction(1) if (u, v) in tree else half_girth) for u, v in skeleton
    ]
    non_tree = [(u, v) for u, v in skeleton if (u, v) not in tree]
    matching = maximal_matching(
        WeightedGraph(n, [(u, v, half_girth) for u, v in non_tree])
    )
    return make_instance(WeightedGraph(n, weighted), matching)


# -- random instances --------------------------------------------------------

def gen_random_instance(n: int, m: int, k: int, seed: int) -> Instance:
    """Connected random graph, integer weights in [1, 100], k random pairs."""
    if n < 2:
        raise InputError("need at least 2 vertices")
    max_edges = n * (n - 1) // 2
    if m < n - 1 or m > max_edges:
        raise InputError(f"edge count {m} infeasible for n={n}")
    if k < 1 or k > max_edges:
        raise InputError(f"pair count {k} infeasible for n={n}")
    rng = random.Random(seed)
    edge_set = set()
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edge_set.add((u, v))
        edges.append((u, v, Fraction(rng.randint(1, 100))))
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edge_set
    ]
    for u, v in rng.sample(candidates, m - (n - 1)):
        edges.append((u, v, Fraction(rng.randint(1, 100))))
    pair_pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = rng.sample(pair_pool, k)
    return make_instance(WeightedGraph(n, edges), pairs)


# -- canonical nested generator ----------------------------------------------

def gen_canonical_nested(
    class_count: int, pairs_per_class: int, delta: int, seed: int
) -> Instance:
    """Well-separated nested instance exercising the per-class dual machinery.

    Class j (1-based) pairs cost c_j = m / 2**(j*(delta+10)) with
    m = 2**(class_count*(delta+10)+1), each realized by a breakpointed chain
    of exactly that length plus one schedule edge of the same weight.  For
    j >= 2 the first pair of the class hangs at distance r_{j-1}/4 from a
    host endpoint of class j-1, strictly inside the half-radius ball the
    per-class procedure keeps, so smaller classes land in the bigger balls'
    neighborhoods.  All contractions are exactly 1.
    """
    M, ppc = class_count, pairs_per_class
    if M < 1 or ppc < 1:
        raise InputError("need class_count >= 1 and pairs_per_class >= 1")
    if delta < 1:
        raise InputError("delta must be >= 1")
    if M * ppc > 64:
        raise InputError("vertex budget exceeded; reduce classes or pairs per class")
    rng = random.Random(seed)

    edges: list[tuple[int, int, Fraction]] = []
    next_id = 0

    def fresh() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    def add_chain(a: int, b: int, breakpoints: list[Fraction], total: Fraction):
        # chain a -> b with interior vertices at the given distances from a
        prev, prev_d = a, Fraction(0)
        for d in breakpoints:
            node = fresh()
            edges.append((prev, node, d - prev_d))
            prev, prev_d = node, d
        edges.append((prev, b, total - prev_d))

    pairs_with_cost: list[tuple[int, int, Fraction]] = []
    host: int | None = None  # endpoint hosting the next class's planted pair
    for j in range(1, M + 1):
        cost = pow2((M - j) * (delta + 10) + 1)
        radius = class_radius(cost, ppc)
        order = list(range(ppc))
        rng.shuffle(order)
        class_pairs: list[tuple[int, int]] = []
        next_host = None
        for slot, _ in enumerate(order):
            planted = j > 1 and slot == 0
            s = fresh()
            if planted:
                edges.append((host, s, radius_prev / 4))
            t = fresh()
            q = radius / 4
            breaks = [q, 2 * q, 4 * q, cost - 4 * q, cost - 2 * q, cost - q]
            add_chain(s, t, breaks, cost)
            class_pairs.append((s, t))
            if not planted:
                next_host = s
        host = next_host if next_host is not None else class_pairs[0][0]
        radius_prev = radius
        arrival = [class_pairs[i] for i in order]
        pairs_with_cost.extend((s, t, cost) for s, t in arrival)

    g = WeightedGraph(next_id, edges)
    pairs = [(s, t) for s, t, _ in pairs_with_cost]
    schedule = [[(s, t, c)] for s, t, c in pairs_with_cost]
    return make_instance(g, pairs, schedule)
