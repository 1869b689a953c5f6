"""Track analysis over a complete DAG of ranked position evidence.

Vertices carry masses supporting "the target was at this position"; every
ordered pair (i, j) with i < j carries a mass against the direct transition
i -> j (for example because the implied speed is infeasible). A track is a
strictly increasing vertex sequence. The unnormalized plausibility of a track
factorizes as

    prod_{i not on track} (1 - p_i) * prod_{consecutive (i,j)} (1 - q_ij)

which the ranking DP exploits. The total conflict of combining all evidence
and the support of a track are counted exactly by sweeps over the vertices in
rank order (``track_conflict``, ``path_support``), following the ordered-DAG
structure of Bergsten & Schubert (1993). ``oracle.combine_oracle`` recomputes
everything by enumerating the full product space of evidence selections and is
the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .ds import ValidationError

NORM_VERTEX_LIMIT = 12  # the sweeps keep up to 2^(n-1) states; scripts/track_scaling.py times them
DEFAULT_Q_CAP = 0.999

Path = tuple[int, ...]


@dataclass(frozen=True)
class TrackVertex:
    """Ranked position report; rank is 1-based and orders admissible transitions."""

    rank: int
    time_s: float | None = None
    pos_km: tuple[float, float] | None = None


@dataclass(frozen=True, eq=False)
class TrackGraph:
    p: tuple[float, ...]  # vertex masses, index rank-1
    q: dict[tuple[int, int], float]  # edge masses keyed by (i, j) with i < j, 1-based
    vertices: tuple[TrackVertex, ...] | None = None

    def __post_init__(self):
        n = len(self.p)
        if n == 0:
            raise ValidationError("track graph needs at least one vertex")
        for i, pi in enumerate(self.p, start=1):
            if not 0.0 <= pi < 1.0:
                raise ValidationError(f"vertex mass p_{i} = {pi} outside [0, 1)")
        # dict keys are distinct, so n(n-1)/2 of them, each a pair i < j in range, are every pair
        ranks = range(1, n + 1)
        if len(self.q) != n * (n - 1) // 2 or not all(
            isinstance(key, tuple) and len(key) == 2 and key[0] in ranks and key[1] in ranks and key[0] < key[1]
            for key in self.q
        ):
            raise ValidationError("edge masses must cover exactly every pair i < j")
        for (i, j), qij in self.q.items():
            if not 0.0 <= qij < 1.0:
                raise ValidationError(f"edge mass q_{i}{j} = {qij} outside [0, 1)")
        if self.vertices is not None:
            if len(self.vertices) != n:
                raise ValidationError("vertex metadata length differs from p")
            if [v.rank for v in self.vertices] != list(range(1, n + 1)):
                raise ValidationError("vertex ranks must be 1..n in order")

    @property
    def n(self) -> int:
        return len(self.p)


def _check_path(g: TrackGraph, path: Sequence[int]) -> Path:
    path = tuple(path)
    if not path:
        raise ValidationError("a track visits at least one vertex")
    if any(not 1 <= v <= g.n for v in path):
        raise ValidationError(f"path {path} leaves the vertex range 1..{g.n}")
    if any(a >= b for a, b in zip(path, path[1:])):
        raise ValidationError(f"path {path} is not strictly increasing")
    return path


def kinematic_edge_mass(
    v_i: TrackVertex,
    v_j: TrackVertex,
    v_max_kmh: float,
    q_cap: float = DEFAULT_Q_CAP,
) -> float:
    """Doubt against the direct transition i -> j from the speed it would require.

    Zero while the required speed stays within ``v_max_kmh``; beyond that the
    doubt is 1 - v_max/v, capped at ``q_cap``. A non-positive time difference
    gets the full cap.
    """
    if not v_max_kmh > 0:  # also refuses nan
        raise ValidationError("v_max must be positive")
    if v_i.rank >= v_j.rank:
        raise ValidationError("edges run from lower to higher rank")
    if v_i.time_s is None or v_j.time_s is None or v_i.pos_km is None or v_j.pos_km is None:
        raise ValidationError("kinematic edge mass needs time and position on both vertices")
    dt_h = (v_j.time_s - v_i.time_s) / 3600.0
    if dt_h <= 0.0:
        return q_cap
    distance = math.dist(v_i.pos_km, v_j.pos_km)
    speed = distance / dt_h
    if speed <= v_max_kmh:
        return 0.0
    return min(q_cap, 1.0 - v_max_kmh / speed)


def kinematic_graph(
    vertices: Sequence[TrackVertex],
    p: Sequence[float],
    v_max_kmh: float,
    q_cap: float = DEFAULT_Q_CAP,
) -> TrackGraph:
    """Complete track graph with kinematically derived edge doubts."""
    q = {
        (vi.rank, vj.rank): kinematic_edge_mass(vi, vj, v_max_kmh, q_cap)
        for a, vi in enumerate(vertices)
        for vj in vertices[a + 1 :]
    }
    return TrackGraph(tuple(p), q, tuple(vertices))


def path_plausibility_unnorm(g: TrackGraph, path: Sequence[int]) -> float:
    path = _check_path(g, path)
    on = set(path)
    value = math.prod(1.0 - pi for i, pi in enumerate(g.p, start=1) if i not in on)
    return value * math.prod(1.0 - g.q[i, j] for i, j in zip(path, path[1:]))


def _add(states: dict, key, weight: float) -> None:
    if weight:
        states[key] = states.get(key, 0.0) + weight


def _blocked(q_into: list[float], sources: int) -> float:
    """Probability that every direct edge into a vertex from the bitmask ``sources``
    (bit u-1 for vertex u) is doubted; ``q_into[u-1]`` is the edge mass u -> v."""
    prob = 1.0
    while sources:
        low = sources & -sources
        prob *= q_into[low.bit_length() - 1]
        sources ^= low
    return prob


def track_conflict(g: TrackGraph) -> tuple[float, float]:
    """(conflict, normalizer) of combining every vertex and edge evidence, exactly.

    A selection of evidence combines to the empty set when no track visits every
    required vertex (selected vertex evidence) without a doubted transition
    (selected edge evidence). The sweep visits vertices in rank order and draws
    the evidence on v and on every edge into v when it reaches v. Its state is
    None before the first required vertex, else the bitmask A of vertices that
    undoubted edges reach from the last required one; v is reached with
    probability 1 - prod_{u in A} q_uv. A required vertex resets A to {v}, or
    kills the selection when it is not reached. The conflict is the mass
    killed and the normalizer 1 - conflict is the mass that survives; each is
    summed on its own, so the normalizer keeps its relative precision when the
    conflict rounds to 1. Zero-weight states are dropped, so a graph without
    doubt keeps O(1) states.
    """
    states: dict[int | None, float] = {None: 1.0}
    died: list[float] = []
    for v in range(1, g.n + 1):
        bit = 1 << (v - 1)
        pv = g.p[v - 1]
        q_into = [g.q[u, v] for u in range(1, v)]
        nxt: dict[int | None, float] = {}
        for a, w in states.items():
            if a is None:
                _add(nxt, None, w * (1.0 - pv))
                _add(nxt, bit, w * pv)
                continue
            blocked = _blocked(q_into, a)
            _add(nxt, a | bit, w * (1.0 - pv) * (1.0 - blocked))
            _add(nxt, a, w * (1.0 - pv) * blocked)
            _add(nxt, bit, w * pv * (1.0 - blocked))
            died.append(w * pv * blocked)
        states = nxt
    return math.fsum(died), math.fsum(states.values())


def path_support(g: TrackGraph, path: Sequence[int], norm: float | None = None) -> float:
    """Normalized support (belief) of one track, exactly; ``norm`` is the
    normalizer from ``track_conflict(g)``, computed here when not given.

    The unnormalized support is the mass of selections whose combination is
    the track P alone: P survives, with probability
    ``path_plausibility_unnorm``, and no other track does. Given that P
    survives, only vertices of P can be required and P's own transitions are
    undoubted. The sweep's state is (free, A): free until the first required
    vertex, and A the bitmask of endpoints of surviving partial tracks other
    than P's prefix, whose last vertex is e. A vertex off P is reached from
    A and e; a vertex of P is reached from A, where the edge from e is
    undoubted. While free, a fresh start reaches every vertex except P's first.
    Skipping a vertex of P that is not required turns P's prefix into another
    partial track ending at e. The support is the weight ending with A empty.
    """
    path = _check_path(g, path)
    if norm is None:
        norm = track_conflict(g)[1]
    on = set(path)
    e = 0  # last vertex of P swept so far; 0 before P starts
    states: dict[tuple[bool, int], float] = {(True, 0): 1.0}
    for v in range(1, g.n + 1):
        bit = 1 << (v - 1)
        e_bit = 1 << (e - 1) if e else 0
        q_into = [g.q[u, v] for u in range(1, v)]
        nxt: dict[tuple[bool, int], float] = {}
        if v not in on:  # never required, since P survives
            for (free, a), w in states.items():
                blocked = 0.0 if free else _blocked(q_into, a | e_bit)
                _add(nxt, (free, a | bit), w * (1.0 - blocked))
                _add(nxt, (free, a), w * blocked)
        else:
            pv = g.p[v - 1]
            if e:
                q_into[e - 1] = 0.0
            for (free, a), w in states.items():
                # a fresh start at P's first vertex would be P's own prefix
                blocked = 0.0 if free and e else _blocked(q_into, a)
                _add(nxt, (False, bit), w * pv * (1.0 - blocked))
                _add(nxt, (False, 0), w * pv * blocked)
                skipped = a | e_bit
                _add(nxt, (free, skipped | bit), w * (1.0 - pv) * (1.0 - blocked))
                _add(nxt, (free, skipped), w * (1.0 - pv) * blocked)
            e = v
        states = nxt
    alone = math.fsum(w for (_, a), w in states.items() if not a)
    return path_plausibility_unnorm(g, path) * alone / norm


def normalize(
    g: TrackGraph, paths: Sequence[Sequence[int]]
) -> tuple[float | None, tuple[tuple[float, float] | None, ...]]:
    """(conflict, (normalized plausibility, support) per path): the one place that
    decides which graphs are normalized. One ``track_conflict`` sweep gives the
    normalizer every path shares; past ``NORM_VERTEX_LIMIT`` vertices nothing is swept
    and every value is None."""
    if g.n > NORM_VERTEX_LIMIT:
        return None, (None,) * len(paths)
    conflict, norm = track_conflict(g)
    return conflict, tuple(
        (path_plausibility_unnorm(g, path) / norm, path_support(g, path, norm)) for path in paths
    )


def best_path_dp(g: TrackGraph, top_k: int = 1) -> list[tuple[Path, float]]:
    """Top-k tracks by unnormalized plausibility via longest-path DP, O(n^2 k).

    Factoring out the constant prod(1 - p_i) turns the plausibility product
    into the additive score sum(-log(1-p_i) over the path) + sum(log(1-q_ij)
    over consecutive pairs). Candidates are ordered by (-score, path) on the
    float score sums, so of two paths the lexicographically smaller comes
    first only where their sums are bit-equal; paths of equal plausibility
    whose log sums round apart are ordered by that rounding. On p = (0.5,
    0.75, 0, 0), q13 = 0.25, q23 = 0.5 and every other q = 0, top-4 keeps (2,)
    and (2, 4) and leaves out (1, 2, 3) and (1, 2, 3, 4), all four of
    plausibility 0.5.
    """
    if top_k < 1:
        raise ValidationError("top_k must be >= 1")
    n = g.n
    gain = [-math.log(1.0 - pi) for pi in g.p]
    ranked: dict[int, list[tuple[float, Path]]] = {}
    for j in range(1, n + 1):
        candidates: list[tuple[float, Path]] = [(gain[j - 1], (j,))]
        for i in range(1, j):
            step = math.log(1.0 - g.q[i, j]) + gain[j - 1]
            candidates.extend((score + step, path + (j,)) for score, path in ranked[i])
        candidates.sort(key=lambda sp: (-sp[0], sp[1]))
        ranked[j] = candidates[:top_k]
    pool = [sp for lst in ranked.values() for sp in lst]
    pool.sort(key=lambda sp: (-sp[0], sp[1]))
    # report exact products, not exp(score): the same bits as path_plausibility_unnorm
    return [(path, path_plausibility_unnorm(g, path)) for _, path in pool[:top_k]]


def dot_export(g: TrackGraph) -> str:
    """Graphviz rendering with vertex and edge masses as 6-decimal labels."""
    lines = ["digraph trackgraph {"]
    for i in range(1, g.n + 1):
        meta = ""
        if g.vertices is not None and g.vertices[i - 1].time_s is not None:
            meta = f" t={g.vertices[i - 1].time_s:.0f}s"
        lines.append(f'  v{i} [label="{i}{meta} p={g.p[i - 1]:.6f}"];')
    for (i, j), qij in sorted(g.q.items()):
        lines.append(f'  v{i} -> v{j} [label="{qij:.6f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
