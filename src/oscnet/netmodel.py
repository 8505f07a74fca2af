"""Environment-network construction: periodic chains, Watts-Strogatz and
Barabasi-Albert graphs, and a JSON document format for arbitrary topologies.

All generators are pure functions of their parameters and seed; graphs are
immutable after construction. Node indices are 1-based in documents and
reports, 0-based internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

MAX_REWIRE_ATTEMPTS = 100


class GraphError(ValueError):
    """Invalid graph construction or document."""


@dataclass(frozen=True)
class ProbeSpec:
    """Probe oscillator attachment: 0-based site, coupling k >= 0, frequency."""

    site: int
    k: float
    omega_s: float


@dataclass(frozen=True)
class NetworkRecipe:
    """Provenance of a generated graph (kind, parameters, seed)."""

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int | None = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind, **self.params}
        if self.seed is not None:
            out["seed"] = int(self.seed)
        return out


@dataclass(frozen=True)
class CouplingGraph:
    """Harmonic-oscillator environment network.

    Parameters
    ----------
    n_nodes:
        Number of environment oscillators.
    omega:
        Node frequencies, all > 0.
    couplings:
        Map (i, j) -> g_ij with i < j (0-based), g_ij > 0. Symmetry is
        implicit in the canonical key ordering.
    probe:
        Optional probe attachment; most operations require it.
    recipe:
        Optional generator provenance.
    """

    n_nodes: int
    omega: tuple[float, ...]
    couplings: Mapping[tuple[int, int], float]
    probe: ProbeSpec | None = None
    recipe: NetworkRecipe | None = None

    def __post_init__(self):
        if self.n_nodes < 1:
            raise GraphError("graph needs at least one node")
        if len(self.omega) != self.n_nodes:
            raise GraphError("omega list length != n_nodes")
        if any(w <= 0 for w in self.omega):
            raise GraphError("all node frequencies must be > 0")
        for (i, j), g in self.couplings.items():
            if not (0 <= i < j < self.n_nodes):
                raise GraphError(f"bad edge ({i}, {j}): indices out of range or not i < j")
            if g <= 0:
                raise GraphError(f"edge ({i}, {j}) has non-positive weight {g}")
        if self.probe is not None:
            p = self.probe
            if not 0 <= p.site < self.n_nodes:
                raise GraphError(f"probe site {p.site} out of range")
            if p.k < 0:
                raise GraphError("probe coupling k must be >= 0")
            if p.omega_s <= 0:
                raise GraphError("probe frequency must be > 0")

    @property
    def n_edges(self) -> int:
        return len(self.couplings)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_nodes, dtype=int)
        for i, j in self.couplings:
            deg[i] += 1
            deg[j] += 1
        return deg

    def is_connected(self) -> bool:
        return _connected(self.n_nodes, self.couplings.keys())

    def with_probe(self, site_1based: int, k: float, omega_s: float) -> "CouplingGraph":
        """Return a copy with the probe attached at a 1-based node index."""
        return replace(self, probe=ProbeSpec(site=site_1based - 1, k=k, omega_s=omega_s))


def _connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def build_linear_chain(n: int, pattern: Sequence[float], omega0: float) -> CouplingGraph:
    """Open chain of n oscillators with periodically repeating edge weights.

    Edge (i, i+1) gets pattern[(i-1) mod len(pattern)] in 1-based node
    numbering, i.e. the pattern starts at the first edge and repeats.
    """
    if n < 2:
        raise GraphError("chain needs n >= 2")
    if not pattern:
        raise GraphError("empty coupling pattern")
    if any(g <= 0 for g in pattern):
        raise GraphError("pattern entries must be > 0")
    couplings = {(i, i + 1): float(pattern[i % len(pattern)]) for i in range(n - 1)}
    recipe = NetworkRecipe("linear-periodic", {"n": n, "pattern": list(map(float, pattern)), "omega0": omega0})
    return CouplingGraph(n, (float(omega0),) * n, couplings, recipe=recipe)


def build_watts_strogatz(
    n: int, K: int, p: float, g: float, omega0: float, seed: int
) -> CouplingGraph:
    """Watts-Strogatz small-world graph with uniform edge weight g.

    Standard construction: ring lattice with K nearest neighbours, then each
    clockwise ring edge of each node is rewired with probability p to a
    uniformly random non-neighbour. Edge count is exactly n*K/2. Disconnected
    draws are retried with a derived seed up to MAX_REWIRE_ATTEMPTS times.
    """
    if K % 2 != 0:
        raise GraphError("K must be even")
    if not 0 < K < n:
        raise GraphError("need 0 < K < n")
    if not 0.0 <= p <= 1.0:
        raise GraphError("rewiring probability must be in [0, 1]")
    if g <= 0:
        raise GraphError("coupling weight must be > 0")

    for attempt in range(MAX_REWIRE_ATTEMPTS):
        # attempt 0 uses the seed itself, retries use derived child sequences
        ss = np.random.SeedSequence(seed) if attempt == 0 else \
            np.random.SeedSequence(seed, spawn_key=(attempt,))
        edges = _ws_rewire(n, K, p, np.random.default_rng(ss))
        if _connected(n, edges):
            couplings = {e: float(g) for e in sorted(edges)}
            recipe = NetworkRecipe(
                "watts-strogatz", {"n": n, "K": K, "p": p, "g": g, "omega0": omega0}, seed
            )
            return CouplingGraph(n, (float(omega0),) * n, couplings, recipe=recipe)
    raise GraphError(f"Watts-Strogatz stayed disconnected after {MAX_REWIRE_ATTEMPTS} attempts")


def _ws_rewire(n: int, K: int, p: float, rng: np.random.Generator) -> set[tuple[int, int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for d in range(1, K // 2 + 1):
            j = (i + d) % n
            adj[i].add(j)
            adj[j].add(i)
    # rewire ring distance by ring distance, node by node (Watts & Strogatz order)
    for d in range(1, K // 2 + 1):
        for i in range(n):
            j = (i + d) % n
            if j not in adj[i]:
                continue  # this lattice edge was already rewired away
            if rng.random() >= p:
                continue
            candidates = [m for m in range(n) if m != i and m not in adj[i]]
            if not candidates:
                continue
            m = candidates[rng.integers(len(candidates))]
            adj[i].discard(j)
            adj[j].discard(i)
            adj[i].add(m)
            adj[m].add(i)
    return {(min(i, j), max(i, j)) for i in range(n) for j in adj[i]}


def build_barabasi_albert(
    n: int, kappa: int, m0: int, g: float, omega0: float, seed: int
) -> CouplingGraph:
    """Barabasi-Albert preferential-attachment graph, uniform edge weight g.

    Starts from m0 unlinked seed nodes; each new node attaches kappa distinct
    edges, degree-weighted (uniform while all degrees are zero). Total edge
    count is exactly kappa * (n - m0).
    """
    if not 1 <= kappa <= m0 < n:
        raise GraphError("need 1 <= kappa <= m0 < n")
    if g <= 0:
        raise GraphError("coupling weight must be > 0")
    rng = np.random.default_rng(seed)
    deg = np.zeros(n)
    couplings: dict[tuple[int, int], float] = {}
    for new in range(m0, n):
        total = deg[:new].sum()
        if total == 0:
            weights = np.full(new, 1.0 / new)
        else:
            weights = deg[:new] / total
        targets = rng.choice(new, size=min(kappa, new), replace=False, p=weights)
        for t in sorted(int(t) for t in targets):
            couplings[(t, new)] = float(g)
            deg[t] += 1
            deg[new] += 1
    recipe = NetworkRecipe(
        "barabasi-albert", {"n": n, "kappa": kappa, "m0": m0, "g": g, "omega0": omega0}, seed
    )
    return CouplingGraph(n, (float(omega0),) * n, couplings, recipe=recipe)


def build_explicit(
    n: int,
    omega: float | Sequence[float],
    edges: Sequence[tuple[int, int, float]],
    probe: ProbeSpec | None = None,
) -> CouplingGraph:
    """Graph from an explicit 1-based edge list [(i, j, g_ij), ...]."""
    omega_t = (float(omega),) * n if np.isscalar(omega) else tuple(float(w) for w in omega)
    couplings: dict[tuple[int, int], float] = {}
    for i, j, g in edges:
        if i == j:
            raise GraphError(f"self-loop on node {i}")
        a, b = min(i, j) - 1, max(i, j) - 1
        if (a, b) in couplings and couplings[(a, b)] != g:
            raise GraphError(f"conflicting weights for edge ({i}, {j})")
        couplings[(a, b)] = float(g)
    return CouplingGraph(n, omega_t, couplings, probe=probe, recipe=NetworkRecipe("explicit"))


def from_recipe(doc: Mapping[str, object]) -> CouplingGraph:
    """Build a graph from a recipe dictionary (the `recipe` document block)."""
    kind = doc.get("kind")
    if kind == "linear-periodic":
        return build_linear_chain(int(doc["n"]), list(doc["pattern"]), float(doc["omega0"]))
    if kind == "watts-strogatz":
        return build_watts_strogatz(
            int(doc["n"]), int(doc.get("K", 4)), float(doc["p"]),
            float(doc["g"]), float(doc["omega0"]), int(doc["seed"]),
        )
    if kind == "barabasi-albert":
        kappa = int(doc["kappa"])
        return build_barabasi_albert(
            int(doc["n"]), kappa, int(doc.get("m0", kappa)),
            float(doc["g"]), float(doc["omega0"]), int(doc["seed"]),
        )
    if kind == "explicit":
        omega = doc.get("omega", doc.get("omega0"))
        return build_explicit(int(doc["n"]), omega, [tuple(e) for e in doc["edges"]])
    raise GraphError(f"unknown recipe kind: {kind!r}")


def save_graph(graph: CouplingGraph) -> dict:
    """Serialize to the JSON document schema (1-based node indices)."""
    omegas = set(graph.omega)
    doc: dict[str, object] = {"nodes": graph.n_nodes}
    if len(omegas) == 1:
        doc["omega0"] = graph.omega[0]
    else:
        doc["omega"] = list(graph.omega)
    doc["edges"] = [[i + 1, j + 1, g] for (i, j), g in sorted(graph.couplings.items())]
    if graph.probe is not None:
        doc["probe"] = {
            "site": graph.probe.site + 1,
            "k": graph.probe.k,
            "omega_s": graph.probe.omega_s,
        }
    if graph.recipe is not None and graph.recipe.kind != "explicit":
        doc["recipe"] = graph.recipe.to_dict()
    return doc


def load_graph(doc: Mapping[str, object] | str) -> CouplingGraph:
    """Parse a graph document (dict or JSON text). Rejects asymmetric or
    non-positive weights; a missing probe block leaves the probe unset."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if "nodes" not in doc:
        raise GraphError("document missing 'nodes'")
    n = int(doc["nodes"])
    if "omega0" in doc:
        omega: object = float(doc["omega0"])
    elif "omega" in doc:
        omega = [float(w) for w in doc["omega"]]
        if len(omega) != n:
            raise GraphError("per-node omega list length != nodes")
    else:
        raise GraphError("document missing 'omega0' or 'omega'")

    seen: dict[tuple[int, int], float] = {}
    edges = []
    for entry in doc.get("edges", []):
        if len(entry) != 3:
            raise GraphError(f"malformed edge entry: {entry!r}")
        i, j, g = int(entry[0]), int(entry[1]), float(entry[2])
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphError(f"edge ({i}, {j}) references missing node")
        key = (min(i, j), max(i, j))
        if key in seen and seen[key] != g:
            raise GraphError(f"asymmetric weights for edge {key}: {seen[key]} vs {g}")
        seen[key] = g
        edges.append((i, j, g))

    probe = None
    if "probe" in doc:
        p = doc["probe"]
        probe = ProbeSpec(site=int(p["site"]) - 1, k=float(p["k"]), omega_s=float(p["omega_s"]))
    graph = build_explicit(n, omega, edges, probe=probe)
    if "recipe" in doc:
        r = dict(doc["recipe"])
        kind = r.pop("kind", "explicit")
        seed = r.pop("seed", None)
        graph = replace(graph, recipe=NetworkRecipe(kind, r, seed))
    return graph
