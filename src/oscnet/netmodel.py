"""Environment-network construction: periodic chains, Watts-Strogatz and
Barabasi-Albert graphs, and a JSON document format for arbitrary topologies.

All generators are pure functions of their parameters and seed; graphs are
immutable after construction. A graph checks its edges once, where it is
built: a probed copy (``CouplingGraph.with_probe``) checks only the probe and
shares the read-only couplings and recipe. Node indices are 1-based in
documents and reports, 0-based internally.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

MAX_REWIRE_ATTEMPTS = 100


class GraphError(ValueError):
    """Invalid graph construction, or a JSON document (graph document, recipe
    or run config) that does not fit its format."""


# ---------------------------------------------------------------------------
# JSON document formats, all checked by ``_fields``: the recipe and graph
# document tables here, the run config's in ``cli``


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# JSON value types by name: how messages say them, and the test of the value's own
# type. Entries are checked in one walk, the first bad one reported: numbers by
# ``_value_error``, [i, j, g] edges (integer 1-based i != j, numeric g) by ``_explicit_parts``
_JSON_TYPES: dict[str, tuple[str, Callable[[object], bool]]] = {
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "number": ("a number", _is_number),
    "string": ("a string", lambda v: isinstance(v, str)),
    "object": ("a JSON object", lambda v: isinstance(v, dict)),
    "numbers": ("a non-empty list of numbers", lambda v: isinstance(v, list) and len(v) > 0),
    "edges": ("a list of [i, j, g] edges", lambda v: isinstance(v, list)),
}

# a graph's node indices and weights, from Python or NumPy (each use refuses bool)
_INTEGERS, _REALS = (int, np.integer), (int, float, np.integer, np.floating)


def _is_int(v: object) -> bool:
    """Whether ``v`` is an integer, Python or NumPy, and not bool."""
    return isinstance(v, _INTEGERS) and not isinstance(v, bool)


class _Field(NamedTuple):
    """One key of a JSON document format: its JSON types (names in
    ``_JSON_TYPES`` joined by " or "), its default (``...``: required;
    None: optional without one) and the range of its value, or of each
    entry of a list of numbers, as a test and as text."""

    types: str
    default: object = ...
    ok: Callable[[object], bool] | None = None
    text: str = ""


def _at_least(lo: float) -> tuple:
    return (lambda v: v >= lo), f">= {lo}"


def _one_of(*choices: str) -> tuple:
    return (lambda v: v in choices), " or ".join(map(json.dumps, choices))


_POSITIVE = ((lambda v: v > 0), "> 0")


def _value_error(name: str, value: object, field: _Field) -> str | None:
    """What is wrong with ``value`` as the value of ``field`` (its JSON type,
    a number that is not finite, or its range), or None. A list of numbers
    is checked entry by entry, and its first bad entry is reported."""
    types = field.types.split(" or ")
    for kind in types:
        if _JSON_TYPES[kind][1](value):
            break
    else:
        kind = None
    for v in value if kind == "numbers" else (value,):
        if kind is None or kind == "numbers" and not _is_number(v):
            what = " or ".join(_JSON_TYPES[t][0] for t in types)
            return f"'{name}' must be {what}, got {json.dumps(value)}"
        if isinstance(v, float) and not math.isfinite(v):
            return f"{name} must be finite, got {json.dumps(value)}"
        if field.ok is not None and not field.ok(v):
            return f"{name} must be {field.text}, got {json.dumps(value)}"
    return None


def _fields(doc: object, fields: Mapping[str, _Field], where: str) -> dict:
    """The top-level fields of a JSON object, checked against ``fields``,
    with each default copied in and numbers as floats. A dotted name is a key
    of a nested block, listed after its block; a block without listed keys is
    not checked inside. GraphError names every unknown key in the tree by
    dotted name, else the first missing or malformed key in table order."""
    if not isinstance(doc, Mapping):
        raise GraphError(f"{where} must be a JSON object, got {json.dumps(doc)}")
    blocks, names, out, problem = {"": doc}, {}, {}, None
    for path, spec in fields.items():
        parent, _, name = path.rpartition(".")
        names.setdefault(parent, set()).add(name)
        block = blocks.get(parent)  # None: the block is absent or not an object
        if block is None or name not in block:
            if block is not None and spec.default is ...:
                problem = problem or f"{where} is missing field '{path}'"
            elif not parent:
                out[name] = _copy_json(spec.default)
            continue
        value = block[name]
        error = _value_error(path, value, spec)
        problem = problem or error and f"{where}: {error}"
        if isinstance(value, dict):
            blocks[path] = value
        if not (parent or problem):
            out[name] = float(value) if spec.types == "number" else value
    unknown = [f"{p}.{k}" if p else k for p, known in names.items() if p in blocks
               for k in sorted(set(blocks[p]) - known)]
    if unknown:
        raise GraphError(f"{where} has unknown field(s): {', '.join(unknown)}")
    if problem:
        raise GraphError(problem)
    return out


def _read_only(self, *args, **kwargs):
    raise TypeError("a graph's couplings and recipe are read-only; build a new graph")


class _FrozenDict(dict):
    """A dict that raises TypeError on every in-place change."""

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):  # copy and pickle rebuild it whole
        return type(self), (dict(self),)


class _FrozenList(list):
    """A list that raises TypeError on every in-place change."""

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = clear = extend = insert = pop = remove = reverse = sort = _read_only

    def __reduce__(self):
        return type(self), (list(self),)


def _copy_json(value: object, obj: type = dict, arr: type = list) -> object:
    """A deep copy of a JSON value (dicts, lists and scalars), its objects
    built by ``obj`` and its lists by ``arr``."""
    if isinstance(value, dict):
        return obj({k: _copy_json(v, obj, arr) for k, v in value.items()})
    if isinstance(value, list):
        return arr([_copy_json(v, obj, arr) for v in value])
    return value


@dataclass(frozen=True)
class ProbeSpec:
    """Probe oscillator attachment: 0-based site, coupling k >= 0, frequency."""

    site: int
    k: float
    omega_s: float


def _check_probe(probe: ProbeSpec, n_nodes: int) -> None:
    """Raise GraphError when a probe does not fit a graph of ``n_nodes``."""
    site = probe.site
    if not (_is_int(site) and 0 <= site < n_nodes):
        raise GraphError(f"probe site {site} out of range")
    if not 0 <= probe.k < np.inf:
        raise GraphError("probe coupling k must be finite and >= 0")
    if not 0 < probe.omega_s < np.inf:
        raise GraphError("probe frequency must be finite and > 0")


@dataclass(frozen=True)
class CouplingGraph:
    """Harmonic-oscillator environment network.

    Parameters
    ----------
    n_nodes:
        Number of environment oscillators (an integer).
    omega:
        Node frequencies, all > 0.
    couplings:
        Map (i, j) -> g_ij with integer i < j (0-based; Python or NumPy, not
        bool), real g_ij > 0. Symmetry is implicit in the key ordering.
    probe:
        Optional probe attachment; most operations require it.
    recipe:
        The recipe document that generated the graph (the mapping
        ``from_recipe`` accepts, ``seed`` an int), or None for an explicit
        graph.

    ``couplings`` and ``recipe`` are held as read-only copies of what is
    passed: a change in place raises TypeError, so a graph stays as checked,
    and the copies ``with_probe`` returns share them.
    """

    n_nodes: int
    omega: tuple[float, ...]
    couplings: Mapping[tuple[int, int], float]
    probe: ProbeSpec | None = None
    recipe: Mapping[str, object] | None = None

    def __post_init__(self):
        # copies that refuse change: the checks below hold for the graph's life
        object.__setattr__(self, "couplings", _FrozenDict(self.couplings))
        if self.recipe is not None:
            recipe = _copy_json(dict(self.recipe), _FrozenDict, _FrozenList)
            object.__setattr__(self, "recipe", recipe)
        n = self.n_nodes
        if not (_is_int(n) and n >= 1):
            raise GraphError("graph needs at least one node")
        if len(self.omega) != n:
            raise GraphError("omega list length != n_nodes")
        if not all(0 < w < np.inf for w in self.omega):
            raise GraphError("all node frequencies must be finite and > 0")
        for (i, j), g in self.couplings.items():
            if not (
                isinstance(i, _INTEGERS) and isinstance(j, _INTEGERS) and 0 <= i < j < n
            ) or bool in (type(i), type(j)):
                raise GraphError(f"bad edge ({i}, {j}): indices out of range or not i < j")
            if not (isinstance(g, _REALS) and not isinstance(g, bool) and 0 < g < np.inf):
                raise GraphError(f"edge ({i + 1}, {j + 1}) has weight {g}, not finite and > 0")
        if self.probe is not None:
            _check_probe(self.probe, n)

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
        """Return a copy with the probe attached at a 1-based node index.

        Only the probe is checked: the copy shares this graph's checked,
        read-only couplings and recipe instead of being built anew."""
        # True - 1 is the int 0: a bool site stays bool for the check to refuse
        site = site_1based if isinstance(site_1based, bool) else site_1based - 1
        probe = ProbeSpec(site=site, k=float(k), omega_s=float(omega_s))
        _check_probe(probe, self.n_nodes)
        graph = copy.copy(self)
        object.__setattr__(graph, "probe", probe)
        return graph


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
    if not (_is_int(n) and n >= 2):
        raise GraphError("chain needs an integer n >= 2")
    if not pattern:
        raise GraphError("empty coupling pattern")
    if not all(0 < g < np.inf for g in pattern):
        raise GraphError("pattern entries must be finite and > 0")
    couplings = {(i, i + 1): float(pattern[i % len(pattern)]) for i in range(n - 1)}
    recipe = {
        "kind": "linear-periodic", "n": n, "pattern": list(map(float, pattern)), "omega0": omega0,
    }
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
    if not (_is_int(n) and _is_int(K) and 0 < K < n):
        raise GraphError("need integers 0 < K < n")
    if K % 2 != 0:
        raise GraphError("K must be even")
    if not (_is_int(seed) and seed >= 0):
        raise GraphError("seed must be an integer >= 0")
    if not 0.0 <= p <= 1.0:
        raise GraphError("rewiring probability must be in [0, 1]")
    if not 0 < g < np.inf:
        raise GraphError("coupling weight must be finite and > 0")

    for attempt in range(MAX_REWIRE_ATTEMPTS):
        # attempt 0 uses the seed itself, retries use derived child sequences
        ss = np.random.SeedSequence(seed) if attempt == 0 else \
            np.random.SeedSequence(seed, spawn_key=(attempt,))
        edges = _ws_rewire(n, K, p, np.random.default_rng(ss))
        if _connected(n, edges):
            couplings = {e: float(g) for e in sorted(edges)}
            recipe = {
                "kind": "watts-strogatz", "n": n, "K": K, "p": p, "g": g, "omega0": omega0,
                "seed": int(seed),
            }
            return CouplingGraph(n, (float(omega0),) * n, couplings, recipe=recipe)
    raise GraphError(f"Watts-Strogatz stayed disconnected after {MAX_REWIRE_ATTEMPTS} attempts")


def _ws_rewire(n: int, K: int, p: float, rng: np.random.Generator) -> set[tuple[int, int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for d in range(1, K // 2 + 1):
            j = (i + d) % n
            adj[i].add(j)
            adj[j].add(i)
    # rewire ring distance by ring distance, node by node (Watts & Strogatz order);
    # edge (i, i + d) is still in place at its step: lattice edge (i + d, i + d + d')
    # of another step is the same edge only for d + d' = n, and d + d' <= K < n
    for d in range(1, K // 2 + 1):
        for i in range(n):
            j = (i + d) % n
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
    if not (_is_int(n) and _is_int(kappa) and _is_int(m0) and 1 <= kappa <= m0 < n):
        raise GraphError("need integers 1 <= kappa <= m0 < n")
    if not (_is_int(seed) and seed >= 0):
        raise GraphError("seed must be an integer >= 0")
    if not 0 < g < np.inf:
        raise GraphError("coupling weight must be finite and > 0")
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
    recipe = {
        "kind": "barabasi-albert", "n": n, "kappa": kappa, "m0": m0, "g": g, "omega0": omega0,
        "seed": int(seed),
    }
    return CouplingGraph(n, (float(omega0),) * n, couplings, recipe=recipe)


def build_explicit(
    n: int, omega: float | Sequence[float], edges: Sequence[tuple[int, int, float]]
) -> CouplingGraph:
    """Graph from an explicit 1-based edge list [(i, j, g_ij), ...]; attach a
    probe with ``CouplingGraph.with_probe``. Each edge is a 3-item list or
    tuple of integer nodes i != j (Python or NumPy, not bool) and a numeric
    g; the first bad entry raises GraphError, as in a graph document, the one
    JSON form of an explicit graph (``load_graph``)."""
    omega_t, couplings = _explicit_parts(n, omega, edges)
    return CouplingGraph(n, omega_t, couplings)


def _explicit_parts(n: int, omega: float | Sequence[float], edges: Sequence) -> tuple:
    """The node frequencies and couplings (0-based int keys, float weights) of
    an explicit graph; the one edge-entry check (integer 1-based i != j,
    numeric g, the first bad entry reported) of ``build_explicit`` and graph
    documents. ``CouplingGraph`` checks the weights."""
    if not _is_int(n):
        raise GraphError("graph needs at least one node")
    if np.isscalar(omega):
        omega = [omega] * n
    omega_t = tuple(float(w) for w in omega)
    couplings: dict[tuple[int, int], float] = {}
    for e in edges:
        i, j, g = e if isinstance(e, (list, tuple)) and len(e) == 3 else (None,) * 3
        if bool in (type(i), type(j), type(g)) or not (
            isinstance(i, _INTEGERS) and isinstance(j, _INTEGERS) and isinstance(g, _REALS)
        ):
            what = "a list of [i, j, g] edges (integer i, j; numeric g)"
            raise GraphError(f"'edges' must be {what}, got entry {json.dumps(e, default=repr)}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphError(f"edge ({i}, {j}) references missing node")
        if i == j:
            raise GraphError(f"self-loop on node {i}")
        a, b = (int(i) - 1, int(j) - 1) if i < j else (int(j) - 1, int(i) - 1)
        if (a, b) in couplings and couplings[(a, b)] != g:
            raise GraphError(f"asymmetric weights for edge ({i}, {j}): {couplings[(a, b)]} vs {g}")
        couplings[(a, b)] = float(g)
    return omega_t, couplings


def _barabasi_albert(n, kappa, m0, g, omega0, seed) -> CouplingGraph:
    return build_barabasi_albert(n, kappa, kappa if m0 is None else m0, g, omega0, seed)


_N = _Field("integer", ..., *_at_least(1))
_G = _Field("number", ..., *_POSITIVE)
_OMEGA0 = _Field("number", ..., *_POSITIVE)
_SEED = _Field("integer", ..., *_at_least(0))

# recipe kind -> builder and its fields, which the builder takes by name
_RECIPES: dict[str, tuple[Callable[..., CouplingGraph], dict[str, _Field]]] = {
    "linear-periodic": (
        build_linear_chain,
        {"n": _N, "pattern": _Field("numbers", ..., *_POSITIVE), "omega0": _OMEGA0},
    ),
    "watts-strogatz": (
        build_watts_strogatz,
        {
            "n": _N, "K": _Field("integer", 4), "p": _Field("number"), "g": _G,
            "omega0": _OMEGA0, "seed": _SEED,
        },
    ),
    "barabasi-albert": (
        _barabasi_albert,
        {
            "n": _N, "kappa": _Field("integer"), "m0": _Field("integer", None), "g": _G,
            "omega0": _OMEGA0, "seed": _SEED,
        },
    ),
}


def _recipe(doc: object) -> tuple[Callable[..., CouplingGraph], dict]:
    """The builder of a recipe and its checked fields."""
    kind = doc.get("kind") if isinstance(doc, Mapping) else None
    if not isinstance(kind, str) or kind not in _RECIPES:
        raise GraphError(f"unknown recipe kind: {kind!r}; one of {', '.join(_RECIPES)}")
    build, fields = _RECIPES[kind]
    given = {k: v for k, v in doc.items() if k != "kind"}
    return build, _fields(given, fields, f"{kind} recipe")


def from_recipe(doc: Mapping[str, object]) -> CouplingGraph:
    """Build a graph from a recipe dictionary (the `recipe` document block)."""
    build, fields = _recipe(doc)
    return build(**fields)


def save_graph(graph: CouplingGraph) -> dict:
    """Serialize to the JSON document schema (1-based node indices), as plain
    dicts and lists."""
    omegas = set(graph.omega)
    doc: dict[str, object] = {"nodes": int(graph.n_nodes)}
    if len(omegas) == 1:
        doc["omega0"] = graph.omega[0]
    else:
        doc["omega"] = list(graph.omega)
    doc["edges"] = [[i + 1, j + 1, g] for (i, j), g in sorted(graph.couplings.items())]
    if graph.probe is not None:
        doc["probe"] = {
            "site": int(graph.probe.site) + 1,
            "k": graph.probe.k,
            "omega_s": graph.probe.omega_s,
        }
    if graph.recipe is not None:
        doc["recipe"] = _copy_json(graph.recipe)
    return doc


_PROBE_FIELDS = {
    "site": _Field("integer", ..., *_at_least(1)),
    "k": _Field("number", ..., *_at_least(0)),
    "omega_s": _Field("number", ..., *_POSITIVE),
}

_DOCUMENT_FIELDS = {
    "nodes": _N,
    "omega0": _Field("number", None, *_POSITIVE),
    "omega": _Field("numbers", None, *_POSITIVE),
    "edges": _Field("edges", []),
    "probe": _Field("object", None),
    "recipe": _Field("object", None),
}


def load_graph(doc: Mapping[str, object] | str) -> CouplingGraph:
    """Parse a graph document (dict or JSON text). Rejects asymmetric or
    non-positive weights; a missing probe block leaves the probe unset."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise GraphError(f"graph document is not valid JSON: {exc}") from exc
    f = _fields(doc, _DOCUMENT_FIELDS, "graph document")
    if (f["omega"] is None) == (f["omega0"] is None):
        raise GraphError("graph document needs exactly one of 'omega' and 'omega0'")
    omega, couplings = _explicit_parts(f["nodes"], f["omega"] or f["omega0"], f["edges"])
    probe, recipe = None, f["recipe"]
    if f["probe"] is not None:
        p = _fields(f["probe"], _PROBE_FIELDS, "graph document probe")
        probe = ProbeSpec(p["site"] - 1, p["k"], p["omega_s"])
    if recipe is not None:
        _recipe(recipe)  # provenance, kept as given (a read-only copy) once it checks
    # one construction: the range checks of every edge run once
    return CouplingGraph(f["nodes"], omega, couplings, probe, recipe)
