import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oscnet as on
from oscnet.cli import SCHEMA, bundled_config_path
from oscnet.netmodel import _DOCUMENT_FIELDS, _PROBE_FIELDS, _RECIPES, GraphError, _Field, _fields


class TestLinearChain:
    def test_network1_edge_sequence(self):
        g = on.build_linear_chain(16, [0.1, 0.05], 0.25)
        assert g.n_edges == 15
        weights = [g.couplings[(i, i + 1)] for i in range(15)]
        assert weights == [0.1, 0.05] * 7 + [0.1]
        assert all(w == 0.25 for w in g.omega)

    def test_smallest_chain(self):
        g = on.build_linear_chain(2, [0.07], 0.3)
        assert g.couplings == {(0, 1): 0.07}
        assert g.omega == (0.3, 0.3)

    def test_network3_period_three(self):
        g = on.build_linear_chain(16, [0.1, 0.05, 0.025], 0.25)
        weights = [g.couplings[(i, i + 1)] for i in range(15)]
        assert weights == [0.1, 0.05, 0.025] * 5

    def test_rejects_bad_input(self):
        with pytest.raises(GraphError):
            on.build_linear_chain(1, [0.1], 0.25)
        with pytest.raises(GraphError):
            on.build_linear_chain(4, [], 0.25)
        with pytest.raises(GraphError):
            on.build_linear_chain(4, [0.1, -0.2], 0.25)


class TestWattsStrogatz:
    def test_no_rewiring_gives_ring_lattice(self):
        g = on.build_watts_strogatz(50, 4, 0.0, 0.08, 0.25, seed=123)
        assert g.n_edges == 100
        assert np.all(g.degrees() == 4)
        expected = set()
        for i in range(50):
            for d in (1, 2):
                j = (i + d) % 50
                expected.add((min(i, j), max(i, j)))
        assert set(g.couplings) == expected

    def test_network4_instance(self):
        g = on.build_watts_strogatz(50, 4, 0.1, 0.08, 0.25, seed=78)
        assert g.n_edges == 100  # rewiring replaces edges one for one
        assert g.is_connected()
        assert all(w == 0.08 for w in g.couplings.values())

    def test_determinism(self):
        a = on.build_watts_strogatz(50, 4, 0.1, 0.08, 0.25, seed=9)
        b = on.build_watts_strogatz(50, 4, 0.1, 0.08, 0.25, seed=9)
        assert a.couplings == b.couplings
        c = on.build_watts_strogatz(50, 4, 0.1, 0.08, 0.25, seed=10)
        assert c.couplings != a.couplings

    def test_parameter_validation(self):
        with pytest.raises(GraphError):
            on.build_watts_strogatz(50, 3, 0.1, 0.08, 0.25, 1)  # odd K
        with pytest.raises(GraphError):
            on.build_watts_strogatz(4, 4, 0.1, 0.08, 0.25, 1)  # K >= n
        with pytest.raises(GraphError):
            on.build_watts_strogatz(50, 4, 1.5, 0.08, 0.25, 1)


class TestBarabasiAlbert:
    def test_network5_edge_count(self):
        g = on.build_barabasi_albert(50, 2, 2, 0.02, 0.25, seed=58)
        assert g.n_edges == 2 * (50 - 2)  # kappa * (n - m0) growth edges
        assert g.is_connected()
        assert all(w == 0.02 for w in g.couplings.values())

    def test_forced_small_case(self):
        g = on.build_barabasi_albert(3, 1, 1, 0.05, 0.25, seed=4)
        # two growth edges on three nodes: a path or a star
        assert g.n_edges == 2
        assert g.is_connected()
        assert sorted(g.degrees()) in ([1, 1, 2], [1, 1, 2])

    def test_determinism(self):
        a = on.build_barabasi_albert(50, 2, 2, 0.02, 0.25, seed=3)
        b = on.build_barabasi_albert(50, 2, 2, 0.02, 0.25, seed=3)
        assert a.couplings == b.couplings

    def test_parameter_validation(self):
        with pytest.raises(GraphError):
            on.build_barabasi_albert(50, 3, 2, 0.02, 0.25, 1)  # kappa > m0
        with pytest.raises(GraphError):
            on.build_barabasi_albert(2, 1, 2, 0.02, 0.25, 1)  # m0 >= n

    @pytest.mark.slow
    def test_degree_tail_exponent(self):
        # pooled degree histogram over 100 seeds at n=500: pdf tail ~ k^-3
        degs = []
        for s in range(100):
            degs.append(on.build_barabasi_albert(500, 2, 2, 0.02, 0.25, seed=s).degrees())
        degs = np.concatenate(degs)
        kvals = np.arange(4, 64)
        counts = np.array([(degs == k).sum() for k in kvals], dtype=float)
        nz = counts > 0
        slope, _ = np.polyfit(np.log(kvals[nz]), np.log(counts[nz]), 1)
        assert -3.6 < slope < -2.3


class TestDocuments:
    def test_round_trip_network1(self):
        g = on.build_linear_chain(16, [0.1, 0.05], 0.25).with_probe(8, 0.01, 0.58)
        doc = on.save_graph(g)
        g2 = on.load_graph(json.dumps(doc))
        assert g2.n_nodes == g.n_nodes
        assert g2.omega == g.omega
        assert g2.couplings == g.couplings
        assert g2.probe == g.probe

    def test_asymmetric_document_rejected(self):
        doc = {"nodes": 3, "omega0": 0.25, "edges": [[1, 2, 0.1], [2, 1, 0.2]]}
        with pytest.raises(GraphError, match="asymmetric"):
            on.load_graph(doc)

    def test_negative_weight_rejected(self):
        doc = {"nodes": 2, "omega0": 0.25, "edges": [[1, 2, -0.1]]}
        with pytest.raises(GraphError):
            on.load_graph(doc)

    def test_missing_probe_leaves_probe_unset(self):
        doc = {"nodes": 2, "omega0": 0.25, "edges": [[1, 2, 0.1]]}
        g = on.load_graph(doc)
        assert g.probe is None
        with pytest.raises(ValueError):
            on.assemble_model(g)
        g2 = g.with_probe(1, 0.01, 0.3)
        on.assemble_model(g2)  # usable once attached

    def test_recipe_block_round_trip(self):
        g = on.build_watts_strogatz(20, 4, 0.1, 0.08, 0.25, seed=5)
        doc = on.save_graph(g)
        assert doc["recipe"]["kind"] == "watts-strogatz"
        assert doc["recipe"]["seed"] == 5
        g2 = on.load_graph(doc)
        assert g2.recipe["kind"] == "watts-strogatz"
        # regenerating from the recipe reproduces the same topology
        g3 = on.from_recipe(doc["recipe"])
        assert g3.couplings == g.couplings

    def test_bundled_instances_match_their_recipes(self):
        # drift detection: the shipped network-4/5 documents must be exactly
        # what their recorded recipes regenerate on this numpy
        from conftest import bundled_graph

        for name in ("network4.json", "network5.json"):
            frozen = bundled_graph(name)
            regenerated = on.from_recipe(frozen.recipe)
            assert regenerated.couplings == frozen.couplings, (
                f"{name}: generator output drifted from the frozen instance "
                "(RNG stream change?)"
            )


@given(
    n=st.integers(2, 12),
    pat=st.lists(st.floats(0.01, 0.3), min_size=1, max_size=4),
    w0=st.floats(0.1, 2.0),
)
@settings(max_examples=40, deadline=None)
def test_chain_invariants_hold(n, pat, w0):
    g = on.build_linear_chain(n, pat, w0)
    assert g.n_edges == n - 1
    assert all(v > 0 for v in g.couplings.values())
    assert all(i < j for (i, j) in g.couplings)
    assert g.is_connected()


@given(seed=st.integers(0, 10_000), p=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_ws_invariants_hold(seed, p):
    g = on.build_watts_strogatz(24, 4, p, 0.05, 0.3, seed)
    assert g.n_edges == 48
    assert all(v == 0.05 for v in g.couplings.values())
    assert g.is_connected()


BAD_NUMBERS = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("x", BAD_NUMBERS)
@pytest.mark.parametrize(
    "make",
    [
        lambda x: on.CouplingGraph(2, (0.25, x), {(0, 1): 0.1}),
        lambda x: on.CouplingGraph(2, (0.25, 0.25), {(0, 1): x}),
        lambda x: on.build_linear_chain(4, [0.1], 0.25).with_probe(1, x, 0.5),
        lambda x: on.build_linear_chain(4, [0.1], 0.25).with_probe(1, 0.01, x),
        lambda x: on.build_linear_chain(4, [0.1], x),
        lambda x: on.build_linear_chain(4, [0.1, x], 0.25),
        lambda x: on.build_watts_strogatz(10, 4, 0.1, x, 0.25, 1),
        lambda x: on.build_barabasi_albert(10, 2, 2, x, 0.25, 1),
    ],
    ids=["omega", "g", "k", "omega_s", "omega0", "chain-pattern", "ws-g", "ba-g"],
)
def test_non_finite_value_rejected(make, x):
    with pytest.raises(GraphError):
        make(x)


LINEAR = {"kind": "linear-periodic", "n": 16, "pattern": [0.1, 0.05], "omega0": 0.25}


@pytest.mark.parametrize(
    "recipe, message",
    [
        ({**LINEAR, "kind": "ring"}, "unknown recipe kind"),
        ({**LINEAR, "kind": ["linear-periodic"]}, "unknown recipe kind"),
        ({**LINEAR, "size": 3}, "unknown field(s): size"),
        ({k: v for k, v in LINEAR.items() if k != "omega0"}, "missing field 'omega0'"),
        ({**LINEAR, "n": 16.0}, "'n' must be an integer"),
        ({**LINEAR, "n": True}, "'n' must be an integer"),
        ({**LINEAR, "omega0": "0.25"}, "'omega0' must be a number"),
        ({**LINEAR, "omega0": None}, "'omega0' must be a number"),
        ({**LINEAR, "pattern": [0.1, None]}, "'pattern' must be"),
        ({"kind": "explicit", "n": 2, "edges": [[1, 2, 0.1]]}, "exactly one of"),
        ({"kind": "explicit", "n": 2, "omega0": 0.25, "edges": [[1, 2.0, 0.1]]}, "'edges' must be"),
        (
            {"kind": "watts-strogatz", "n": 20, "p": 0.1, "g": 0.08, "omega0": 0.25},
            "missing field 'seed'",
        ),
    ],
    ids=[
        "unknown-kind", "unhashable-kind", "unknown-field", "missing-field", "float-integer",
        "bool-integer", "string-number", "null", "pattern-entry", "explicit-no-omega",
        "explicit-bad-edge", "ws-no-seed",
    ],
)
def test_malformed_recipe_rejected(recipe, message):
    with pytest.raises(GraphError, match=message.replace("(", r"\(").replace(")", r"\)")):
        on.from_recipe(recipe)


def test_recipe_defaults_and_integer_numbers():
    ws = on.from_recipe({"kind": "watts-strogatz", "n": 20, "p": 0, "g": 1, "omega0": 1, "seed": 5})
    assert ws.recipe == {
        "kind": "watts-strogatz", "n": 20, "K": 4, "p": 0.0, "g": 1.0, "omega0": 1.0, "seed": 5,
    }
    ba = on.from_recipe(
        {"kind": "barabasi-albert", "n": 20, "kappa": 2, "g": 0.02, "omega0": 0.25, "seed": 3}
    )
    assert ba.recipe["m0"] == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: on.build_linear_chain(16, [0.1, 0.05], 0.25),
        lambda: on.build_watts_strogatz(20, 4, 0.1, 0.08, 0.25, seed=np.int64(5)),
        lambda: on.build_barabasi_albert(20, 2, 3, 0.02, 0.25, seed=3),
    ],
    ids=["chain", "watts-strogatz", "barabasi-albert"],
)
def test_recipe_is_the_document_that_rebuilds_the_graph(make):
    graph = make()
    assert on.from_recipe(graph.recipe).couplings == graph.couplings
    assert on.save_graph(graph)["recipe"] == graph.recipe
    assert type(graph.recipe.get("seed", 0)) is int


EXPLICIT = {"nodes": 2, "omega0": 0.25, "edges": [[1, 2, 0.1]]}
EXPLICIT_RECIPE = {"kind": "explicit", "n": 2, "omega0": 0.25, "edges": [[1, 2, 0.1]]}


@pytest.mark.parametrize(
    "make",
    [
        lambda: on.build_explicit(2, 0.25, [(1, 2, 0.1)]),
        lambda: on.from_recipe(EXPLICIT_RECIPE),
        lambda: on.load_graph(EXPLICIT),
        lambda: on.load_graph({**EXPLICIT, "recipe": EXPLICIT_RECIPE}),
    ],
    ids=["build-explicit", "explicit-recipe", "no-recipe-block", "explicit-recipe-block"],
)
def test_explicit_graph_has_no_recipe(make):
    graph = make()
    assert graph.recipe is None
    assert "recipe" not in on.save_graph(graph)


def test_recipe_is_not_shared_with_documents():
    graph = on.build_linear_chain(16, [0.1, 0.05], 0.25)
    kept = json.loads(json.dumps(graph.recipe))
    saved = on.save_graph(graph)
    loaded = on.load_graph(saved)
    saved["recipe"]["n"] = 3
    saved["recipe"]["pattern"][0] = 9.0
    assert graph.recipe == kept
    assert loaded.recipe == kept


def probed_chain():
    return on.build_linear_chain(4, [0.1, 0.05], 0.25).with_probe(1, 0.01, 0.3)


@pytest.mark.parametrize(
    "change",
    [
        lambda g: g.couplings.__setitem__((0, 1), -5.0),
        lambda g: g.couplings.update({(0, 2): 1.0}),
        lambda g: g.couplings.pop((0, 1)),
        lambda g: g.recipe.__setitem__("n", 99),
        lambda g: g.recipe.clear(),
        lambda g: g.recipe["pattern"].__setitem__(0, 9.0),
        lambda g: g.recipe["pattern"].append(1.0),
    ],
    ids=[
        "coupling-set", "coupling-update", "coupling-pop", "recipe-set", "recipe-clear",
        "pattern-set", "pattern-append",
    ],
)
def test_graph_refuses_change_in_place(change):
    graph = probed_chain()
    with pytest.raises(TypeError, match="read-only"):
        change(graph)
    assert graph == probed_chain()
    on.assemble_model(graph)  # still the checked, stable graph


def test_graph_keeps_its_own_copies_and_writes_plain_json():
    couplings = {(0, 1): 0.1, (1, 2): 0.1}
    recipe = {"kind": "linear-periodic", "n": 3, "pattern": [0.1], "omega0": 0.25}
    graph = on.CouplingGraph(3, (0.25,) * 3, couplings, recipe=recipe)
    couplings[(0, 1)] = -5.0
    recipe["pattern"][0] = 9.0
    assert graph.couplings == {(0, 1): 0.1, (1, 2): 0.1}
    assert graph.recipe["pattern"] == [0.1]
    doc = on.save_graph(probed_chain())
    assert type(doc["recipe"]) is dict and type(doc["recipe"]["pattern"]) is list
    doc["recipe"]["pattern"].append(1.0)  # the document is the caller's to change
    assert json.loads(json.dumps(on.save_graph(graph)))["recipe"] == graph.recipe
    assert pickle.loads(pickle.dumps(graph)) == graph
    assert copy.deepcopy(graph) == graph


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"nodes": 2, "omega0": 0.25', "not valid JSON"),
        ({"nodes": 2, "omega0": 0.25, "colour": "red"}, r"unknown field\(s\): colour"),
        ({"omega0": 0.25}, "missing field 'nodes'"),
        ({"nodes": "2", "omega0": 0.25}, "'nodes' must be an integer"),
        ({"nodes": 2, "omega0": 0.25, "edges": [[1, 2]]}, "'edges' must be"),
        ({"nodes": 2, "omega0": 0.25, "edges": [[1, 3, 0.1]]}, "missing node"),
        ({"nodes": 2, "omega0": 0.25, "probe": {"site": 1, "k": 0.01}}, "missing field 'omega_s'"),
        ({"nodes": 2, "omega0": 0.25, "omega": [0.25, 0.3]}, "exactly one of"),
    ],
    ids=[
        "bad-json", "unknown-field", "no-nodes", "string-nodes", "short-edge", "edge-node",
        "probe-field", "two-omegas",
    ],
)
def test_malformed_document_rejected(doc, message):
    with pytest.raises(GraphError, match=message):
        on.load_graph(doc if isinstance(doc, str) else json.dumps(doc))


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"nodes": 2, "omega0": 0.25, "edges": [[1, 3, -0.1]], "probe": {"site": 1}},
            "missing node",
        ),
        (
            {"nodes": 2, "omega0": 0.25, "edges": [[1, 2, -0.1]], "probe": {"site": 3}},
            "missing field 'k'",
        ),
        (
            {
                "nodes": 2, "omega0": 0.25, "edges": [[1, 2, -0.1]],
                "probe": {"site": 3, "k": 0.01, "omega_s": 0.5},
            },
            "has weight -0.1",
        ),
    ],
    ids=["edge-before-probe-field", "probe-field-before-range", "range-checks-last"],
)
def test_document_errors_come_in_order(doc, message):
    with pytest.raises(GraphError, match=message):
        on.load_graph(doc)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[1, 2]], "'edges' must be a list of [i, j, g] edges (integer i, j; numeric g), got "
                   "entry [1, 2]"),
        (["1 2 0.1"], "'edges' must be a list of [i, j, g] edges"),
        ([[1, "2", 0.1]], "'edges' must be a list of [i, j, g] edges"),
        ([[1, 2.0, 0.1]], "'edges' must be a list of [i, j, g] edges"),
        ([[1, 2.5, 0.1], [2, 3, 0.1]], "'edges' must be a list of [i, j, g] edges"),
        ([[True, 2, 0.1]], "'edges' must be a list of [i, j, g] edges"),
        ([[1, 2, "0.1"]], "'edges' must be a list of [i, j, g] edges"),
        ([[1, 4, 0.1]], "edge (1, 4) references missing node"),
        ([[2, 2, 0.1]], "self-loop on node 2"),
        ([[1, 2, 0.1], [2, 1, 0.2]], "asymmetric weights for edge (2, 1): 0.1 vs 0.2"),
        ([[1, 4, 0.1], [1, 2]], "edge (1, 4) references missing node"),
        ([[1, 2], [1, 4, 0.1]], "got entry [1, 2]"),
    ],
    ids=[
        "short-entry", "string-entry", "string-index", "float-index", "fractional-index",
        "bool-index", "string-weight", "missing-node", "self-loop", "asymmetric",
        "first-bad-entry-wins", "first-bad-type-wins",
    ],
)
def test_documents_recipes_and_build_explicit_share_one_edge_check(edges, message):
    makers = [
        lambda: on.load_graph({"nodes": 3, "omega0": 0.25, "edges": edges}),
        lambda: on.from_recipe({"kind": "explicit", "n": 3, "omega0": 0.25, "edges": edges}),
        lambda: on.build_explicit(3, 0.25, edges),
    ]
    texts = set()
    for make in makers:
        with pytest.raises(GraphError) as info:
            make()
        texts.add(str(info.value))
    assert len(texts) == 1
    assert message in texts.pop()


def test_first_bad_number_of_a_list_wins():
    with pytest.raises(GraphError, match=r"pattern must be finite, got \[NaN, \"x\"\]$"):
        on.from_recipe({**LINEAR, "pattern": [np.nan, "x"]})
    with pytest.raises(GraphError, match=r"'pattern' must be a non-empty list of numbers"):
        on.from_recipe({**LINEAR, "pattern": ["x", np.nan]})


def test_numpy_integer_edges_build_plain_json_graphs():
    plain = on.build_explicit(3, 0.25, [(1, 2, 0.1), (2, 3, 0.5)]).with_probe(2, 0.01, 0.3)
    edges = [(np.int64(1), np.int32(2), np.float64(0.1)), [np.uint8(3), 2, 0.5]]
    graph = on.build_explicit(np.int64(3), 0.25, edges).with_probe(np.int64(2), 0.01, 0.3)
    assert graph == plain
    assert all(type(i) is int and type(j) is int for i, j in graph.couplings)
    doc = json.loads(json.dumps(on.save_graph(graph)))
    assert doc == on.save_graph(plain)
    assert on.load_graph(doc) == plain
    numpy_keys = {(np.intp(0), np.int32(1)): np.float32(0.1)}
    direct = on.CouplingGraph(np.int64(3), plain.omega, numpy_keys)
    on.assemble_model(direct.with_probe(np.int64(1), 0.01, 0.3))


@pytest.mark.parametrize(
    "n_nodes, couplings, message",
    [
        (3, {(0, 1.5): 0.1}, r"bad edge \(0, 1.5\)"),
        (3, {(0.0, 1): 0.1}, r"bad edge \(0.0, 1\)"),
        (3, {(False, 1): 0.1}, r"bad edge \(False, 1\)"),
        (3, {(0, 1): "x"}, r"edge \(1, 2\) has weight x"),
        (3, {(0, 1): True}, r"edge \(1, 2\) has weight True"),
        (3.0, {(0, 1): 0.1}, "graph needs at least one node"),
        (True, {}, "graph needs at least one node"),
    ],
    ids=[
        "fractional-index", "float-index", "bool-index", "string-weight", "bool-weight",
        "float-n_nodes", "bool-n_nodes",
    ],
)
def test_graph_refuses_couplings_it_cannot_build(n_nodes, couplings, message):
    with pytest.raises(GraphError, match=message):
        on.CouplingGraph(n_nodes, (0.25,) * int(n_nodes), couplings)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[1, 2, 0.1], [2, 3, np.nan]], "edge (2, 3) has weight nan"),
        ([[1, 2, 0.1], [3, 2, -0.5]], "edge (2, 3) has weight -0.5"),
    ],
    ids=["nan", "reversed-negative"],
)
def test_a_bad_weight_is_reported_under_its_own_nodes(edges, message):
    makers = [
        lambda: on.load_graph({"nodes": 3, "omega0": 0.25, "edges": edges}),
        lambda: on.from_recipe({"kind": "explicit", "n": 3, "omega0": 0.25, "edges": edges}),
        lambda: on.build_explicit(3, 0.25, [tuple(e) for e in edges]),
    ]
    for make in makers:
        with pytest.raises(GraphError) as info:
            make()
        assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: on.build_explicit(3.0, 0.25, [(1, 2, 0.1)]), "graph needs at least one node"),
        (lambda: on.build_explicit(np.float64(3), 0.25, []), "graph needs at least one node"),
        (lambda: on.build_linear_chain(4.0, [0.1], 0.25), "chain needs an integer n >= 2"),
        (lambda: on.build_watts_strogatz(10.0, 4, 0.1, 0.05, 0.25, 1), "need integers 0 < K < n"),
        (lambda: on.build_watts_strogatz(10, 4.0, 0.1, 0.05, 0.25, 1), "need integers 0 < K < n"),
        (
            lambda: on.build_barabasi_albert(10.0, 2, 2, 0.02, 0.25, 1),
            "need integers 1 <= kappa <= m0 < n",
        ),
        (
            lambda: on.build_barabasi_albert(10, 2.0, 2, 0.02, 0.25, 1),
            "need integers 1 <= kappa <= m0 < n",
        ),
        (
            lambda: on.build_barabasi_albert(10, 2, 2.0, 0.02, 0.25, 1),
            "need integers 1 <= kappa <= m0 < n",
        ),
    ],
    ids=[
        "explicit-n", "explicit-numpy-n", "chain-n", "ws-n", "ws-K", "ba-n", "ba-kappa", "ba-m0",
    ],
)
def test_a_non_integer_size_is_a_graph_error(build, message):
    with pytest.raises(GraphError, match=message):
        build()


TABLES = {
    "run-config": SCHEMA,
    "document": _DOCUMENT_FIELDS,
    "document-probe": _PROBE_FIELDS,
    **{f"{kind}-recipe": fields for kind, (_, fields) in _RECIPES.items()},
}


@pytest.mark.parametrize("table", TABLES.values(), ids=TABLES.keys())
def test_every_dotted_key_comes_after_its_block(table):
    # _fields checks a key in the one walk only where it met its block before
    seen = set()
    for path in table:
        parent = path.rpartition(".")[0]
        assert not parent or parent in seen and "object" in table[parent].types, path
        seen.add(path)


def test_fields_reads_a_dotted_table():
    table = {
        "a": _Field("number", 1),
        "b": _Field("object", None),
        "b.x": _Field("integer"),
        "c": _Field("object", {}),  # no listed keys: not checked inside
    }
    fields = _fields({"a": 2, "c": {"any": "thing"}}, table, "t")
    assert fields == {"a": 2.0, "b": None, "c": {"any": "thing"}}
    assert type(fields["a"]) is float
    with pytest.raises(GraphError, match=r"^t is missing field 'b.x'$"):
        _fields({"b": {}}, table, "t")
    with pytest.raises(GraphError, match=r"^t: 'b' must be a JSON object, got 3$"):
        _fields({"b": 3}, table, "t")
    with pytest.raises(GraphError, match=r"^t: 'b.x' must be an integer, got 1.5$"):
        _fields({"b": {"x": 1.5}}, table, "t")
    # every unknown key, block by block, before a malformed or missing one
    with pytest.raises(GraphError, match=r"^t has unknown field\(s\): y, z, b.w$"):
        _fields({"a": "x", "b": {"w": 1}, "z": 0, "y": 0}, table, "t")


def test_load_graph_constructs_the_graph_once(monkeypatch):
    checked = []
    post_init = on.CouplingGraph.__post_init__

    def counting_post_init(graph):
        checked.append(graph)
        post_init(graph)

    monkeypatch.setattr(on.CouplingGraph, "__post_init__", counting_post_init)
    graph = on.load_graph(bundled_config_path("network4.json").read_text())
    assert checked == [graph]
    assert graph.probe is not None and graph.recipe["kind"] == "watts-strogatz"


def test_probed_copy_shares_the_checked_edges(monkeypatch):
    graph = on.build_linear_chain(4, [0.1, 0.05], 0.25)
    built = on.CouplingGraph(4, graph.omega, graph.couplings, on.ProbeSpec(1, 0.01, 0.3),
                             graph.recipe)
    checked = []
    monkeypatch.setattr(on.CouplingGraph, "__post_init__", lambda g: checked.append(g))
    probed = graph.with_probe(2, 0.01, 0.3)
    again = probed.with_probe(3, 0.02, 0.4)
    assert checked == []  # no copy is built anew
    for copy_ in (probed, again):
        assert copy_.couplings is graph.couplings and copy_.recipe is graph.recipe
    assert graph.probe is None and probed.probe == on.ProbeSpec(1, 0.01, 0.3)
    assert again.probe == on.ProbeSpec(2, 0.02, 0.4)
    with pytest.raises(TypeError, match="read-only"):
        probed.couplings[(0, 1)] = -5.0
    with pytest.raises(TypeError, match="read-only"):
        again.recipe["pattern"].append(1.0)
    assert probed == built  # the graph a full construction checks


BAD_PROBES = [
    ((0, 0.01, 0.3), "probe site -1 out of range"),
    ((5, 0.01, 0.3), "probe site 4 out of range"),
    ((1, -0.01, 0.3), "probe coupling k must be finite and >= 0"),
    ((1, np.nan, 0.3), "probe coupling k must be finite and >= 0"),
    ((1, 0.01, 0.0), "probe frequency must be finite and > 0"),
    ((1, 0.01, -0.3), "probe frequency must be finite and > 0"),
    ((1, 0.01, np.inf), "probe frequency must be finite and > 0"),
    ((1, 0.01, np.nan), "probe frequency must be finite and > 0"),
    ((1.5, 0.01, 0.3), "probe site 0.5 out of range"),
]
BAD_PROBE_IDS = [
    "site-0", "site-past-end", "negative-k", "nan-k", "zero-omega_s", "negative-omega_s",
    "inf-omega_s", "nan-omega_s", "fractional-site",
]


@pytest.mark.parametrize("probe, message", BAD_PROBES, ids=BAD_PROBE_IDS)
def test_with_probe_rejects_a_bad_probe(probe, message):
    graph = on.build_linear_chain(4, [0.1, 0.05], 0.25)
    with pytest.raises(GraphError, match=f"^{message}$"):
        graph.with_probe(*probe)
    # the constructor keeps the same check and message
    site, k, omega_s = probe
    with pytest.raises(GraphError, match=f"^{message}$"):
        on.CouplingGraph(4, graph.omega, graph.couplings, on.ProbeSpec(site - 1, k, omega_s))


def test_probe_site_must_be_an_integer_not_bool():
    graph = on.build_linear_chain(3, [0.1], 0.25)
    with pytest.raises(GraphError, match="^probe site True out of range$"):
        graph.with_probe(True, 0.01, 0.3)
    with pytest.raises(GraphError, match="^probe site False out of range$"):
        on.CouplingGraph(3, graph.omega, graph.couplings, on.ProbeSpec(False, 0.01, 0.3))
    assert graph.with_probe(np.int64(2), 0.01, 0.3).probe.site == 1


@pytest.mark.parametrize("omega_s", [0.0, -0.3, np.inf, np.nan])
def test_model_at_rejects_a_bad_probe_frequency(omega_s):
    graph = probed_chain()
    with pytest.raises(GraphError, match="^probe frequency must be finite and > 0$"):
        on.model_at(graph, omega_s)


@pytest.mark.parametrize("name", ["network4.json", "network5.json"])
def test_bundled_documents_round_trip(name):
    doc = json.loads(bundled_config_path(name).read_text())
    assert on.save_graph(on.load_graph(doc)) == doc


def test_document_recipe_block_is_checked_as_a_recipe():
    doc = on.save_graph(on.build_watts_strogatz(20, 4, 0.1, 0.08, 0.25, seed=5))
    doc["recipe"]["seed"] = "five"
    with pytest.raises(GraphError, match="'seed' must be an integer"):
        on.load_graph(doc)
