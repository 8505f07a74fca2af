import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oscnet as on
from oscnet import dynamics
from oscnet.cli import bundled_config_path
from oscnet.dynamics import (
    StabilityError,
    _check_commutator,
    assemble_model,
    evolve,
    probe_rows,
)
from oscnet.symplectic import (
    SymplecticError,
    probe_mask,
    symplectic_form,
    symplectic_residual,
)

from conftest import PAPER_STATES, random_stable_graph
from oracles import (
    bloch_messiah_svd,
    compose_preparation,
    evolve_product,
    potential_per_edge,
    preparation_matrix,
    probe_rows_eigh,
    quadratic_energy,
    renormalization_scaling,
    rows_mp,
)


@st.composite
def stable_graphs(draw):
    """A probed network with edges in drawn order, revisiting nodes, down to
    one node without edges; stable by construction: V_E >= min(omega)^2 I,
    so k < omega_S min(omega) keeps the probe's Schur complement positive."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    weight = st.floats(1e-3, 2.0)
    omega = tuple(draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n)))
    couplings = {edge: draw(weight) for edge in edges}
    omega_s = draw(st.floats(0.05, 2.0))
    k = draw(st.floats(0.0, 0.99)) * omega_s * min(omega)
    probe = on.ProbeSpec(draw(st.integers(0, n - 1)), k, omega_s)
    return on.CouplingGraph(n, omega, couplings, probe)


def row_atol(model, ts):
    """Largest |difference| allowed between the angle-addition and the
    direct rows of a time grid: 4 eps (1 + Omega_max t_max), the phase
    round-off of the longest time. Measured: at most 0.66 of
    eps (1 + Omega_max t_max) on nets 1-5 at t = 500, 1.7 over 1000 random
    networks of up to 31 modes and t up to 600."""
    return 4 * np.finfo(float).eps * (1 + model.freqs_normal.max() * np.max(ts))


def bundled_sweep(idx):
    """t_max and the probe-frequency sweep of the bundled network<idx>.cfg."""
    cfg = json.loads(bundled_config_path(f"network{idx}.cfg").read_text())
    sweep = cfg["probe"]["sweep"]
    return cfg["t_max"], np.linspace(sweep["start"], sweep["stop"], sweep["points"])


def rescaled(graph, s):
    """The network with every frequency scaled by s and every coupling by s^2."""
    return dataclasses.replace(
        graph,
        omega=tuple(s * w for w in graph.omega),
        couplings={edge: s * s * g for edge, g in graph.couplings.items()},
        probe=dataclasses.replace(
            graph.probe, k=s * s * graph.probe.k, omega_s=s * graph.probe.omega_s
        ),
        recipe=None,
    )


def commutator_residual(rows):
    """|q_row . Omega . p_row^T - 1| for each row pair of a (..., 2, 2M) stack."""
    m = rows.shape[-1] // 2
    q, p = rows[..., 0, :], rows[..., 1, :]
    return np.abs((q[..., :m] * p[..., m:]).sum(-1) - (q[..., m:] * p[..., :m]).sum(-1) - 1.0)


def single_oscillator(omega_s=0.25, k=0.0, omega0=0.25):
    return on.build_explicit(1, omega0, []).with_probe(1, k, omega_s)


class TestAssemble:
    def test_two_by_two_by_hand(self):
        g = on.build_explicit(1, 0.25, []).with_probe(1, 0.01, 0.3)
        m = assemble_model(g)
        assert np.allclose(m.V, [[0.09, 0.01], [0.01, 0.0625]])
        assert np.all(np.linalg.eigvalsh(m.V) > 0)

    def test_interior_node_diagonal(self):
        g = on.build_linear_chain(16, [0.1, 0.05], 0.25).with_probe(8, 0.01, 0.58)
        m = assemble_model(g)
        # environment node 2 (0-based 1) couples with 0.1 and 0.05
        assert np.isclose(m.V[2, 2], 0.25**2 + 0.15)

    @settings(max_examples=200, deadline=None)
    @given(graph=stable_graphs())
    def test_potential_matches_the_per_edge_sum(self, graph):
        # each V_ii sums its edges in edge order, as the per-edge loop does
        assert np.array_equal(assemble_model(graph).V, potential_per_edge(graph))

    @pytest.mark.parametrize("idx", [1, 2, 3, 4, 5])
    def test_bundled_potential_matches_the_per_edge_sum(self, networks, idx):
        assert np.array_equal(assemble_model(networks[idx]).V, potential_per_edge(networks[idx]))

    def test_one_node_without_edges(self):
        g = on.build_explicit(1, 0.25, []).with_probe(1, 0.01, 0.3)
        assert np.array_equal(assemble_model(g).V, [[0.3**2, 0.01], [0.01, 0.25**2]])

    def test_schur_instability_detected(self):
        # single env node at omega0: stability needs omega_s^2 > k^2 / omega0^2
        g_bad = on.build_explicit(1, 0.25, []).with_probe(1, 0.026, 0.1)
        with pytest.raises(StabilityError, match="unstable"):
            assemble_model(g_bad)
        g_ok = on.build_explicit(1, 0.25, []).with_probe(1, 0.024, 0.1)
        assemble_model(g_ok)

    def test_a_decomposition_without_a_positive_spectrum_raises(self):
        # assemble_model's Cholesky check keeps such a V out, but eigh can still
        # round the lowest eigenvalue of a V that passed it to 0: either way no
        # frequency is the square root of a non-positive eigenvalue
        m = on.QuadraticModel(V=np.diag([1.0, -1.0]), frequencies=np.ones(2))
        with pytest.raises(StabilityError, match="environment block has eigenvalue -1 <= 0"):
            m.env_freqs

    def test_decompositions_are_eigh_of_v_and_its_environment_block(self, net1):
        m = assemble_model(net1)
        evals, vecs = np.linalg.eigh(m.V)
        env_evals, env_vecs = np.linalg.eigh(m.V[1:, 1:])
        assert np.array_equal(m.modes, vecs)
        assert np.array_equal(m.freqs_normal, np.sqrt(evals))
        assert np.array_equal(m.env_modes, env_vecs)
        assert np.array_equal(m.env_freqs, np.sqrt(env_evals))

    @pytest.mark.parametrize(
        "graph",
        [
            # V has a negative eigenvalue, its environment block [[0.0625]] none
            on.build_explicit(1, 0.25, []).with_probe(1, 0.026, 0.1),
            # omega^2 underflows: the environment block [[0]] is singular,
            # and V, checked first, with it
            on.build_explicit(1, 1e-200, []).with_probe(1, 0.0, 0.5),
        ],
        ids=["potential", "environment"],
    )
    def test_unstable_model_names_the_lowest_eigenvalue(self, graph):
        probe = graph.probe
        V = np.array([[probe.omega_s**2, probe.k], [probe.k, graph.omega[0] ** 2]])
        lowest = np.linalg.eigvalsh(V)[0]
        assert lowest <= 0
        message = f"unstable network: potential matrix has eigenvalue {lowest:.6g} <= 0"
        with pytest.raises(StabilityError, match=re.escape(message)):
            assemble_model(graph)

    def test_spectral_sweep_never_decomposes_v(self, net1, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            shapes.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        ws = np.linspace(0.3, 0.7, 9)
        for method in ("analytic", "probe", "both"):
            shapes.clear()
            model = assemble_model(net1)
            if method != "probe":
                on.spectral_density_analytic(model, ws, 150.0)
            if method != "analytic":
                on.sweep_spectral_density(model, ws, 150.0)
            assert shapes == [(16, 16)], method  # the environment block, once
        shapes.clear()
        on.qnm_trace(assemble_model(net1), *PAPER_STATES, np.linspace(0.0, 50.0, 11))
        assert shapes == [(17, 17)]  # V, once


class TestEvolveBare:
    """Propagator basics, checked on ``evolve``. The physical frame, where a
    test needs it, is read off by undoing the entry scaling T_i / T_j; the
    identity is the same in both frames."""

    def test_time_zero_is_identity(self, net1_model):
        assert np.allclose(evolve(net1_model, 0.0), np.eye(34))

    def test_full_period_single_oscillator(self):
        # probe and node share omega and are uncoupled: one full period
        m = assemble_model(single_oscillator(0.25))
        S = evolve(m, 2 * np.pi / 0.25)
        assert np.linalg.norm(S - np.eye(4)) < 1e-10

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            g = random_stable_graph(rng)
            m = assemble_model(g)
            n = m.n_modes
            G = np.zeros((2 * n, 2 * n))
            G[:n, n:] = np.eye(n)
            G[n:, :n] = -m.V
            S_ref = expm(G * 37.0)
            T = renormalization_scaling(m)
            assert np.linalg.norm(evolve(m, 37.0) * np.outer(1.0 / T, T) - S_ref) < 1e-8

    def test_negative_time_rejected(self, net1_model):
        with pytest.raises(ValueError):
            evolve(net1_model, -1.0)

    def test_group_property(self, net1_model):
        s1 = evolve(net1_model, 13.0)
        s2 = evolve(net1_model, 29.0)
        s12 = evolve(net1_model, 42.0)
        assert np.linalg.norm(s1 @ s2 - s12) < 1e-9


class TestRenormalize:
    def test_free_oscillator_is_rotation(self):
        m = assemble_model(single_oscillator(0.4, k=0.0, omega0=0.3))
        t = 1.7
        S = evolve(m, t)
        th = 0.4 * t
        # probe block (indices 0 and 2 in q_S, q_1, p_S, p_1) rotates by omega*t
        block = S[np.ix_([0, 2], [0, 2])]
        assert np.allclose(
            block, [[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]], atol=1e-12
        )
        # and the off-diagonal probe-node blocks vanish
        assert np.allclose(S[np.ix_([0, 2], [1, 3])], 0.0, atol=1e-14)

    def test_preserves_symplecticity(self, net1_model):
        for t in (0.0, 17.0, 150.0):
            res = symplectic_residual(evolve(net1_model, t))
            assert res < 1e-10, res

    def test_decoupled_model_keeps_vacuum(self):
        # no probe coupling, no internal edges: vacuum invariant under S-tilde
        g = on.build_explicit(3, [0.25, 0.4, 0.7], []).with_probe(1, 0.0, 0.33)
        m = assemble_model(g)
        S = evolve(m, 57.0)
        assert np.linalg.norm(S @ (0.5 * np.eye(8)) @ S.T - 0.5 * np.eye(8)) < 1e-10


class TestEvolveStructure:
    """H is time-reversal symmetric, so S = [[A, B], [-Z, A^T]] with B and Z
    symmetric; ``evolve`` keeps that structure to the bit."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 300.0))
    def test_time_reversal_structure_is_exact(self, seed, t):
        S = evolve(assemble_model(random_stable_graph(np.random.default_rng(seed))), t)
        n = S.shape[0] // 2
        assert np.array_equal(S[n:, n:], S[:n, :n].T)
        assert np.array_equal(S[:n, n:], S[:n, n:].T)
        assert np.array_equal(S[n:, :n], S[n:, :n].T)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 300.0))
    def test_matches_product_oracle(self, seed, t):
        model = assemble_model(random_stable_graph(np.random.default_rng(seed)))
        S = evolve(model, t)
        ref = evolve_product(model, t)
        assert np.abs(S - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("seed", range(6))
    def test_every_row_matches_40_digits(self, seed):
        # all 2M rows against mpmath at 40 digits, in units of
        # eps (1 + Omega_max t) max|S|: the eigenfrequencies' round-off grows
        # with t. The largest measured on seeds 0-3999 is 8.2 units (at
        # t = 0.5; 2.5-4.1 at the later times); the bound is 4.9x that
        ts = (0.5, 7.3, 61.0, 233.0, 500.0)
        m = assemble_model(random_stable_graph(np.random.default_rng(seed), max_nodes=7))
        omega_max = np.sqrt(np.linalg.eigvalsh(m.V).max())
        for t, ref in zip(ts, rows_mp(m, ts, range(m.n_modes))):
            unit = np.spacing(1.0) * (1.0 + omega_max * t) * np.abs(ref).max()
            assert np.abs(evolve(m, t) - ref).max() <= 40.0 * unit

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 300.0))
    def test_energy_conservation_in_renormalized_frame(self, seed, t):
        rng = np.random.default_rng(seed)
        model = assemble_model(random_stable_graph(rng))
        dim = 2 * model.n_modes
        mean = rng.normal(size=dim)
        A = rng.normal(size=(dim, dim)) * 0.1
        cov = 0.5 * np.eye(dim) + A @ A.T
        S = evolve(model, t)
        e0 = quadratic_energy(model, mean, cov)
        e = quadratic_energy(model, S @ mean, S @ cov @ S.T)
        assert abs(e - e0) <= 1e-12 * e0


class TestProbeRows:
    def test_matches_evolve_over_time_grid(self, networks):
        m = assemble_model(networks[4])
        ts = np.array([0.0, 3.7, 90.0, 500.0])
        n = m.n_modes
        ref = np.array([evolve(m, t)[[0, n]] for t in ts])
        assert np.allclose(probe_rows(m, ts), ref, rtol=0.0, atol=1e-13)
        assert np.allclose(probe_rows(m, 90.0), ref[2], rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("idx", [1, 2, 3, 4, 5])
    def test_matches_evolve_over_probe_frequencies(self, networks, idx):
        graph = networks[idx]
        t_max, ws = bundled_sweep(idx)
        m = assemble_model(graph)
        n = m.n_modes
        ref = np.array([evolve(on.model_at(graph, w), t_max)[[0, n]] for w in ws])
        rows = probe_rows(m, t_max, omega_s=ws)
        assert np.allclose(rows, ref, rtol=0.0, atol=1e-13)
        assert commutator_residual(rows).max() <= 1e-13

    @pytest.mark.parametrize("idx", [1, 2, 3, 4, 5])
    def test_grid_rows_do_not_depend_on_the_models_probe_frequency(self, networks, idx):
        graph = networks[idx]
        t_max, ws = bundled_sweep(idx)
        low = probe_rows(on.model_at(graph, ws[0]), t_max, omega_s=ws)
        high = probe_rows(on.model_at(graph, ws[-1]), t_max, omega_s=ws)
        assert np.array_equal(low, high)

    @pytest.mark.parametrize("idx", [1, 4, 5])
    def test_empty_one_point_and_time_zero_grids(self, networks, idx):
        m = assemble_model(networks[idx])
        t_max, ws = bundled_sweep(idx)
        assert probe_rows(m, t_max, omega_s=[]).shape == (0, 2, 2 * m.n_modes)
        one = probe_rows(m, t_max, omega_s=ws[:1])
        assert one.shape == (1, 2, 2 * m.n_modes)
        assert np.allclose(one, probe_rows_eigh(m, t_max, ws[:1]), rtol=0.0, atol=1e-13)
        # S(0) = I: the rows are the unit vectors of q_S and p_S
        eye = np.eye(2 * m.n_modes)[[0, m.n_modes]]
        assert np.allclose(probe_rows(m, 0.0, omega_s=ws), eye, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("idx", [1, 4, 5])
    def test_matches_eigh_oracle_at_auto_tmax_horizon(self, networks, idx):
        # t = 600 is the far end of the t_max search; the rows' round-off
        # grows with t on both paths
        m = assemble_model(networks[idx])
        _, ws = bundled_sweep(idx)
        rows = probe_rows(m, 600.0, omega_s=ws)
        assert np.allclose(rows, probe_rows_eigh(m, 600.0, ws), rtol=0.0, atol=1e-12)
        assert commutator_residual(rows).max() <= 1e-12

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        t=st.floats(0.0, 300.0),
        ws=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=8),
    )
    def test_matches_eigh_oracle_on_random_networks(self, seed, t, ws):
        m = assemble_model(random_stable_graph(np.random.default_rng(seed)))
        ws = np.array(ws)
        ws = ws[ws**2 > np.sum((m.bath_couplings() / m.env_freqs) ** 2) + 1e-3]
        assume(ws.size)
        rows = probe_rows(m, t, omega_s=ws)
        assert np.allclose(rows, probe_rows_eigh(m, t, ws), rtol=0.0, atol=1e-12)
        assert commutator_residual(rows).max() <= 1e-12

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.5, 2.0),
        t=st.floats(0.0, 300.0),
        ws=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=8),
    )
    def test_time_rescaling_on_random_networks(self, seed, scale, t, ws):
        # omega -> s omega and g, k -> s^2 g, s^2 k make V -> s^2 V, so the
        # renormalized S(t) of the scaled network is S(s t) of the original
        graph = random_stable_graph(np.random.default_rng(seed))
        m, ms = assemble_model(graph), assemble_model(rescaled(graph, scale))
        ts = np.linspace(0.0, t, 11)
        ref = probe_rows(m, ts)
        assert np.allclose(probe_rows(ms, ts / scale), ref, rtol=0.0, atol=1e-12)
        ws = np.array(ws)
        ws = ws[ws**2 > np.sum((m.bath_couplings() / m.env_freqs) ** 2) + 1e-3]
        assume(ws.size)
        ref = probe_rows(m, t, omega_s=ws)
        got = probe_rows(ms, t / scale, omega_s=scale * ws)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12 * max(1.0, np.abs(ref).max()))

    def test_frequency_grid_takes_one_bounded_time(self, net1_model):
        with pytest.raises(ValueError, match="single time"):
            probe_rows(net1_model, np.array([1.0, 2.0]), omega_s=[0.5, 0.6])
        # refused before any array of the expansion's length is made
        with pytest.raises(ValueError, match="Chebyshev expansion"):
            probe_rows(net1_model, 1e9, omega_s=[0.5])

    def test_unstable_probe_frequency_named(self, net1_model):
        with pytest.raises(StabilityError, match="omega_s=0.01"):
            probe_rows(net1_model, 10.0, omega_s=[0.3, 0.01])

    def test_negative_time_rejected(self, net1_model):
        with pytest.raises(ValueError):
            probe_rows(net1_model, np.array([1.0, -1.0]))

    def test_commutator_residual_on_time_grid(self, networks):
        for graph in networks.values():
            rows = probe_rows(assemble_model(graph), np.linspace(0.0, 500.0, 251))
            assert commutator_residual(rows).max() <= 1e-13

    # every uniform grid of two or more times takes the angle-addition path:
    # 2 is the smallest, 31-95 span T M = 1600 at 51 modes (nets 4, 5) and at
    # 17 (nets 1-3), 80-82 and 255-257 are the block edges b^2 - 1, b^2,
    # b^2 + 1, 251 the bundled qnm grid
    @pytest.mark.parametrize("idx", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "n, start", [(2, 0.0), (31, 0.0), (32, 0.0), (63, 0.0), (64, 0.0), (65, 0.0), (80, 0.0),
                     (81, 0.0), (82, 0.0), (94, 0.0), (95, 0.0), (251, 0.0), (251, 37.5),
                     (255, 0.0), (256, 0.0), (257, 0.0)]
    )
    def test_uniform_grid_matches_direct_rows(self, networks, monkeypatch, idx, n, start):
        m = assemble_model(networks[idx])
        ts = np.linspace(start, start + 500.0, n)
        calls = []
        angle_rows = dynamics._angle_rows
        monkeypatch.setattr(
            dynamics, "_angle_rows", lambda *a: calls.append(a) or angle_rows(*a)
        )
        rows = probe_rows(m, ts)
        assert len(calls) == 1
        direct = np.array([probe_rows(m, t) for t in ts])  # one time: the direct path
        assert np.allclose(rows, direct, rtol=0.0, atol=row_atol(m, ts))
        assert commutator_residual(rows).max() <= 1e-13

    @pytest.mark.parametrize("ulps, angle", [(1, True), (4, True), (16, False), (1e6, False)])
    def test_grid_off_uniform_takes_the_direct_path(self, networks, monkeypatch, ulps, angle):
        m = assemble_model(networks[5])
        ts = np.linspace(0.0, 500.0, 251)
        ts[100] += ulps * np.spacing(500.0)
        calls = []
        angle_rows = dynamics._angle_rows
        monkeypatch.setattr(
            dynamics, "_angle_rows", lambda *a: calls.append(a) or angle_rows(*a)
        )
        rows = probe_rows(m, ts)
        assert len(calls) == angle
        # a (T, 1) grid always takes the direct path, with the same arithmetic
        # as a 1-D one did before the angle-addition path existed
        direct = probe_rows(m, ts[:, None])[:, 0]
        if angle:
            assert np.allclose(rows, direct, rtol=0.0, atol=row_atol(m, ts))
        else:
            assert np.array_equal(rows, direct)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        start=st.floats(0.0, 100.0),
        span=st.floats(1.0, 500.0),
        n=st.integers(64, 300),
    )
    def test_uniform_grid_matches_direct_rows_on_random_networks(self, seed, start, span, n):
        m = assemble_model(random_stable_graph(np.random.default_rng(seed), max_nodes=30))
        ts = np.linspace(start, start + span, n)
        direct = probe_rows(m, ts[:, None])[:, 0]
        rows = probe_rows(m, ts)
        assert np.allclose(rows, direct, rtol=0.0, atol=row_atol(m, ts))

    @pytest.mark.parametrize("seed", range(6))
    def test_both_time_grid_paths_match_40_digit_rows(self, seed):
        # float64 error of either path against mpmath at 40 digits; the
        # largest measured on seeds 0-19 is 1.2e-13 (angle) and 1.1e-13
        # (direct): both inherit the eigenfrequencies' round-off times t
        m = assemble_model(random_stable_graph(np.random.default_rng(seed), max_nodes=7))
        ts = np.linspace(3.5, 500.0, 64)
        ref = rows_mp(m, ts)
        assert np.abs(probe_rows(m, ts[:, None])[:, 0] - ref).max() <= 2.5e-13
        assert np.abs(probe_rows(m, ts) - ref).max() <= 2.5e-13

    @pytest.mark.parametrize("seed", range(12))
    def test_probe_frequency_grid_rows_match_40_digit_rows(self, seed):
        # the Chebyshev rows of a 4-point grid against each grid point's own
        # model at 40 digits, t up to the bundled t_max 250: the largest error
        # on seeds 0-299 is 0.90 eps (1 + Omega_max t) max|row| (4.9e-14)
        rng = np.random.default_rng(seed)
        graph = random_stable_graph(rng, max_nodes=7)
        grid, t = np.sort(rng.uniform(0.3, 1.2, 4)), float(rng.uniform(0.0, 250.0))
        rows = probe_rows(assemble_model(graph), t, omega_s=grid)
        for w, got in zip(grid, rows):
            m = on.model_at(graph, w)
            ref = rows_mp(m, [t])[0]
            unit = np.spacing(1.0) * (1.0 + m.freqs_normal.max() * t) * np.abs(ref).max()
            assert np.abs(got - ref).max() <= 2.0 * unit

    def test_commutator_check_rejects_corrupted_rows(self, net1_model):
        rows = probe_rows(net1_model, np.array([0.0, 90.0]))
        _check_commutator(rows * (1 + 1e-11))  # inside the tolerance
        bad = rows.copy()
        bad[1, 0] *= 1 + 1e-9  # q row of one pair: q . Omega . p = 1 + 1e-9
        with pytest.raises(SymplecticError, match="q_row . Omega . p_row"):
            _check_commutator(bad)
        bad[1, 0] = np.nan
        with pytest.raises(SymplecticError):
            _check_commutator(bad)

    def test_broken_row_scaling_raises(self, net1_model, monkeypatch):
        renormalized = dynamics._renormalized

        def q_rows_scaled_twice(blocks, rt_row, rt):
            rows = renormalized(blocks, rt_row, rt)
            rows[0] *= rt_row  # q_i . Omega . p_i^T = T_i, not 1
            return rows

        monkeypatch.setattr(dynamics, "_renormalized", q_rows_scaled_twice)
        with pytest.raises(SymplecticError, match="q_row . Omega . p_row"):
            evolve(net1_model, 90.0)
        with pytest.raises(SymplecticError, match="q_row . Omega . p_row"):
            probe_rows(net1_model, np.array([0.0, 90.0]))


class TestPreparation:
    def test_no_squeezing_is_identity(self, net1_model):
        S = evolve(net1_model, 10.0)
        assert np.array_equal(compose_preparation(S, []), S)

    def test_probe_squeezer_at_time_zero(self):
        m = assemble_model(single_oscillator(0.3))
        r = 0.6
        S_eff = compose_preparation(evolve(m, 0.0), [(0, r, 0.0)])
        cov = S_eff @ (0.5 * np.eye(4)) @ S_eff.T
        probe = cov[np.ix_([0, 2], [0, 2])]
        assert np.allclose(np.diag(probe), [0.5 * np.exp(-2 * r), 0.5 * np.exp(2 * r)])
        assert abs(probe[0, 1]) < 1e-14

    def test_thermal_occupancy_identity(self):
        # sinh^2 r quanta per squeezed mode
        nbar_target = 2.7
        r = np.arcsinh(np.sqrt(nbar_target))
        S_in = preparation_matrix(1, [(0, r, 0.0)])
        cov = S_in @ (0.5 * np.eye(2)) @ S_in.T
        nbar = 0.5 * (cov[0, 0] + cov[1, 1] - 1.0)
        assert np.isclose(nbar, nbar_target, rtol=1e-12)

    def test_preparation_is_symplectic(self):
        S_in = preparation_matrix(3, [(0, 0.5, 0.3), (2, 1.0, np.pi / 2)])
        assert symplectic_residual(S_in) < 1e-12


class TestProbeMask:
    def test_unit_vector_at_time_zero(self, net1_model):
        pair = probe_mask(evolve(net1_model, 0.0))
        eq = np.zeros(34)
        eq[0] = 1.0
        ep = np.zeros(34)
        ep[17] = 1.0
        assert np.allclose(np.abs(pair[0]), eq)
        assert np.allclose(np.abs(pair[1]), ep)

    def test_row_pair_normalization(self, net1_model):
        pair = probe_mask(evolve(net1_model, 150.0))
        omega = symplectic_form(17)
        assert np.isclose(np.linalg.norm(pair[0]), 1.0, atol=1e-10)
        assert np.isclose(np.linalg.norm(pair[1]), 1.0, atol=1e-10)
        assert np.isclose(pair[0] @ omega @ pair[1], 1.0, atol=1e-10)

    @pytest.mark.parametrize("t", [0.0, 150.0])
    def test_rows_are_those_of_bloch_messiah_r1(self, net1_model, t):
        # probe_mask skips R2 but takes R1 through the same steps
        S = evolve(net1_model, t)
        assert np.array_equal(probe_mask(S), on.bloch_messiah(S).r1[[0, 17]])

    @pytest.mark.parametrize("idx", [1, 2, 3, 4, 5])
    def test_matches_svd_oracle_at_bundled_tmax(self, networks, idx):
        S = evolve(assemble_model(networks[idx]), bundled_sweep(idx)[0])
        n = S.shape[0] // 2
        ref = bloch_messiah_svd(S)
        assert np.allclose(probe_mask(S), ref.r1[[0, n]], rtol=0.0, atol=1e-12)
        assert np.allclose(on.bloch_messiah(S).d, ref.d, rtol=0.0, atol=1e-13)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 300.0))
    def test_rows_on_random_networks(self, seed, t):
        S = evolve(assemble_model(random_stable_graph(np.random.default_rng(seed))), t)
        n = S.shape[0] // 2
        q, p = probe_mask(S)
        assert np.allclose(np.linalg.norm([q, p], axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert abs(q @ symplectic_form(n) @ p - 1.0) <= 1e-10
        # a squeezed singular vector is resolved to about eps |S|^2 / gap,
        # the gap its eigenvalue of S S^T leaves to the others: 1e-12 for
        # well-separated d, more for near-degenerate d. The SVD oracle's
        # difference reached 28 such units over 3300 draws, and 40-digit
        # references put the excess on the oracle, not on the eigh route
        lam = np.linalg.eigvalsh(S @ S.T)
        sep = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(2 * n, np.inf))
        gap = sep[lam > 1.0 + 1e-10].min(initial=np.inf)
        atol = 1e-12 + 100 * np.finfo(float).eps * lam[-1] / gap
        assert np.allclose([q, p], bloch_messiah_svd(S).r1[[0, n]], rtol=0.0, atol=atol)

    def test_golden_regression_network1(self, net1_model, request):
        # regression-locked mask coefficients for (omega_s=0.58, t=150)
        golden = np.loadtxt(
            request.path.parent / "data" / "mask_net1_w0.58_t150.csv", delimiter=","
        )
        pair = probe_mask(evolve(net1_model, 150.0))
        got = np.column_stack([np.arange(1, 18), pair[0, :17], pair[0, 17:]])
        assert np.allclose(got, golden, atol=1e-12)


def test_symplecticity_over_networks(networks):
    for idx, graph in networks.items():
        m = on.assemble_model(graph)
        for t in (0.0, 3.0, 90.0):
            res = symplectic_residual(evolve(m, t))
            assert res < 1e-10, f"network {idx} at t={t}: residual {res}"


@pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
def test_time_that_is_not_finite_and_nonnegative_rejected(net1_model, t):
    with pytest.raises(ValueError, match="time must be"):
        evolve(net1_model, t)
    with pytest.raises(ValueError, match="time must be"):
        probe_rows(net1_model, np.array([1.0, t]))
    with pytest.raises(ValueError, match="time must be"):
        probe_rows(net1_model, t, omega_s=[0.5])
