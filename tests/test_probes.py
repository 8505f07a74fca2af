import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

import oscnet as on
from oscnet.gaussian import (
    GaussianState,
    SqueezedSpec,
    StateError,
    fidelity,
    mean_photon,
    squeezed_state,
    vacuum_state,
)
from oscnet.probes import (
    DEFAULT_SMOOTH_WINDOW,
    PlateauError,
    ProbeSaturatedError,
    SamplingOptions,
    blp_witness,
    model_at,
    moving_average,
    qnm_trace,
    spectral_density_analytic,
    suggest_tmax,
    sweep_spectral_density,
    thermal_occupancy,
)
from oscnet.probes import _damping_kernel_grid, _linear_quantile, _probe_variances
from oscnet.probes import _sample_second_moments

from oscnet.cli import _fmt, _fmt_matrix, _fmt_rows, _witness_text

from conftest import PAPER_STATES, random_stable_graph
from oracles import (
    damping_kernel,
    fejer_spectral_density,
    homodyne_sample,
    joint_vacuum,
    probe_j_mp,
    product_state,
    propagate,
    pure_fidelity_reference,
    qnm_fidelity_mp,
    qnm_trace_stacked,
    reduce_state,
    rows_mp_exact,
    squeezed_environment,
    squeezed_fidelity_mp,
    thermal_environment,
)


def single_node_probe(k=0.001, omega0=0.25, omega_s=None):
    g = on.build_explicit(1, omega0, []).with_probe(1, k, omega_s or omega0)
    return on.assemble_model(g)


def probe_j(model, t_max, temperature=1.0, **options):
    """(J, stderr) of a one-point probe-path sweep at the model's probe frequency."""
    j, stderr = sweep_spectral_density(model, [model.omega_s], t_max, temperature, **options)
    return j[0], None if stderr is None else stderr[0]


class TestDampingKernel:
    def test_single_node_is_cosine(self):
        k, w0 = 0.003, 0.25
        m = single_node_probe(k, w0)
        ts = np.linspace(0, 80, 200)
        assert np.allclose(damping_kernel(m, ts), (k**2 / w0**2) * np.cos(w0 * ts), rtol=1e-12)

    def test_gamma_zero_spectral_identity(self, networks):
        # gamma(0) = k^2 (V_E^-1)_ll = v^T V_E^-1 v, v the environment part of
        # V's probe row (k at the probe's node l, 0 elsewhere)
        for graph in networks.values():
            m = on.assemble_model(graph)
            v = m.V[0, 1:]
            expected = v @ np.linalg.solve(m.V[1:, 1:], v)
            assert np.isclose(damping_kernel(m, 0.0), expected, rtol=1e-10)

    def test_kernel_decays_then_flattens(self, net1_model):
        # amplitude comes down from gamma(0) and hovers well below it
        ts = np.linspace(0, 300, 6001)
        gam = np.abs(damping_kernel(net1_model, ts))
        g0 = damping_kernel(net1_model, 0.0)
        assert gam[0] == pytest.approx(g0)
        assert np.max(gam[ts > 150]) < 0.7 * g0


class TestSuggestTmax:
    @pytest.mark.parametrize("idx,target", [(1, 150.0), (2, 150.0), (3, 150.0)])
    def test_linear_networks(self, networks, idx, target):
        t = suggest_tmax(on.assemble_model(networks[idx]))
        assert abs(t - target) / target <= 0.3

    def test_network4(self, networks):
        t = suggest_tmax(on.assemble_model(networks[4]))
        assert abs(t - 90.0) / 90.0 <= 0.3

    def test_network5(self, networks):
        t = suggest_tmax(on.assemble_model(networks[5]))
        assert abs(t - 250.0) / 250.0 <= 0.3

    def test_pure_cosine_has_no_plateau(self):
        with pytest.raises(PlateauError):
            suggest_tmax(single_node_probe())

    def test_uncoupled_probe_rejected(self):
        g = on.build_explicit(2, 0.25, [(1, 2, 0.05)]).with_probe(1, 0.0, 0.3)
        with pytest.raises(PlateauError):
            suggest_tmax(on.assemble_model(g))

    def test_horizon_shorter_than_window_rejected(self):
        # window: two periods of the slowest mode (0.02), about 628 > 600
        g = on.build_linear_chain(16, [0.001], 0.02).with_probe(8, 0.0005, 0.05)
        with pytest.raises(PlateauError, match="shorter than the envelope window"):
            suggest_tmax(on.assemble_model(g))


def oracle_envelope(model):
    """The t_max rule's sample times and envelope, with the direct-cosine
    kernel and one max per window."""
    window = 2.0 * 2.0 * np.pi / model.env_freqs.min()
    ts = np.arange(0.0, 600.0 + 0.05, 0.05)
    gam = np.abs(damping_kernel(model, ts))
    w_n = max(int(round(window / 0.05)), 1)
    idx = np.arange(w_n, len(ts), 20)
    if len(idx) == 0:
        raise PlateauError("search horizon shorter than the envelope window")
    return ts[idx], np.array([gam[j - w_n : j + 1].max() for j in idx])


def oracle_suggest_tmax(model):
    """The t_max rule with the oracle envelope and ``np.quantile``."""
    amp = model.bath_couplings() ** 2 / model.env_freqs**2
    gamma0 = amp.sum()
    if gamma0 == 0.0:
        raise PlateauError("probe is uncoupled; damping kernel vanishes")
    t_env, env = oracle_envelope(model)
    floor = float(np.quantile(env, 0.10))
    if floor > 0.5 * gamma0:
        raise PlateauError(
            "damping kernel shows no plateau within the horizon; set t_max manually"
        )
    threshold = max(1.15 * floor, 0.05 * gamma0)
    hits = np.flatnonzero(env <= threshold)
    if len(hits) == 0:
        raise PlateauError(
            "damping-kernel envelope never flattens below threshold; set t_max manually"
        )
    return float(t_env[hits[0]])


def outcome(fn, model):
    """The returned t_max, or the PlateauError message."""
    try:
        return fn(model)
    except PlateauError as exc:
        return f"PlateauError: {exc}"


class TestSuggestTmaxEquivalence:
    @pytest.mark.parametrize("idx", [1, 2, 3, 4, 5])
    def test_networks_match_direct_oracle(self, networks, idx):
        m = on.assemble_model(networks[idx])
        assert outcome(suggest_tmax, m) == outcome(oracle_suggest_tmax, m)

    def test_random_graphs_match_direct_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            m = on.assemble_model(random_stable_graph(rng))
            assert outcome(suggest_tmax, m) == outcome(oracle_suggest_tmax, m)

    # (0.1, 12.0) gives 121 = 11^2 points, a whole number of ceil(sqrt(n))
    # blocks; the others do not (12.7 gives 128, a last block of 7)
    @pytest.mark.parametrize("idx", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "dt,horizon", [(0.05, 600.0), (0.1, 12.0), (0.1, 12.7), (0.04, 400.0)]
    )
    def test_grid_kernel_matches_direct_kernel(self, networks, idx, dt, horizon):
        m = on.assemble_model(networks[idx])
        ts = np.arange(0.0, horizon + dt, dt)
        n = len(ts)
        assert (math.isqrt(n) ** 2 == n) == (horizon == 12.0)
        got = _damping_kernel_grid(m, dt, len(ts))
        assert got.shape == ts.shape
        assert np.max(np.abs(got - damping_kernel(m, ts))) <= 1e-13 * damping_kernel(m, 0.0)


def same_float(a, b):
    """Equal to the bit, or both NaN."""
    return np.float64(a).tobytes() == np.float64(b).tobytes() or np.isnan(a) and np.isnan(b)


class TestLinearQuantile:
    """The t_max floor is ``np.quantile(env, 0.10)`` to the bit."""

    @pytest.mark.parametrize("idx", [1, 2, 3, 4, 5])
    def test_networks_match_numpy(self, networks, idx):
        env = oracle_envelope(on.assemble_model(networks[idx]))[1]
        assert same_float(_linear_quantile(env, 0.10), np.quantile(env, 0.10))

    def test_random_graphs_match_numpy(self):
        rng = np.random.default_rng(34)
        checked = 0
        for _ in range(120):
            model = on.assemble_model(random_stable_graph(rng))
            try:
                env = oracle_envelope(model)[1]
            except PlateauError:  # the window outlasts the horizon
                continue
            assert same_float(_linear_quantile(env, 0.10), np.quantile(env, 0.10))
            checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 11, 12, 101])
    @pytest.mark.parametrize("q", [0.0, 0.10, 0.25, 0.5, 0.75, 0.95, 1.0])
    def test_sizes_and_levels_match_numpy(self, n, q):
        # the weight t = (n - 1) q - floor((n - 1) q) on both sides of 0.5,
        # integer indices, and each end
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3, n), np.full(n, 0.1)):
            assert same_float(_linear_quantile(x, q), np.quantile(x, q))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    def test_non_finite_entries_match_numpy(self):
        x = np.array([0.3, np.inf, 0.1, 0.2, -np.inf, 0.4])
        for q in (0.0, 0.10, 0.5, 1.0):
            assert same_float(_linear_quantile(x, q), np.quantile(x, q))
        x[2] = np.nan
        assert np.isnan(_linear_quantile(x, 0.10))


class TestRowFormatter:
    ADVERSARIAL = [
        np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.225e-308, 1e-300, -1e-300,
        1e300, -1e300, 1.7976931348623157e308, 1.0, -3.0, 2.0**53, 12.0, 0.1, 1 / 3,
    ]

    @pytest.mark.parametrize("sep", [" ", ","])
    def test_matches_per_number_format(self, sep):
        rng = np.random.default_rng(7)
        values = np.concatenate([
            self.ADVERSARIAL,
            rng.standard_normal(46) * 10.0 ** rng.integers(-300, 300, 46),
        ])
        table = rng.permutation(values).reshape(16, 4)
        expected = "".join(sep.join(_fmt(x) for x in row) + "\n" for row in table)
        assert _fmt_rows(table, sep) == expected

    def test_numpy_scalars_format_as_floats(self):
        row = [np.float64(-0.0), np.float64(2.5e-310), np.float64(7.0), 3]
        assert _fmt_rows([row], ",") == ",".join(_fmt(x) for x in row) + "\n"


# NaNs with other bit patterns than np.nan: a payload, and the sign bit
_NAN_BITS = np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64).view(np.float64)


class TestMatrixFormatter:
    POOL = [*TestRowFormatter.ADVERSARIAL, *_NAN_BITS.tolist(), 2.5e-310, -2.5e-310]

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        data=st.data(),
        sep=st.sampled_from([" ", ","]),
    )
    def test_matches_row_formatter(self, shape, data, sep):
        # entries from a small pool, so most matrices hold repeats
        entry = st.one_of(st.sampled_from(self.POOL), st.floats(width=64))
        size = shape[0] * shape[1]
        values = data.draw(st.lists(entry, min_size=size, max_size=size))
        table = np.array(values, dtype=float).reshape(shape)
        assert _fmt_matrix(table, sep) == _fmt_rows(table, sep)

    def test_keeps_signed_zeros_apart(self):
        table = np.array([[0.0, -0.0], [-0.0, 0.0]])
        assert _fmt_matrix(table, " ") == "0 -0\n-0 0\n"

    @pytest.mark.parametrize("idx", [1, 4])
    def test_matches_row_formatter_on_propagator(self, networks, idx):
        S = on.evolve(on.assemble_model(networks[idx]), 90.0)
        assert _fmt_matrix(S, " ") == _fmt_rows(S, " ")


DISPLACED_PROBE = GaussianState(np.array([1.0, -0.5]), 0.5 * np.eye(2))


class TestSampleStream:
    OPTIONS = SamplingOptions(n_samples=500, n_reps=6, seed=11)

    @pytest.mark.parametrize("probe", [None, DISPLACED_PROBE], ids=["vacuum", "displaced"])
    def test_sweep_draws_one_stream_point_by_point(self, net1, probe):
        # one generator fills the (point, quadrature, rep) draws in C order
        grid, t_max, opts = np.array([0.25, 0.3, 0.4]), 150.0, self.OPTIONS
        j, stderr = sweep_spectral_density(
            model_at(net1, grid[0]), grid, t_max, probe_state=probe, sampling=opts
        )
        state0 = probe or vacuum_state()
        states = []
        for w in grid:
            m = model_at(net1, w)
            joint = product_state(state0, thermal_environment(m, 1.0))
            states.append(reduce_state(propagate(joint, on.evolve(m, t_max)), 0))
        mean = np.array([s.mean for s in states])
        var = np.array([np.diag(s.cov) for s in states])
        n, reps = opts.n_samples, opts.n_reps
        draws = np.random.default_rng(opts.seed).noncentral_chisquare(
            n, (n * mean**2 / var)[..., None], (len(grid), 2, reps)
        )
        n_s = 0.5 * ((draws * var[..., None] / n).sum(axis=1) - 1.0)
        n_bath = thermal_occupancy(grid, 1.0)[:, None]
        js = (grid[:, None] / t_max) * np.log((n_bath - mean_photon(state0)) / (n_bath - n_s))
        assert np.allclose(j, js.mean(axis=1), rtol=1e-9, atol=0.0)
        assert np.allclose(stderr, js.std(axis=1, ddof=1) / np.sqrt(reps), rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("probe", [None, DISPLACED_PROBE], ids=["vacuum", "displaced"])
    def test_a_point_draws_independently_of_other_frequencies(self, net1_model, probe):
        opts = self.OPTIONS
        a, b = (
            sweep_spectral_density(net1_model, grid, 150.0, probe_state=probe, sampling=opts)
            for grid in ([0.25, 0.3, 0.4], [0.25, 0.35, 0.4])
        )
        assert a[0][1] != b[0][1]
        assert a[0][2] == b[0][2] and a[1][2] == b[1][2]

    def test_scalar_moments_draw_as_one_value(self):
        # a scalar call is the first (q) value of a broadcast call
        mean, var = np.array([[1.3, 0.0]]), np.array([[0.7, 0.4]])
        drawn = _sample_second_moments(mean, var, 50, 8, 21)
        assert drawn.shape == (1, 2, 8)
        assert np.array_equal(drawn[0, 0], _sample_second_moments(1.3, 0.7, 50, 8, 21))


class TestAnalyticJ:
    def test_zero_coupling(self, net1):
        import dataclasses

        g0 = dataclasses.replace(net1, probe=dataclasses.replace(net1.probe, k=0.0))
        m = on.assemble_model(g0)
        grid = np.linspace(0.2, 0.7, 20)
        assert np.allclose(spectral_density_analytic(m, grid, 150.0), 0.0)

    @pytest.mark.parametrize("t_max", [-150.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_a_time_that_is_not_finite_and_non_negative_rejected(self, net1_model, t_max):
        # a negative time would give a negative J, and nan or inf a NaN
        with pytest.raises(ValueError, match="t_max must be finite and >= 0"):
            spectral_density_analytic(net1_model, [0.3, 0.4], t_max)

    def test_no_time_reads_no_spectral_density(self, net1_model):
        assert np.array_equal(spectral_density_analytic(net1_model, [0.3, 0.4], 0.0), [0.0, 0.0])

    def test_single_node_resonant_growth(self):
        k, w0, T = 0.002, 0.25, 400.0
        m = single_node_probe(k, w0)
        J = spectral_density_analytic(m, w0, T)
        # resonant term k^2 T / (2 w0) plus a bounded remainder
        assert abs(J - k**2 * T / (2 * w0)) <= k**2 / (4 * w0**2)

    def test_network1_band_structure(self, net1_model):
        grid = np.linspace(0.2, 0.7, 120)
        J = spectral_density_analytic(net1_model, grid, 150.0)
        jmax = J.max()
        # in-gap and above-band values collapse toward zero
        gap = (grid > 0.42) & (grid < 0.50)
        assert np.all(np.abs(J[gap]) < 0.2 * jmax)
        assert abs(spectral_density_analytic(net1_model, 0.7, 150.0)) < 0.05 * jmax

    def test_scales_as_k_squared(self, net1):
        import dataclasses

        m1 = on.assemble_model(net1)
        g2 = dataclasses.replace(net1, probe=dataclasses.replace(net1.probe, k=0.02))
        m2 = on.assemble_model(g2)
        grid = np.linspace(0.2, 0.7, 15)
        j1 = spectral_density_analytic(m1, grid, 150.0)
        j2 = spectral_density_analytic(m2, grid, 150.0)
        assert np.allclose(j2, 4.0 * j1, rtol=1e-12)

    @pytest.mark.parametrize("mode", [0, 7, 15])
    def test_at_an_environment_frequency_takes_the_resonant_limit(self, net1_model, mode):
        # omega_S equal to Omega_n: that term's sin((Omega_n - w) T)/(2(Omega_n - w))
        # is its limit T/2
        om, T = net1_model.env_freqs, 150.0
        w = om[mode]
        amp = net1_model.bath_couplings() ** 2 / om**2
        terms = [
            a * ((T / 2 if o == w else np.sin((o - w) * T) / (2 * (o - w)))
                 + np.sin((o + w) * T) / (2 * (o + w)))
            for o, a in zip(om, amp)
        ]
        assert np.isclose(spectral_density_analytic(net1_model, w, T), w * sum(terms), rtol=1e-13)


class TestProbeJ:
    def test_uncoupled_probe_gives_zero(self):
        g = on.build_explicit(2, 0.25, [(1, 2, 0.05)]).with_probe(1, 0.0, 0.3)
        m = on.assemble_model(g)
        J, err = probe_j(m, 150.0, temperature=1.0)
        assert err is None
        assert abs(J) < 1e-12

    def test_single_node_matches_rabi_oracle(self):
        # independent closed form: resonant exchange at g_eff = k/(2 w0) gives
        # n_S(t) = N sin^2(g_eff t), hence J = -(2 w0 / t) ln|cos(g_eff t)|
        k, w0, T = 1e-3, 0.25, 300.0
        m = single_node_probe(k, w0)
        J, _ = probe_j(m, T, temperature=1.0)
        geff = k / (2 * w0)
        J_oracle = -(2 * w0 / T) * np.log(abs(np.cos(geff * T)))
        assert np.isclose(J, J_oracle, rtol=0.01)

    def test_isolated_resonance_halves_analytic_value(self):
        # the discrete-resonance ratio J_probe / J_analytic -> 1/2; the 15%
        # continuum-style agreement is unattainable for a single mode
        k, w0, T = 5e-4, 0.25, 150.0
        m = single_node_probe(k, w0)
        Jp, _ = probe_j(m, T, temperature=1.0)
        Ja = spectral_density_analytic(m, w0, T)
        assert np.isclose(Jp / Ja, 0.5, atol=0.05)

    def test_probe_k2_scaling_weak_coupling(self, net1):
        import dataclasses

        def at_k(k):
            g = dataclasses.replace(net1, probe=dataclasses.replace(net1.probe, k=k))
            return probe_j(model_at(g, 0.3), 150.0, 1.0)[0]

        ratio = at_k(0.004) / at_k(0.002)
        assert abs(ratio - 4.0) < 0.15

    def test_one_mode_meets_the_second_order_form_at_half_the_analytic_line(self):
        # at T = 16 pi / w0 both counter-rotating terms vanish, so the second-order
        # form is exactly half of J_analytic at the line; J_probe meets it with a
        # residual that falls like k^2 (2.8e-2, 6.8e-3, 1.7e-3 and 4.2e-4)
        w0 = 0.25
        T = 16 * np.pi / w0
        residual = []
        for k in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
            m = single_node_probe(k, w0)
            j_fejer = fejer_spectral_density(m, w0, T, 1.0)[0]
            assert j_fejer / spectral_density_analytic(m, w0, T) == pytest.approx(0.5, abs=1e-14)
            residual.append(probe_j(m, T)[0] / j_fejer - 1)
        falls = np.array(residual[:-1]) / residual[1:]
        assert np.all((3.9 < falls) & (falls < 4.3)) and 0 < residual[-1] < 5e-4

    def test_net1_meets_the_second_order_form(self, net1):
        # J's absolute scale on a 16-mode bath at criterion 6's T and grid: the
        # median residual against the Fejer-window form is 2.9e-2, 6.9e-3 and
        # 1.7e-3 at k = 0.01, 0.005 and 0.0025, falling like k^2
        grid = np.linspace(0.2, 0.7, 120)
        median = []
        for k in (0.01, 0.005, 0.0025):
            m = on.assemble_model(net1.with_probe(net1.probe.site + 1, k, 0.58))
            j_probe, _ = sweep_spectral_density(m, grid, 150.0, temperature=1.0)
            j_fejer = fejer_spectral_density(m, grid, 150.0, 1.0)
            median.append(np.median(np.abs(j_probe / j_fejer - 1)))
        falls = np.array(median[:-1]) / median[1:]
        assert np.all((3.8 < falls) & (falls < 4.4)) and median[-1] < 2e-3

    def test_saturation_raises(self):
        # resonant exchange with g_eff t = pi/2 transfers the full bath occupancy
        k, w0 = 1e-3, 0.25
        m = single_node_probe(k, w0)
        t_full = np.pi / 2 / (k / (2 * w0))
        with pytest.raises(ProbeSaturatedError):
            probe_j(m, t_full, temperature=1.0)

    def test_a_probe_above_the_bath_occupancy_gives_a_positive_J(self, net1):
        # squeezed r = 1.2 holds n0 = sinh^2 r = 2.28 photons, above N = 1.22 and
        # 0.99 at omega_S 0.6 and 0.7, T = 1: the occupancy falls from n0 toward
        # N without crossing it, which is no saturation
        r = 1.2
        probe = GaussianState(np.zeros(2), 0.5 * np.diag([np.exp(-2 * r), np.exp(2 * r)]))
        assert mean_photon(probe) > thermal_occupancy(0.6, 1.0) > thermal_occupancy(0.7, 1.0)
        j, _ = sweep_spectral_density(model_at(net1, 0.6), [0.6, 0.7], 150.0, probe_state=probe)
        assert np.all(np.isfinite(j)) and np.all(j > 0)

    def test_bad_temperature_rejected(self, net1_model):
        with pytest.raises(ValueError):
            probe_j(net1_model, 150.0, temperature=0.0)

    def test_cross_path_shape_agreement_network1(self, net1_model):
        grid = np.linspace(0.2, 0.7, 120)
        j_analytic = spectral_density_analytic(net1_model, grid, 150.0)
        j_probe, _ = sweep_spectral_density(net1_model, grid, 150.0, temperature=1.0)
        corr = np.corrcoef(j_analytic, j_probe)[0, 1]
        mask = j_analytic > 0.1 * j_analytic.max()
        rel = np.abs(j_probe[mask] - j_analytic[mask]) / j_analytic[mask]
        # shape tracks (bands, gap, edges); pointwise deviation is limited by
        # the resolved discreteness of a 16-mode bath at t_max=150
        assert corr > 0.9
        assert np.median(rel) < 0.35

    def test_robustness_to_probe_preparation(self, net1):
        # +-20% on the preparation squeezing moves recovered J by well under 10%
        r0 = 0.5
        for w in (0.27, 0.30, 0.33):
            m = model_at(net1, w)

            def j_at(r):
                db = -20 * r / np.log(10)
                ps = squeezed_state(SqueezedSpec(db, -db, "q"))
                return probe_j(m, 150.0, 1.0, probe_state=ps)[0]

            j = j_at(r0)
            assert abs(j_at(1.2 * r0) - j) / abs(j) < 0.10
            assert abs(j_at(0.8 * r0) - j) / abs(j) < 0.10


def j_probe_unit(models, t, ref):
    """J_probe's round-off scale per grid point, (omega/t) eps
    [(1 + Omega_max t) (2 n_S + 1) / |N - n_S| + (2 n_0 + 1) / |N - n_0|]:
    each occupancy is a sum of terms of about 2 n + 1, n_S's carrying the
    probe rows' eps (1 + Omega_max t) (``test_dynamics``'s row scale), and
    the inversion divides each by its distance from the bath occupancy.
    For a vacuum probe at T = 1 that is ``test_covariance.j_probe_roundoff``
    times 1 + Omega_max t, plus eps / N."""
    grid = np.array([m.omega_s for m in models])
    om_max = np.sqrt(max(np.linalg.eigvalsh(m.V).max() for m in models))
    n_s, n_bath, n0 = ref["n_s"], ref["n_bath"], ref["n0"]
    return (grid / t) * np.spacing(1.0) * (
        (1 + om_max * t) * (2 * n_s + 1) / np.abs(n_bath - n_s)
        + (2 * n0 + 1) / np.abs(n_bath - n0)
    )


class TestProbeJDigits:
    # random stable graphs of <= 8 modes, 4 grid points in 0.3-1.2, t < 150:
    # over seeds 0-299 the largest errors were 1.07 units of j_probe_unit
    # for J (the squeezed probe in a thermal bath; the vacuum probe in a
    # vacuum bath 0.81) and, on the 40-digit rows, 1.98 eps relative for the
    # vacuum variances of 3-30 dB probes, 6.5 eps thermal and 24.1 eps
    # squeezed
    SQUEEZED_PROBE = SqueezedSpec(-3.0, 3.0, 0.4)

    @staticmethod
    def case(seed):
        rng = np.random.default_rng(seed)
        graph = random_stable_graph(rng, max_nodes=7)
        t = float(rng.uniform(0.0, 150.0))
        models = [model_at(graph, w) for w in np.sort(rng.uniform(0.3, 1.2, 4))]
        return models, t, np.concatenate([rows_mp_exact(m, [t]) for m in models])

    @pytest.mark.parametrize("seed", range(12))
    def test_every_preparation_matches_40_digits(self, seed):
        models, t, rows = self.case(seed)
        grid = [m.omega_s for m in models]
        squeezed = squeezed_state(self.SQUEEZED_PROBE)
        for env_prep, probe in [
            ("thermal", vacuum_state()),
            ("squeezed", vacuum_state()),
            ("vacuum", vacuum_state()),
            ("vacuum", squeezed),
            ("thermal", squeezed),
        ]:
            j, _ = sweep_spectral_density(models[0], grid, t, probe_state=probe, env_prep=env_prep)
            ref = probe_j_mp(models, t, rows, env_prep, probe)
            assert np.max(np.abs(j - ref["j"]) / j_probe_unit(models, t, ref)) <= 2.0

    @pytest.mark.parametrize("seed", range(12))
    def test_probe_variances_match_40_digits(self, seed):
        # the 40-digit rows, rounded, into _probe_variances: what is left is
        # the environment and probe terms' own round-off, every term
        # non-negative (a q-squeezed probe has no off-diagonal covariance for
        # C E C^T to cancel in), so a few eps relative
        models, t, rows = self.case(seed)
        for db, (env_prep, bound) in itertools.product(
            (3.0, 30.0), [("vacuum", 4.0), ("thermal", 10.0), ("squeezed", 40.0)]
        ):
            probe = squeezed_state(SqueezedSpec(-db, db))
            var = _probe_variances(models[0], rows.astype(float), probe.cov, env_prep, 1.0)
            ref = probe_j_mp(models, t, rows, env_prep, probe)["var"]
            assert np.max(np.abs(var - ref) / ref) <= bound * np.spacing(1.0)


class TestEnvironmentPreparation:
    def test_thermal_node_marginals_are_physical(self, net1_model):
        env = thermal_environment(net1_model, 1.0)
        assert env.is_physical()
        assert env.n_modes == 16

    def test_thermal_occupancy_value(self):
        # N(0.25) at T=1
        assert np.isclose(thermal_occupancy(0.25, 1.0), 1 / (np.exp(0.25) - 1))

    def test_thermal_state_is_stationary(self):
        # a Gibbs state of the environment must not move under the
        # environment-only dynamics (probe detached via k = 0)
        g0 = on.build_linear_chain(16, [0.1, 0.05], 0.25).with_probe(8, 0.0, 0.58)
        m = on.assemble_model(g0)
        env = thermal_environment(m, 1.0)
        state0 = product_state(vacuum_state(), env)
        M = m.n_modes
        ix = np.concatenate([np.arange(1, M), np.arange(M + 1, 2 * M)])
        for t in (7.3, 55.0, 211.0):
            out = propagate(state0, on.evolve(m, t))
            assert np.max(np.abs(out.cov[np.ix_(ix, ix)] - env.cov)) < 1e-12

    def test_squeezed_emulation_is_pure_and_physical(self, net1_model):
        sq = squeezed_environment(net1_model, 1.0)
        assert sq.is_physical()
        assert np.isclose(sq.purity(), 1.0, atol=1e-10)

    def test_unknown_preparation_rejected(self, net1_model):
        with pytest.raises(ValueError, match="unknown environment preparation 'coherent'"):
            sweep_spectral_density(net1_model, [0.3], 150.0, env_prep="coherent")

    def test_squeezed_emulation_tracks_thermal_J(self, net1_model):
        grid = np.linspace(0.22, 0.68, 24)
        jt, _ = sweep_spectral_density(net1_model, grid, 150.0, env_prep="thermal")
        js, _ = sweep_spectral_density(net1_model, grid, 150.0, env_prep="squeezed")
        mask = jt > 0.1 * jt.max()
        rel = np.abs(js[mask] - jt[mask]) / np.abs(jt[mask])
        assert rel.max() < 0.15


class TestSampling:
    def test_sampled_J_consistent_with_exact(self, net1):
        m = model_at(net1, 0.3)
        j_exact, _ = probe_j(m, 150.0, 1.0)
        j_sampled, err = probe_j(
            m, 150.0, 1.0, sampling=SamplingOptions(n_samples=20_000, n_reps=20, seed=4)
        )
        assert err is not None and err > 0
        assert abs(j_sampled - j_exact) < 5 * err

    @pytest.mark.parametrize(
        "n_samples, n_reps, message",
        [(1, 5, "at least 2 samples"), (2, 0, "at least one repetition")],
        ids=["one-sample", "no-repetition"],
    )
    def test_options_need_two_samples_and_a_repetition(self, n_samples, n_reps, message):
        with pytest.raises(ValueError, match=message):
            SamplingOptions(n_samples=n_samples, n_reps=n_reps, seed=0)

    @pytest.mark.parametrize(
        "n_samples, n_reps, seed, message",
        [
            (2.5, 3, 0, "counts must be integers"),
            (10, 2.0, 0, "counts must be integers"),
            (True, 3, 0, "counts must be integers"),
            (10, 3, 1.5, "seed must be an integer >= 0 or None"),
            (10, 3, True, "seed must be an integer >= 0 or None"),
            (10, 3, -1, "seed must be an integer >= 0 or None"),
        ],
        ids=["fractional-samples", "float-reps", "bool-samples", "fractional-seed",
             "bool-seed", "negative-seed"],
    )
    def test_options_take_integers(self, n_samples, n_reps, seed, message):
        # numpy would draw a chi-square with 2.5 degrees of freedom, and run
        # seed True as seed 1
        with pytest.raises(ValueError, match=message):
            SamplingOptions(n_samples=n_samples, n_reps=n_reps, seed=seed)

    def test_options_take_numpy_integers(self, net1_model):
        grid = [0.3, 0.4]
        given = SamplingOptions(np.int64(200), np.int32(3), np.uint64(5))
        j = sweep_spectral_density(net1_model, grid, 150.0, sampling=given)
        ref = sweep_spectral_density(net1_model, grid, 150.0, sampling=SamplingOptions(200, 3, 5))
        assert np.array_equal(j, ref)

    def test_a_variance_that_rounds_to_zero_has_no_law(self, monkeypatch):
        # a zero variance has no chi-square law to draw from; no physical
        # input reaches one (a 170 dB squeezed probe keeps its 1e-17, below),
        # so the variances are replaced by zeros
        m = single_node_probe()
        monkeypatch.setattr(on.probes, "_probe_variances", lambda *args: np.zeros((1, 2)))
        opts = SamplingOptions(n_samples=10, n_reps=2, seed=0)
        with pytest.raises(StateError, match="variance is not positive"):
            sweep_spectral_density(m, [0.25], 1.0, env_prep="vacuum", sampling=opts)

    def test_a_170_db_probe_keeps_its_variances_at_the_start(self):
        # at t = 0 the rows are (1, 0, ..) and (.., 1, ..) and the vacuum
        # environment's columns are zero: the variances are the probe's own,
        # exactly, with nothing to cancel
        m = single_node_probe()
        cov = np.diag([1e-17, 0.25e17])
        var = _probe_variances(m, on.probe_rows(m, 0.0, [0.25]), cov, "vacuum")
        assert np.array_equal(var, [[1e-17, 0.25e17]])

    def test_sampled_determinism(self, net1):
        m = model_at(net1, 0.3)
        opts = SamplingOptions(n_samples=1000, n_reps=5, seed=99)
        a = probe_j(m, 150.0, 1.0, sampling=opts)
        b = probe_j(m, 150.0, 1.0, sampling=opts)
        assert a == b

    @pytest.mark.parametrize("mean", [0.0, 1.3], ids=["centered", "displaced"])
    def test_second_moments_match_squared_homodyne_samples(self, mean):
        var, n, reps = 0.7, 20, 3000
        drawn = _sample_second_moments(mean, var, n, reps, np.random.SeedSequence(5))
        state = GaussianState(np.array([mean, 0.0]), np.diag([var, 0.5]))
        squared = homodyne_sample(state, "q", 0, n * reps, 6).reshape(reps, n) ** 2
        assert ks_2samp(drawn, squared.mean(axis=1)).pvalue > 0.01

    @pytest.mark.parametrize("mean", [0.0, 1.3])
    def test_second_moment_spread_follows_chi_square_law(self, mean):
        # the mean of n squared N(mean, var) outcomes has expectation
        # var + mean^2 and variance (2 var^2 + 4 mean^2 var) / n
        var, n, reps = 0.5 * 10 ** (-0.18), 10_000, 400
        drawn = _sample_second_moments(mean, var, n, reps, np.random.SeedSequence(13))
        law = np.sqrt((2.0 * var**2 + 4.0 * mean**2 * var) / n)
        assert abs(drawn.mean() - (var + mean**2)) < 4.0 * law / np.sqrt(reps)
        assert abs(drawn.std(ddof=1) - law) < 0.1 * law

    def test_sampled_J_of_displaced_probe_consistent_with_exact(self, net1):
        m = model_at(net1, 0.3)
        probe = GaussianState(np.array([1.0, -0.5]), 0.5 * np.eye(2))
        j_exact, _ = probe_j(m, 150.0, 1.0, probe_state=probe)
        j_sampled, err = probe_j(
            m, 150.0, 1.0, probe_state=probe,
            sampling=SamplingOptions(n_samples=20_000, n_reps=20, seed=8),
        )
        assert err > 0
        assert abs(j_sampled - j_exact) < 5 * err

    def test_cost_does_not_grow_with_sample_count(self, net1_model):
        # n_samples normals per quadrature and rep would need about 160 GB here
        opts = SamplingOptions(n_samples=10**9, n_reps=10, seed=2)
        j, stderr = sweep_spectral_density(net1_model, [0.3], 150.0, sampling=opts)
        assert np.isfinite(j[0])
        assert stderr[0] > 0


class TestSweep:
    def test_stderr_only_with_sampling(self, net1_model):
        grid = np.linspace(0.25, 0.35, 4)
        j, stderr = sweep_spectral_density(net1_model, grid, 150.0)
        assert j.shape == (4,) and stderr is None
        _, stderr = sweep_spectral_density(
            net1_model, grid, 150.0, sampling=SamplingOptions(n_samples=200, n_reps=3, seed=1)
        )
        assert isinstance(stderr, np.ndarray) and stderr.shape == (4,)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_a_time_that_is_not_positive_rejected(self, net1_model, t_max):
        # J divides by t_max
        with pytest.raises(ValueError, match="t_max must be > 0"):
            sweep_spectral_density(net1_model, [0.3, 0.4], t_max)

    def test_one_repetition_has_no_spread_and_two_have_one(self, net1_model):
        grid = [0.25, 0.3]
        stderr = {
            reps: sweep_spectral_density(
                net1_model, grid, 150.0, sampling=SamplingOptions(n_samples=200, n_reps=reps, seed=1)
            )[1]
            for reps in (1, 2)
        }
        assert np.array_equal(stderr[1], [0.0, 0.0])
        assert np.all(stderr[2] > 0)

    def test_list_tuple_and_array_grids_agree_to_the_bit(self, net1_model):
        grid = np.linspace(0.25, 0.7, 7)
        runs = [
            sweep_spectral_density(net1_model, kind, 150.0, env_prep="squeezed",
                                   sampling=SamplingOptions(n_samples=200, n_reps=3, seed=1))
            for kind in (grid.tolist(), tuple(grid.tolist()), grid)
        ]
        for j, stderr in runs[1:]:
            assert np.array_equal(j, runs[0][0]) and np.array_equal(stderr, runs[0][1])

    def test_grid_must_increase(self, net1_model):
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep_spectral_density(net1_model, [0.3, 0.3, 0.4], 150.0)

    # unchecked, the first two yield a J and the third a saturation error
    @pytest.mark.parametrize(
        "cov, grid",
        [
            (np.diag([0.3, 0.3]), [0.26, 0.28]),
            (np.diag([0.5, -0.6]), [0.26, 0.28]),
            (np.diag([0.5, -0.6]), [0.28, 0.30, 0.32]),
        ],
        ids=["below_vacuum", "indefinite", "indefinite_saturating"],
    )
    def test_unphysical_probe_state_rejected(self, cov, grid):
        g0 = on.build_linear_chain(16, [0.1, 0.05], 0.25).with_probe(8, 0.05, 0.3)
        probe = GaussianState(np.zeros(2), cov)
        with pytest.raises(StateError, match="uncertainty"):
            sweep_spectral_density(on.assemble_model(g0), grid, 150.0, probe_state=probe)


# bundled sweep range and t_max of each network
BUNDLED_SWEEPS = {
    1: (0.2, 0.7, 150.0),
    2: (0.2, 0.7, 150.0),
    3: (0.2, 0.7, 150.0),
    4: (0.1, 1.1, 90.0),
    5: (0.5, 0.8, 250.0),
}


def oracle_fidelity_trace(model, rho1, rho2, ts):
    """Per-time fidelity through the full propagator and validated states."""
    states0 = [
        product_state(squeezed_state(spec), joint_vacuum(model.n_modes - 1))
        for spec in (rho1, rho2)
    ]
    out = []
    for t in ts:
        S = on.evolve(model, t)
        a, b = (reduce_state(propagate(s0, S), 0) for s0 in states0)
        out.append(fidelity(a, b))
    return np.array(out)


def oracle_probe_j(graph, grid, t_max, environment, probe, temperature=1.0):
    """Per-point probe-path J through the full propagator and validated states."""
    out = []
    for w in grid:
        m = model_at(graph, w)
        state0 = product_state(probe, environment(m, temperature))
        n_s = mean_photon(reduce_state(propagate(state0, on.evolve(m, t_max)), 0))
        n_bath = thermal_occupancy(w, temperature)
        out.append((w / t_max) * np.log((n_bath - mean_photon(probe)) / (n_bath - n_s)))
    return np.array(out)


class TestBatchedEquivalence:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        t_stop=st.floats(1.0, 600.0),
        squeeze=st.lists(st.floats(0.0, 6.0), min_size=2, max_size=2),
        excess=st.lists(
            st.one_of(
                st.just(0.0), st.floats(-14.0, -6.0).map(lambda e: 10.0**e), st.floats(0.5, 6.0)
            ),
            min_size=2,
            max_size=2,
        ),
        axis=st.floats(0.0, np.pi),
    )
    def test_qnm_trace_matches_stacked_oracle_on_random_networks(
        self, seed, t_stop, squeeze, excess, axis
    ):
        # excess 0 is a pure preparation, 1e-14 to 1e-6 dB a nearly pure one:
        # det S - 1/4 of each evolved state comes from its purified rows, by
        # Gram-Schmidt here and by Cauchy-Binet in the oracle, not from det S,
        # which cancels to round-off near t = 0
        m = on.assemble_model(random_stable_graph(np.random.default_rng(seed)))
        rho1 = SqueezedSpec(-squeeze[0], squeeze[0] + excess[0], "q")
        rho2 = SqueezedSpec(-squeeze[1], squeeze[1] + excess[1], axis)
        ts = np.linspace(0.0, t_stop, 101)
        f_raw = qnm_trace(m, rho1, rho2, ts)
        ref = qnm_trace_stacked(m, rho1, rho2, ts)
        assert np.max(np.abs(f_raw - ref) / ref) <= 1e-12
        assert np.all((0 < f_raw) & (f_raw <= 1 + 1e-9))
        for f in (f_raw, moving_average(f_raw, 11)):
            assert blp_witness(ts, f).value >= 0

    @pytest.mark.parametrize("idx", range(1, 6))
    def test_qnm_trace_matches_per_time_oracle(self, networks, idx):
        m = on.assemble_model(networks[idx])
        ts = np.linspace(0, 500, 251)
        f_raw = qnm_trace(m, *PAPER_STATES, ts)
        ref = oracle_fidelity_trace(m, *PAPER_STATES, ts)
        assert np.max(np.abs(f_raw - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("idx", [1, 5])
    def test_qnm_trace_from_a_nonzero_start_matches_per_time_oracle(self, networks, idx):
        m = on.assemble_model(networks[idx])
        ts = np.linspace(37.5, 537.5, 251)  # uniform: probe rows by angle addition
        f_raw = qnm_trace(m, *PAPER_STATES, ts)
        ref = oracle_fidelity_trace(m, *PAPER_STATES, ts)
        assert np.max(np.abs(f_raw - ref) / ref) <= 1e-12

    @pytest.mark.parametrize(
        "rho2", [*PAPER_STATES, SqueezedSpec(-2.0, 3.0, 0.7), SqueezedSpec(-2.5, 2.5, 0.7)],
        ids=["paper-q", "paper-p", "mixed-angle", "pure-angle"],
    )
    def test_pure_preparation_keeps_its_digits_at_time_zero(self, rho2):
        # the example of a pure rho1 on this network: F(0) was off by about
        # 7e-9 relative when det S1 - 1/4 came from the covariance; measured
        # now within 6.7e-16 of the 40-digit value
        m = on.assemble_model(random_stable_graph(np.random.default_rng(133595)))
        rho1 = SqueezedSpec(-1.0, 1.0)
        f0 = qnm_trace(m, rho1, rho2, np.linspace(0.0, 10.0, 11))[0]
        assert abs(f0 / squeezed_fidelity_mp(rho1, rho2) - 1) <= 4e-15
        if rho2.squeeze_db + rho2.antisqueeze_db == 0:
            r1, r2 = (-spec.squeeze_db * np.log(10) / 20 for spec in (rho1, rho2))
            phi0 = 2 * (rho2.angle - rho1.angle)
            assert abs(f0 / pure_fidelity_reference(r1, r2, phi0) - 1) <= 4e-15

    def test_pure_preparation_reads_its_excess_from_the_rows(self):
        # a weak probe (k = 4.69e-4) shortly after t = 0: at t = 0.05 the
        # pure rho1 has det S1 - 1/4 = 9.7e-11, which the 2x2 covariance
        # cancels to round-off, and F from it is off by 4.1e-12 against 40
        # digits; the row route measures 2.2e-16 over the grid (bound 2e-15)
        m = on.assemble_model(random_stable_graph(np.random.default_rng(17441)))
        rho1, rho2 = SqueezedSpec(-1.0, 1.0), PAPER_STATES[1]
        ts = np.linspace(0.0, 0.1, 3)
        f = qnm_trace(m, rho1, rho2, ts)
        assert np.max(np.abs(f / qnm_fidelity_mp(m, rho1, rho2, ts) - 1)) <= 2e-15

    @pytest.mark.parametrize("excess_db", [0.0, 1e-14, 3e-13, 1e-12, 1e-9, 1e-3, 1.1])
    @pytest.mark.parametrize("seed", [17441, 133595])
    def test_every_preparation_keeps_its_digits_near_purity(self, seed, excess_db):
        # rho1 from pure through nearly pure to the bundled 1.1 dB excess: F
        # from the 2x2 covariance's det S - 1/4 was off by up to 6.3e-8 (at
        # 3e-13 dB, t = 0); from the purified rows it measures 1.1e-15 at
        # most over these cases (bound 4e-15)
        m = on.assemble_model(random_stable_graph(np.random.default_rng(seed)))
        rho1, rho2 = SqueezedSpec(-1.0, 1.0 + excess_db), PAPER_STATES[1]
        ts = np.linspace(0.0, 0.1, 3)
        f = qnm_trace(m, rho1, rho2, ts)
        assert np.max(np.abs(f / qnm_fidelity_mp(m, rho1, rho2, ts) - 1)) <= 4e-15

    @pytest.mark.parametrize("pair", ["paper", "mixed-off-axis"])
    @pytest.mark.parametrize("seed", [*range(10), 64, 159])
    def test_a_long_grid_keeps_its_digits(self, seed, pair):
        # the qnm verb's horizon t = 500 on 21 angle-addition points, in units
        # of eps (1 + Omega_max t): over seeds 0-299 at most 10.0 (seeds 64
        # and 159, at t = 0, where the float rows are the identity only to
        # round-off), bound 20
        m = on.assemble_model(random_stable_graph(np.random.default_rng(seed), max_nodes=5))
        rho1, rho2 = (
            PAPER_STATES
            if pair == "paper"
            else (SqueezedSpec(-2.0, 3.0, 0.4), SqueezedSpec(-1.5, 2.5, 1.1))
        )
        ts = np.linspace(0.0, 500.0, 21)
        unit = np.finfo(float).eps * (1 + m.freqs_normal.max() * ts)
        f = qnm_trace(m, rho1, rho2, ts)
        assert np.max(np.abs(f / qnm_fidelity_mp(m, rho1, rho2, ts) - 1) / unit) <= 20

    def test_qnm_trace_never_takes_the_covariance_route(self, monkeypatch, net1_model):
        def refuse(*args):
            raise AssertionError("qnm_trace took the 2x2 covariance route")

        ts = np.linspace(0.0, 10.0, 6)
        ref = oracle_fidelity_trace(net1_model, *PAPER_STATES, ts)
        monkeypatch.setattr(on.gaussian, "_excess", refuse)
        monkeypatch.setattr(on.probes, "_probe_variances", refuse)
        f = qnm_trace(net1_model, *PAPER_STATES, ts)
        assert np.max(np.abs(f / ref - 1)) <= 1e-12

    @pytest.mark.parametrize("squeezed_probe", [False, True])
    @pytest.mark.parametrize("env_prep", ["thermal", "squeezed", "vacuum"])
    @pytest.mark.parametrize("idx", range(1, 6))
    def test_sweep_matches_per_point_oracle(self, networks, idx, env_prep, squeezed_probe):
        start, stop, t_max = BUNDLED_SWEEPS[idx]
        grid = np.linspace(start, stop, 15)
        probe = squeezed_state(SqueezedSpec(-3.0, 3.0, "q")) if squeezed_probe else None
        model = on.assemble_model(networks[idx])
        j, _ = sweep_spectral_density(model, grid, t_max, probe_state=probe, env_prep=env_prep)
        environment = {
            "thermal": thermal_environment,
            "squeezed": squeezed_environment,
            "vacuum": lambda m, temperature: joint_vacuum(m.n_modes - 1),
        }[env_prep]
        ref = oracle_probe_j(
            networks[idx], grid, t_max, environment, probe or vacuum_state()
        )
        # an unpopulated environment barely moves the probe: J is 5-70x
        # smaller, and the inversion magnifies the same few-ulp round-off of
        # n_S (the stacked full-covariance route reaches 1.1e-12 on net 5)
        rtol = 1e-11 if env_prep == "vacuum" else 1e-12
        assert np.max(np.abs(j - ref)) <= rtol * np.max(np.abs(ref))

    def test_one_point_sampled_sweep_matches_single_point(self, net1_model):
        # point 0 of a seeded sweep draws from the same seed streams as a
        # seeded one-point sweep at its frequency
        opts = SamplingOptions(n_samples=500, n_reps=4, seed=3)
        grid = np.linspace(0.25, 0.45, 6)
        j, stderr = sweep_spectral_density(net1_model, grid, 150.0, sampling=opts)
        j_single, stderr_single = sweep_spectral_density(net1_model, grid[:1], 150.0, sampling=opts)
        assert np.isclose(j[0], j_single[0], rtol=1e-10, atol=0.0)
        assert np.isclose(stderr[0], stderr_single[0], rtol=1e-8, atol=0.0)

    def test_sweep_raises_stability_error(self, net1_model):
        with pytest.raises(on.StabilityError):
            sweep_spectral_density(net1_model, [0.01, 0.3], 150.0)

    def test_sweep_raises_saturation_naming_the_point(self):
        # full resonant swap at omega_S = 0.25 only
        g = on.build_explicit(1, 0.25, []).with_probe(1, 1e-3, 0.25)
        t_full = np.pi / 2 / (1e-3 / 0.5)
        with pytest.raises(ProbeSaturatedError, match="omega_s=0.25"):
            sweep_spectral_density(on.assemble_model(g), [0.24, 0.25, 0.26], t_full)

    def test_model_at_needs_a_probe(self):
        with pytest.raises(ValueError, match="graph has no probe attached"):
            model_at(on.build_explicit(1, 0.25, []), 0.3)

    def test_empty_grid_rejected(self, net1_model):
        with pytest.raises(ValueError, match="empty"):
            sweep_spectral_density(net1_model, [], 150.0)


class TestSmoothing:
    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            moving_average(np.arange(10.0), 50)

    def test_constant_series_unchanged(self):
        v = np.full(20, 3.3)
        assert np.allclose(moving_average(v, 5), v)

    def test_edges_shrink(self):
        v = np.arange(10.0)
        sm = moving_average(v, 5)
        assert sm[0] == v[0]
        assert sm[1] == v[0:3].mean()
        assert sm[5] == v[3:8].mean()

    def test_matches_loop_definition(self):
        rng = np.random.default_rng(11)
        for n, window in ((251, 51), (40, 7), (5, 9), (1, 3)):
            v = 1.0 + 0.1 * rng.standard_normal(n)
            ref = np.empty(n)
            for i in range(n):
                a = min(window // 2, i, n - 1 - i)
                ref[i] = v[i - a : i + a + 1].mean()
            assert np.max(np.abs(moving_average(v, window) - ref)) <= 1e-12

    def test_a_one_point_window_returns_its_input(self, net1):
        # the running sums rounded 135 of these 251 one-point means by an ulp
        f = qnm_trace(model_at(net1, 0.58), *PAPER_STATES, np.linspace(0, 500, 251))
        assert np.array_equal(moving_average(f, 1), f)
        for window in range(1, 2 * len(f) + 2, 2):
            assert np.array_equal(moving_average(f, window)[[0, -1]], f[[0, -1]]), window


class TestQnm:
    def test_time_zero_matches_direct_fidelity(self, net1_model):
        rho1, rho2 = PAPER_STATES
        f = qnm_trace(net1_model, rho1, rho2, np.linspace(0, 10, 6))
        from oscnet.gaussian import fidelity

        direct = fidelity(squeezed_state(rho1), squeezed_state(rho2))
        assert np.isclose(f[0], direct, atol=1e-12)

    def test_uncoupled_probe_keeps_fidelity_constant(self):
        g = on.build_explicit(2, 0.25, [(1, 2, 0.05)]).with_probe(1, 0.0, 0.58)
        m = on.assemble_model(g)
        rho1, rho2 = PAPER_STATES
        ts = np.linspace(0, 500, 101)
        f = qnm_trace(m, rho1, rho2, ts)
        assert f.max() - f.min() < 1e-10
        assert blp_witness(ts, moving_average(f, DEFAULT_SMOOTH_WINDOW)).value < 1e-10

    def test_network1_edge_vs_gap_frequencies(self, net1):
        rho1, rho2 = PAPER_STATES
        ts = np.linspace(0, 500, 251)
        f58 = qnm_trace(model_at(net1, 0.58), rho1, rho2, ts)
        f70 = qnm_trace(model_at(net1, 0.70), rho1, rho2, ts)
        # revivals at the band edge, near-unitary flat trace in the gap
        d58 = np.diff(f58)
        assert (d58 < -1e-6).any()  # genuine non-monotonicity
        assert f70.max() - f70.min() < 0.02
        n58, n70 = (
            blp_witness(ts, moving_average(f, DEFAULT_SMOOTH_WINDOW)).value for f in (f58, f70)
        )
        assert n58 > n70

    def test_grid_validation(self, net1_model):
        rho1, rho2 = PAPER_STATES
        with pytest.raises(ValueError):
            qnm_trace(net1_model, rho1, rho2, [0.0, 0.0, 1.0])

    def test_list_tuple_and_array_grids_agree_to_the_bit(self, net1_model):
        ts = np.linspace(0.0, 500.0, 251)
        traces = [
            qnm_trace(net1_model, *PAPER_STATES, kind)
            for kind in (ts.tolist(), tuple(ts.tolist()), ts)
        ]
        for f in traces[1:]:
            assert np.array_equal(f, traces[0])


class TestWitness:
    def test_monotone_increase_gives_zero(self):
        t = np.arange(4.0)
        f = np.array([0.5, 0.6, 0.7, 0.8])
        rep = blp_witness(t, f)
        assert rep.value == 0.0 and np.copysign(1.0, rep.value) == 1.0
        assert _witness_text(rep, 0.5).splitlines()[1] == "N = 0"

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.1, 1.0 + 1e-8])
    def test_fidelity_outside_unit_interval_rejected(self, bad, monkeypatch, net1_model):
        monkeypatch.setattr(on.probes, "_fidelity", lambda *args: np.array([0.9, bad, 0.8]))
        with pytest.raises(ValueError, match="lie in"):
            qnm_trace(net1_model, *PAPER_STATES, np.arange(3.0))

    def test_fidelity_at_the_ends_of_its_range_passes(self, monkeypatch, net1_model):
        # (0, 1 + 1e-9]: the smallest positive float and 1 plus the round-off allowance
        f = np.array([np.nextafter(0.0, 1.0), 1.0, 1.0 + 1e-9])
        monkeypatch.setattr(on.probes, "_fidelity", lambda *args: f.copy())
        assert np.array_equal(qnm_trace(net1_model, *PAPER_STATES, np.arange(3.0)), f)

    def test_a_one_point_trace_rejected(self):
        with pytest.raises(ValueError, match="at least two points"):
            blp_witness(np.zeros(1), np.ones(1))

    @pytest.mark.parametrize("n_times", [3, 5])
    def test_times_of_another_length_rejected(self, n_times):
        f = np.array([1.0, 0.8, 0.9, 0.7])
        with pytest.raises(ValueError, match="differ in shape"):
            blp_witness(np.arange(float(n_times)), f)

    def test_hand_computed_sum(self):
        t = np.arange(4.0)
        f = np.array([1.0, 0.8, 0.9, 0.7])
        rep = blp_witness(t, f)
        assert np.isclose(rep.value, 0.4, atol=1e-15)
        assert [(a, b) for a, b, _ in rep.intervals] == [(0.0, 1.0), (2.0, 3.0)]
        assert np.isclose(sum(c for *_, c in rep.intervals), rep.value)

    def test_a_flat_step_ends_a_run_and_adds_nothing(self):
        t = np.arange(4.0)
        rep = blp_witness(t, np.array([1.0, 0.8, 0.8, 0.7]))
        assert np.isclose(rep.value, 0.3, atol=1e-15)
        assert [(a, b) for a, b, _ in rep.intervals] == [(0.0, 1.0), (2.0, 3.0)]

    def test_equals_total_negative_variation(self, net1_model):
        rho1, rho2 = PAPER_STATES
        ts = np.linspace(0, 200, 101)
        f = qnm_trace(net1_model, rho1, rho2, ts)
        rep = blp_witness(ts, f)
        d = np.diff(f)
        assert np.isclose(rep.value, -d[d < 0].sum(), atol=1e-15)

    def test_opposite_phase_maximizes_witness(self, net1):
        # equal-magnitude pure pairs: phi0 = pi dominates the tested phases
        m = model_at(net1, 0.58)
        ts = np.linspace(0, 500, 126)
        r = 0.2

        def witness_at(phi0):
            rho1 = SqueezedSpec(-20 * r / np.log(10), 20 * r / np.log(10), 0.0)
            rho2 = SqueezedSpec(-20 * r / np.log(10), 20 * r / np.log(10), phi0 / 2)
            f = qnm_trace(m, rho1, rho2, ts)
            return blp_witness(ts, moving_average(f, DEFAULT_SMOOTH_WINDOW)).value

        w_pi = witness_at(np.pi)
        for phi0 in (np.pi / 4, np.pi / 2, 3 * np.pi / 4):
            assert w_pi >= witness_at(phi0)


@pytest.mark.parametrize("temperature", [np.nan, np.inf, 0.0, -1.0])
def test_temperature_that_is_not_finite_and_positive_rejected(temperature):
    with pytest.raises(ValueError, match="temperature"):
        thermal_occupancy(np.array([0.25, 0.5]), temperature)
