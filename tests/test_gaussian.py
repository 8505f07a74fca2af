import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

import oscnet as on
from oscnet.gaussian import (
    GaussianState,
    SqueezedSpec,
    StateError,
    fidelity,
    fidelity_from_moments,
    mean_photon,
    squeezed_state,
    vacuum_state,
)

from oracles import (
    JointState,
    estimate_second_moment,
    fidelity_from_moments_lapack,
    homodyne_sample,
    joint_vacuum,
    product_state,
    propagate,
    pure_fidelity_reference,
    squeezed_fidelity_mp,
    random_orthogonal_symplectic,
    reduce_state,
    thermal_state,
)


def pure_squeezed(r: float, angle: float = 0.0) -> GaussianState:
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([0.5 * np.exp(-2 * r), 0.5 * np.exp(2 * r)]) @ rot.T
    return GaussianState(np.zeros(2), cov)


class TestPreparation:
    def test_paper_state_rho1(self):
        s = squeezed_state(SqueezedSpec(-1.8, 2.9, "q"))
        # 0.5 * 10^(-0.18) and 0.5 * 10^(0.29)
        assert np.isclose(s.cov[0, 0], 0.33034672400379805, rtol=1e-13)
        assert np.isclose(s.cov[1, 1], 0.97492229987902271, rtol=1e-13)

    def test_vacuum(self):
        s = vacuum_state()
        assert np.allclose(s.cov, 0.5 * np.eye(2))
        assert np.allclose(s.mean, 0.0)

    def test_thermal(self):
        s = thermal_state(3.0)
        assert np.allclose(s.cov, 3.5 * np.eye(2))

    def test_axis_p(self):
        s = squeezed_state(SqueezedSpec(-1.3, 2.4, "p"))
        assert s.cov[1, 1] < 0.5 < s.cov[0, 0]

    def test_axis_p_is_the_q_axis_turned_a_quarter(self):
        spec = SqueezedSpec(-1.3, 2.4, "p")
        assert spec.angle == np.pi / 2
        cov = squeezed_state(spec).cov
        assert abs(cov[0, 1]) < 1e-15
        assert np.allclose(np.diag(cov), [0.5 * 10**0.24, 0.5 * 10**-0.13], rtol=1e-15, atol=0)

    def test_uncertainty_violating_spec_rejected(self):
        with pytest.raises(StateError):
            SqueezedSpec(-3.0, 2.0, "q")  # product below vacuum
        with pytest.raises(StateError):
            SqueezedSpec(1.0, 2.0, "q")  # positive squeeze level

    @pytest.mark.parametrize(
        "levels",
        [(np.nan, 1.0), (-1.0, np.nan), (-1.0, np.inf), (-np.inf, 1.0), (True, 1.0), (-1.0, True)],
        ids=["nan-squeeze", "nan-antisqueeze", "inf-antisqueeze", "inf-squeeze", "bool-squeeze",
             "bool-antisqueeze"],
    )
    def test_a_level_that_is_not_a_finite_number_rejected(self, levels):
        # a NaN or infinite level would fail only later, in the fidelity, and
        # True would read as 1 dB
        with pytest.raises(StateError, match="dB levels must be finite numbers"):
            SqueezedSpec(*levels)

    # a bool is no angle: True would read as 1 rad
    @pytest.mark.parametrize("axis", ["x", "0.5", None, np.nan, np.inf, True, False, np.True_])
    def test_unknown_axis_rejected(self, axis):
        with pytest.raises(StateError, match="axis"):
            SqueezedSpec(-1.0, 1.0, axis)

    # a JSON config gives an integer angle; numpy scalars come from grids
    @pytest.mark.parametrize("axis", [3, np.float64(-2.0)], ids=["int", "numpy"])
    def test_any_real_angle_accepted(self, axis):
        assert np.isfinite(squeezed_state(SqueezedSpec(-1.0, 1.0, axis)).cov).all()


class TestPropagateReduce:
    def test_identity(self):
        s = squeezed_state(SqueezedSpec(-2.0, 2.0))
        s2 = propagate(s, np.eye(2))
        assert np.allclose(s2.cov, s.cov)

    def test_vacuum_through_passive_stays_vacuum(self):
        rng = np.random.default_rng(8)
        R = random_orthogonal_symplectic(4, rng)
        out = propagate(joint_vacuum(4), R)
        assert np.allclose(out.cov, 0.5 * np.eye(8), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(StateError):
            propagate(vacuum_state(), np.eye(4))

    def test_reduce_vacuum(self):
        s = reduce_state(joint_vacuum(5), 3)
        assert np.allclose(s.cov, 0.5 * np.eye(2))

    def test_reduce_product_of_squeezers(self):
        a = squeezed_state(SqueezedSpec(-2.0, 2.0, "q"))
        b = squeezed_state(SqueezedSpec(-1.0, 1.0, "p"))
        joint = product_state(a, b)
        assert np.allclose(reduce_state(joint, 0).cov, a.cov)
        assert np.allclose(reduce_state(joint, 1).cov, b.cov)

    def test_two_mode_squeezed_marginal_is_thermal(self):
        r = 0.8
        ch, sh = np.cosh(r), np.sinh(r)
        S = np.array(
            [
                [ch, sh, 0, 0],
                [sh, ch, 0, 0],
                [0, 0, ch, -sh],
                [0, 0, -sh, ch],
            ]
        )
        out = propagate(joint_vacuum(2), S)
        marg = reduce_state(out, 0)
        nbar = np.sinh(r) ** 2
        assert np.allclose(marg.cov, (nbar + 0.5) * np.eye(2), atol=1e-12)
        assert np.isclose(mean_photon(marg), nbar)


def test_state_below_the_uncertainty_bound_is_refused():
    # det cov = 0.16 lies between 1/8 and 1/4: below the bound, yet above
    # what a cubed (not squared) 1/2 - UNCERTAINTY_SLACK would allow
    s = GaussianState(np.zeros(2), np.diag([0.4, 0.4]))
    assert not s.is_physical()
    with pytest.raises(StateError, match="uncertainty relation"):
        mean_photon(s)
    with pytest.raises(StateError, match="uncertainty relation"):
        fidelity(s, vacuum_state())


class TestMeanPhoton:
    def test_vacuum_zero(self):
        assert mean_photon(vacuum_state()) == 0.0

    def test_pure_squeezed(self):
        r = 0.9
        assert np.isclose(mean_photon(pure_squeezed(r)), np.sinh(r) ** 2, rtol=1e-12)

    def test_thermal(self):
        assert np.isclose(mean_photon(thermal_state(4.2)), 4.2)

    def test_displacement_contributes(self):
        s = GaussianState(np.array([1.0, -2.0]), 0.5 * np.eye(2))
        assert np.isclose(mean_photon(s), (1 + 4) / 2)

    def test_displacement_counts_squared(self):
        # quadrature means off 0 and +-1, where a power other than 2 would show
        s = GaussianState(np.array([0.5, -1.5]), np.diag([0.75, 0.5]))
        assert mean_photon(s) == (0.75 + 0.5 + 0.25 + 2.25 - 1) / 2

    def test_nonnegative_and_zero_iff_vacuum(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            r = rng.uniform(0, 1.5)
            n = mean_photon(pure_squeezed(r, rng.uniform(0, np.pi)))
            assert n >= 0
            if n < 1e-12:
                assert r < 1e-6


class TestFidelity:
    def test_identical_mixed_states(self):
        for nbar in (0.0, 0.5, 3.0, 10.0):
            s = thermal_state(nbar)
            assert np.isclose(fidelity(s, s), 1.0, atol=1e-12)

    def test_orthogonally_squeezed_pure_states(self):
        r1, r2 = 0.55, 0.3
        f = fidelity(pure_squeezed(r1, 0.0), pure_squeezed(r2, np.pi / 2))
        assert np.isclose(f, 1.0 / np.cosh(r1 + r2), rtol=1e-12)

    def test_displaced_vacua(self):
        d_alpha = 0.7 + 0.2j
        # quadrature means: q = sqrt(2) Re a, p = sqrt(2) Im a
        m = np.sqrt(2) * np.array([d_alpha.real, d_alpha.imag])
        s1 = vacuum_state()
        s2 = GaussianState(m, 0.5 * np.eye(2))
        assert np.isclose(fidelity(s1, s2), np.exp(-abs(d_alpha) ** 2), rtol=1e-12)

    def test_symmetry(self):
        a = squeezed_state(SqueezedSpec(-1.8, 2.9, "q"))
        b = squeezed_state(SqueezedSpec(-1.3, 2.4, "p"))
        assert np.isclose(fidelity(a, b), fidelity(b, a), atol=1e-14)

    def test_rotation_invariance(self):
        a = squeezed_state(SqueezedSpec(-1.8, 2.9, "q"))
        b = squeezed_state(SqueezedSpec(-1.3, 2.4, "p"))
        base = fidelity(a, b)
        for th in np.linspace(0, 2 * np.pi, 9):
            R = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
            assert np.isclose(fidelity(propagate(a, R), propagate(b, R)), base, atol=1e-10)

    def test_moments_broadcast_over_a_stack(self):
        rng = np.random.default_rng(5)
        states = []
        for _ in range(6):
            r, th = rng.uniform(0.0, 0.8), rng.uniform(0.0, np.pi)
            s = pure_squeezed(r, th)
            states.append(GaussianState(rng.normal(0.0, 0.5, 2), s.cov))
        a, b = states[:3], states[3:]
        stacked = fidelity_from_moments(
            np.array([s.mean for s in a]),
            np.array([s.cov for s in a]),
            np.array([s.mean for s in b]),
            np.array([s.cov for s in b]),
        )
        assert np.allclose(stacked, [fidelity(x, y) for x, y in zip(a, b)], rtol=1e-14, atol=0.0)

    def test_multimode_rejected(self):
        with pytest.raises(StateError, match="one mode"):
            GaussianState(np.zeros(4), 0.5 * np.eye(4))
        with pytest.raises(StateError, match="one mode"):
            GaussianState(np.zeros(2), 0.5 * np.eye(4))
        with pytest.raises(StateError, match="one mode"):
            GaussianState(np.zeros(4), 0.5 * np.eye(2))

    def test_matches_lapack_route(self):
        rng = np.random.default_rng(9)
        covs = []
        for _ in range(2):
            a = rng.normal(size=(40, 2, 2))
            covs.append(0.5 * np.eye(2) + a @ np.swapaxes(a, -1, -2))
        means = rng.normal(size=(2, 40, 2))
        got = fidelity_from_moments(means[0], covs[0], means[1], covs[1])
        ref = fidelity_from_moments_lapack(means[0], covs[0], means[1], covs[1])
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0)

    def test_pure_against_mixed_state_keeps_its_digits(self):
        # a pure state's det - 1/4 is round-off, and F moved like its square
        # root: up to 1.1e-8 relative on these pairs before the pure-state
        # form; 5.6e-16 at most over 300 such pairs now
        rng = np.random.default_rng(11)
        for _ in range(40):
            r = rng.uniform(0.0, 6.0)
            pure = SqueezedSpec(-r, r, float(rng.uniform(0.0, np.pi)))
            r2 = rng.uniform(0.0, 6.0)
            mixed = SqueezedSpec(-r2, r2 + rng.uniform(0.5, 6.0), float(rng.uniform(0.0, np.pi)))
            f = fidelity(squeezed_state(pure), squeezed_state(mixed))
            assert abs(f / squeezed_fidelity_mp(pure, mixed) - 1) <= 2e-15

    @pytest.mark.parametrize(
        "excess_db, bound",
        [
            # within _PURITY_TOL the state counts as pure, d = 0, and F moves
            # like sqrt(d / L): measured 1.1e-8, 3.6e-8 and 6.3e-8
            (1e-14, 2e-8),
            (1e-13, 5e-8),
            (3e-13, 1e-7),
            # above it the 2x2 determinant keeps d: measured 4.7e-12 and 1.4e-12
            (1e-12, 1e-11),
            (1e-9, 3e-12),
            (0.0, 2e-15),  # exactly pure: measured 0
        ],
    )
    def test_nearly_pure_state_stays_in_its_documented_band(self, excess_db, bound):
        nearly_pure = SqueezedSpec(-1.0, 1.0 + excess_db)
        mixed = SqueezedSpec(-1.3, 2.4, "p")
        f = fidelity(squeezed_state(nearly_pure), squeezed_state(mixed))
        assert abs(f / squeezed_fidelity_mp(nearly_pure, mixed) - 1) <= bound

    def test_negative_definite_sum_rejected(self):
        # det(S1 + S2) = 1.44 > 0, yet S1 + S2 = -1.2 I
        cov = -0.6 * np.eye(2)
        with pytest.raises(StateError, match="positive definite"):
            fidelity_from_moments(np.zeros(2), cov, np.zeros(2), cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_non_finite_covariance_rejected(self, bad, entry):
        cov = 0.5 * np.eye(2)
        bent = cov.copy()
        bent[entry] = bent[entry[::-1]] = bad
        with pytest.raises(StateError, match="finite and positive definite"):
            fidelity_from_moments(np.zeros(2), cov, np.zeros(2), bent)


class TestPureFidelityReference:
    def test_zero_squeezing(self):
        assert pure_fidelity_reference(0.0, 0.0, 1.0) == 1.0

    def test_equal_r_opposite_phase_is_sech(self):
        r = 0.45
        assert np.isclose(pure_fidelity_reference(r, r, np.pi), 1 / np.cosh(2 * r), rtol=1e-12)

    @given(
        r1=st.floats(0, 1.2),
        r2=st.floats(0, 1.2),
        phi0=st.floats(0, 2 * np.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_covariance_fidelity(self, r1, r2, phi0):
        # phi0 is the squeezing phase difference: axis angle difference phi0/2
        f_ref = pure_fidelity_reference(r1, r2, phi0)
        f_cov = fidelity(pure_squeezed(r1, 0.0), pure_squeezed(r2, phi0 / 2))
        assert np.isclose(f_cov, f_ref, atol=1e-12, rtol=1e-12)

    def test_monotone_decreasing_in_phase(self):
        r = 0.5
        grid = np.linspace(0, np.pi, 25)
        vals = [pure_fidelity_reference(r, r, p) for p in grid]
        assert np.all(np.diff(vals) < 0)


class TestHomodyne:
    def test_vacuum_concentration(self):
        # 5% accuracy at 1e4 samples in >= 95% of seeds
        hits = 0
        for seed in range(40):
            x = homodyne_sample(vacuum_state(), "q", 0, 10_000, seed)
            est, _ = estimate_second_moment(x)
            hits += abs(est - 0.5) < 0.025
        assert hits >= 38

    def test_seeds_differ_but_distribution_matches(self):
        s = squeezed_state(SqueezedSpec(-2.0, 2.0, "q"))
        a = homodyne_sample(s, "q", 0, 5_000, 1)
        b = homodyne_sample(s, "q", 0, 5_000, 2)
        assert not np.array_equal(a, b)
        assert ks_2samp(a, b).pvalue > 0.01

    def test_estimator_spread_matches_chi_square_law(self):
        v = 0.5 * 10 ** (-0.18)
        s = squeezed_state(SqueezedSpec(-1.8, 1.8, "q"))
        M = 10_000
        seeds = np.random.SeedSequence(13).spawn(20)
        ests = [estimate_second_moment(homodyne_sample(s, "q", 0, M, ss))[0] for ss in seeds]
        spread = np.std(ests, ddof=1)
        assert abs(spread - v * np.sqrt(2 / M)) < 0.2 * v * np.sqrt(2 / M)

    def test_determinism(self):
        s = vacuum_state()
        assert np.array_equal(
            homodyne_sample(s, "p", 0, 100, 77), homodyne_sample(s, "p", 0, 100, 77)
        )

    def test_too_few_samples_rejected(self):
        with pytest.raises(StateError):
            homodyne_sample(vacuum_state(), "q", 0, 1, 0)
        with pytest.raises(StateError):
            estimate_second_moment(np.array([1.0]))


class TestValidity:
    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[0.5, 0.1], [0.2, 0.5]])
        with pytest.raises(StateError):
            GaussianState(np.zeros(2), cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["mean", "cov_diagonal", "cov_off_diagonal"])
    def test_non_finite_moments_rejected(self, bad, where):
        mean, cov = np.zeros(2), 0.5 * np.eye(2)
        if where == "mean":
            mean[1] = bad
        elif where == "cov_diagonal":
            cov[0, 0] = bad
        else:
            cov[0, 1] = cov[1, 0] = bad
        with pytest.raises(StateError, match="finite"):
            GaussianState(mean, cov)

    def test_unphysical_state_detected(self):
        tight = GaussianState(np.zeros(2), 0.1 * np.eye(2))
        assert not tight.is_physical()
        with pytest.raises(StateError):
            tight.require_physical()

    # unchecked, fidelity(tight, tight) is 25 and mean_photon(tight) -0.4
    @pytest.mark.parametrize(
        "observable",
        [
            lambda s: fidelity(s, s),
            lambda s: fidelity(s, vacuum_state()),
            lambda s: fidelity(vacuum_state(), s),
            mean_photon,
        ],
        ids=["fidelity_both", "fidelity_first", "fidelity_second", "mean_photon"],
    )
    def test_observables_reject_unphysical_state(self, observable):
        tight = GaussianState(np.zeros(2), 0.1 * np.eye(2))
        with pytest.raises(StateError, match="uncertainty"):
            observable(tight)

    # |det cov| >= 1/4 here, so the symplectic eigenvalue bound alone passes them
    @pytest.mark.parametrize(
        "cov", [np.diag([0.5, -0.6]), -0.6 * np.eye(2), np.diag([-0.6, 0.5])],
        ids=["indefinite", "negative_definite", "indefinite_q"],
    )
    def test_covariance_not_positive_definite_is_unphysical(self, cov):
        state = GaussianState(np.zeros(2), cov)
        assert not state.is_physical()
        with pytest.raises(StateError):
            state.require_physical()
        assert not JointState(np.zeros(2), cov).is_physical()

    def test_propagation_preserves_validity(self, net1_model):
        s0 = product_state(squeezed_state(SqueezedSpec(-1.8, 2.9, "q")), joint_vacuum(16))
        out = propagate(s0, on.evolve(net1_model, 87.0))
        assert out.is_physical()

    def test_purity(self):
        assert np.isclose(joint_vacuum(1).purity(), 1.0)
        assert np.isclose(product_state(thermal_state(1.0)).purity(), 1.0 / 3.0)
