import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oscnet as on
from oscnet.cli import bundled_config_path
from oscnet.symplectic import (
    SymplecticError,
    bloch_messiah,
    is_symplectic,
    probe_mask,
    symplectic_form,
    symplectic_residual,
)

from oracles import discard_passive, random_orthogonal_symplectic, random_symplectic

RNG = np.random.default_rng(20240817)


class TestIsSymplectic:
    def test_identity(self):
        ok, res = is_symplectic(np.eye(6))
        assert ok
        assert res == 0.0

    def test_uniform_scaling_is_not(self):
        ok, res = is_symplectic(np.diag([2.0, 2.0]))
        assert not ok
        assert res > 1.0

    def test_squeezer_is(self):
        ok, _ = is_symplectic(np.diag([2.0, 0.5]))
        assert ok

    def test_odd_dimension_rejected(self):
        with pytest.raises(SymplecticError):
            is_symplectic(np.eye(3))


class TestBlochMessiah:
    def test_identity(self):
        f = bloch_messiah(np.eye(4))
        assert np.allclose(f.r1, np.eye(4))
        assert np.allclose(f.d, 1.0)
        assert np.allclose(f.r2, np.eye(4))

    def test_single_mode_squeezer_passthrough(self):
        S = np.diag([np.exp(0.7), np.exp(-0.7)])
        f = bloch_messiah(S)
        assert np.allclose(f.r1, np.eye(2))
        assert np.allclose(f.delta, S)
        assert np.allclose(f.r2, np.eye(2))

    def test_non_symplectic_rejected(self):
        with pytest.raises(SymplecticError):
            bloch_messiah(np.diag([2.0, 2.0]))

    def test_a_squeezing_without_its_reciprocal_rejected(self):
        # a q gain just past 1 + PAIR_TOL and a p loss short of it: the product
        # 1 + 5e-11 passes is_symplectic, but no 1/d pairs with d
        S = np.diag([1.0 + 1.01e-10, 1.0 - 5e-11])
        assert is_symplectic(S)[0]
        with pytest.raises(SymplecticError, match="do not pair reciprocally"):
            bloch_messiah(S)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_construct_then_decompose(self, m):
        rng = np.random.default_rng(100 + m)
        r = rng.uniform(0, 1.2, m)
        delta = np.diag(np.exp(np.concatenate([r, -r])))
        S = (
            random_orthogonal_symplectic(m, rng)
            @ delta
            @ random_orthogonal_symplectic(m, rng)
        )
        f = bloch_messiah(S)
        assert np.linalg.norm(f.reconstruct() - S) < 1e-10 * max(1, np.linalg.norm(S))
        assert np.allclose(np.sort(f.d), np.sort(np.exp(np.abs(r))), atol=1e-10)

    def test_factor_invariants(self):
        for m in (2, 4):
            for trial in range(10):
                S = random_symplectic(m, np.random.default_rng(trial * 7 + m))
                f = bloch_messiah(S)
                eye = np.eye(2 * m)
                for R in (f.r1, f.r2):
                    assert np.linalg.norm(R @ R.T - eye) < 1e-10
                    assert symplectic_residual(R) < 1e-10
                assert np.all(f.d >= 1.0 - 1e-12)
                assert np.all(np.diff(f.d) <= 1e-12)  # descending

    def test_degenerate_singular_values(self):
        rng = np.random.default_rng(5)
        for r in (
            [0.4, 0.4, 0.0],
            # squeezing just above PAIR_TOL, alone and next to clusters
            [1e-8, 0.3, 0.0],
            [5e-9, 5e-9, 0.7, 0.7, 0.0],
            [2e-10, 0.5, 0.5],
        ):
            r = np.array(r)
            m = len(r)
            delta = np.diag(np.exp(np.concatenate([r, -r])))
            S = (
                random_orthogonal_symplectic(m, rng)
                @ delta
                @ random_orthogonal_symplectic(m, rng)
            )
            f = bloch_messiah(S)
            assert np.linalg.norm(f.reconstruct() - S) < 1e-10
            assert np.allclose(np.sort(f.d), np.sort(np.exp(r)), atol=1e-10)
            for R in (f.r1, f.r2):
                assert np.linalg.norm(R @ R.T - np.eye(2 * m)) < 1e-10
                assert symplectic_residual(R) < 1e-10

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # distinct squeezing levels: unit, just above PAIR_TOL, up to d = 300
        levels=st.lists(
            st.one_of(
                st.sampled_from([0.0, 2e-10, 5e-9, 1e-8]),
                st.floats(1e-6, np.log(300.0)),
            ),
            min_size=1,
            max_size=4,
        ),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=7),  # repeats cluster d
        flips=st.lists(st.booleans(), min_size=7, max_size=7),
    )
    def test_random_symplectic_factors(self, seed, levels, picks, flips):
        r = np.array([levels[i % len(levels)] for i in picks])
        r = np.where(flips[: len(r)], -r, r)  # squeeze q or p
        m = len(r)
        rng = np.random.default_rng(seed)
        delta = np.diag(np.exp(np.concatenate([r, -r])))
        S = random_orthogonal_symplectic(m, rng) @ delta @ random_orthogonal_symplectic(m, rng)
        assume(is_symplectic(S)[0])  # seven modes at d = 300 round past the check
        f = bloch_messiah(S)
        assert np.linalg.norm(f.reconstruct() - S) < 1e-10 * max(1, np.linalg.norm(S))
        assert np.allclose(f.d, np.sort(np.exp(np.abs(r)))[::-1], rtol=1e-10, atol=1e-10)
        # S S^T rounds at eps |S|^2, which passes into R2 = Delta^-1 R1^T S:
        # with several d = 300 neither this nor the SVD route meets a flat
        # 1e-10 (up to 2.4e-10 and 1.4e-10 over 4000 draws)
        tol = 1e-10 + 10 * np.finfo(float).eps * np.linalg.norm(S) ** 2
        for R in (f.r1, f.r2):
            assert np.linalg.norm(R @ R.T - np.eye(2 * m)) < tol
            assert symplectic_residual(R) < tol

    @pytest.mark.parametrize("idx", [1, 2, 3, 4, 5])
    def test_r1_pairs_each_column_with_minus_omega_times_it(self, networks, idx):
        # R1's last M columns are -Omega times its first M, to the bit: on the
        # paper networks (near the passive limit, early, at the bundled
        # t_max) and on squeezers with unit and degenerate d
        cfg = json.loads(bundled_config_path(f"network{idx}.cfg").read_text())
        model = on.assemble_model(networks[idx])
        rng = np.random.default_rng(idx)
        cases = [on.evolve(model, t) for t in (1e-9, 3.0, cfg["t_max"])]
        for r in ([0.5, 0.0, 0.0], [0.3, 0.3, 0.0, 0.0], [0.7, 0.2, 0.2, 0.0]):
            delta = np.diag(np.exp(np.concatenate([r, np.negative(r)])))
            rotate = [random_orthogonal_symplectic(len(r), rng) for _ in range(2)]
            cases.append(rotate[0] @ delta @ rotate[1])
        for S in cases:
            r1 = bloch_messiah(S).r1
            n = len(r1) // 2
            assert np.array_equal(r1[:, n:], -symplectic_form(n) @ r1[:, :n])

    def test_passive_s_is_its_own_r1(self):
        # an uncoupled network with a decoupled probe only rotates each mode
        # in the renormalized frame: S is orthogonal, R1 = S and R2 = I
        graph = on.build_explicit(3, [0.3, 0.4, 0.5], []).with_probe(1, 0.0, 0.35)
        S = on.evolve(on.assemble_model(graph), 7.0)
        f = bloch_messiah(S)
        assert np.array_equal(f.r1, S) and np.array_equal(f.d, np.ones(4))
        assert np.array_equal(f.r2, np.eye(8))
        assert np.array_equal(probe_mask(S), S[[0, 4]])

    def test_each_r1_column_has_a_positive_leading_entry(self, networks):
        # a decoupled probe on network 1 leaves 2 unit singular modes of 17,
        # filled from the unit-space projector; squeezers with unit d as well.
        # A projector column's residual leads with its own diagonal entry
        # unless a skipped column (norm < 1e-8) left larger entries above it:
        # a squeezed mode tilted by 1e-9 from q_1 into q_0 needs the sign flip
        model = on.assemble_model(networks[1].with_probe(8, 0.0, 0.58))
        cases = [on.evolve(model, t) for t in (3.0, 150.0)]
        tilt = np.eye(3)  # a rotation by 1e-9 (cos = 1 in float64)
        tilt[0, 1], tilt[1, 0] = -1e-9, 1e-9
        rotate = np.kron(np.eye(2), tilt)  # orthogonal symplectic
        cases.append(rotate @ np.diag(np.exp([0.5, 0.0, 0.0, -0.5, 0.0, 0.0])))
        rng = np.random.default_rng(5)
        for r in ([0.3, 0.0, 0.0], [0.7, 0.2, 0.0, 0.0]):
            delta = np.diag(np.exp(np.concatenate([r, np.negative(r)])))
            rotate = [random_orthogonal_symplectic(len(r), rng) for _ in range(2)]
            cases.append(rotate[0] @ delta @ rotate[1])
        for S in cases:
            f = bloch_messiah(S)
            n = len(f.d)
            assert np.count_nonzero(f.d == 1.0) >= 2
            for col in f.r1[:, :n].T:
                assert col[np.flatnonzero(np.abs(col) > 1e-12)[0]] > 0

    def test_deterministic_output(self):
        S = random_symplectic(4, np.random.default_rng(11))
        f1 = bloch_messiah(S)
        f2 = bloch_messiah(S.copy())
        assert np.array_equal(f1.r1, f2.r1)
        assert np.array_equal(f1.r2, f2.r2)

    def test_spectrum_invariant_under_passive_composition(self):
        rng = np.random.default_rng(17)
        S = random_symplectic(4, rng)
        base = np.sort(bloch_messiah(S).d)
        for _ in range(5):
            A = random_orthogonal_symplectic(4, rng)
            B = random_orthogonal_symplectic(4, rng)
            spect = np.sort(bloch_messiah(A @ S @ B).d)
            assert np.max(np.abs(spect - base)) < 1e-9

    def test_determinant_plus_one(self):
        for m in (1, 3, 6):
            S = random_symplectic(m, np.random.default_rng(m))
            assert np.isclose(np.linalg.det(S), 1.0, atol=1e-9)

    def test_vacuum_invariance_of_passive_factors(self):
        S = random_symplectic(5, np.random.default_rng(23))
        f = bloch_messiah(S)
        eye = np.eye(10)
        for R in (f.r1, f.r2):
            assert np.linalg.norm(R @ (0.5 * eye) @ R.T - 0.5 * eye) < 1e-10


class TestDiscardPassive:
    def test_identity_factors(self):
        f = bloch_messiah(np.eye(6))
        assert np.allclose(discard_passive(f), 0.5 * np.eye(6))

    def test_matches_direct_propagation(self):
        for m in (1, 2, 5):
            S = random_symplectic(m, np.random.default_rng(31 + m))
            f = bloch_messiah(S)
            direct = 0.5 * S @ S.T
            assert np.linalg.norm(discard_passive(f) - direct) < 1e-10

    def test_network1_s_eff_end_to_end(self, net1_model):
        S = on.evolve(net1_model, 150.0)
        f = bloch_messiah(S)
        direct = 0.5 * S @ S.T
        assert S.shape == (34, 34)  # 17 modes
        assert np.linalg.norm(discard_passive(f) - direct) < 1e-10


def test_random_orthogonal_symplectic_properties():
    for m in (1, 2, 7):
        R = random_orthogonal_symplectic(m, RNG)
        assert np.linalg.norm(R @ R.T - np.eye(2 * m)) < 1e-12
        assert symplectic_residual(R) < 1e-12


def test_symplectic_form_shape():
    om = symplectic_form(3)
    assert om.shape == (6, 6)
    assert np.allclose(om @ om, -np.eye(6))
