"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import time

import numpy as np
import pytest

import oscnet as on
from oscnet.dynamics import evolve
from oscnet.gaussian import (
    SqueezedSpec,
    fidelity,
    squeezed_state,
    vacuum_state,
)
from oscnet.probes import (
    DEFAULT_SMOOTH_WINDOW,
    blp_witness,
    model_at,
    moving_average,
    qnm_trace,
    spectral_density_analytic,
    suggest_tmax,
    sweep_spectral_density,
)
from oscnet.probes import _sample_second_moments
from oscnet.symplectic import bloch_messiah, symplectic_residual

from conftest import PAPER_STATES, paper_networks, random_stable_graph
from oracles import (
    discard_passive,
    estimate_second_moment,
    homodyne_sample,
    pure_fidelity_reference,
    random_orthogonal_symplectic,
    random_symplectic,
    renormalization_scaling,
    thermal_state,
)

pytestmark = pytest.mark.acceptance


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def evolution_matrices():
    """>= 500 evolution matrices: networks 1-5 plus random stable models."""
    rng = np.random.default_rng(20240817)
    mats = []
    for graph in paper_networks().values():
        model = on.assemble_model(graph)
        for t in np.linspace(0.0, 180.0, 20):
            mats.append(evolve(model, t))
    for _ in range(100):
        g = random_stable_graph(rng, max_nodes=50)
        model = on.assemble_model(g)
        for t in rng.uniform(0.0, 120.0, 4):
            mats.append(evolve(model, float(t)))
    return mats


def test_criterion_1_symplecticity(evolution_matrices):
    start = time.perf_counter()
    worst = max(symplectic_residual(S) for S in evolution_matrices)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and len(evolution_matrices) >= 500 and elapsed < 60.0
    report(
        1,
        ok,
        f"{len(evolution_matrices)} matrices, worst residual {worst:.2e}, {elapsed:.1f}s",
    )
    assert len(evolution_matrices) >= 500
    assert worst < 1e-10
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def decompositions(evolution_matrices):
    rng = np.random.default_rng(7)
    randoms = [
        random_symplectic(int(rng.integers(1, 9)), rng, max_squeeze=1.2) for _ in range(200)
    ]
    pool = randoms + evolution_matrices
    return [(S, bloch_messiah(S)) for S in pool]


def test_criterion_2_bloch_messiah(decompositions):
    worst_rec = worst_orth = worst_pair = worst_spec = 0.0
    for S, f in decompositions:
        scale = max(1.0, np.linalg.norm(S))
        worst_rec = max(worst_rec, np.linalg.norm(f.reconstruct() - S) / scale)
        m = f.n_modes
        eye = np.eye(2 * m)
        for R in (f.r1, f.r2):
            worst_orth = max(
                worst_orth,
                np.linalg.norm(R @ R.T - eye),
                symplectic_residual(R),
            )
        delta = f.delta
        worst_pair = max(
            worst_pair, float(np.max(np.abs(np.diag(delta)[m:] * np.diag(delta)[:m] - 1.0)))
        )
    rng = np.random.default_rng(11)
    for S, f in decompositions[:40]:
        m = f.n_modes
        A = random_orthogonal_symplectic(m, rng)
        B = random_orthogonal_symplectic(m, rng)
        d2 = bloch_messiah(A @ S @ B).d
        worst_spec = max(worst_spec, float(np.max(np.abs(np.sort(d2) - np.sort(f.d)))))
    ok = worst_rec < 1e-9 and worst_orth < 1e-10 and worst_pair < 1e-10 and worst_spec < 1e-9
    report(
        2,
        ok,
        f"{len(decompositions)} decompositions: recon {worst_rec:.2e}, factors {worst_orth:.2e}, "
        f"pairing {worst_pair:.2e}, spectrum shift {worst_spec:.2e}",
    )
    assert worst_rec < 1e-9
    assert worst_orth < 1e-10
    assert worst_pair < 1e-10
    assert worst_spec < 1e-9


def test_criterion_3_propagator_oracle():
    from scipy.linalg import expm

    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(100):
        g = random_stable_graph(rng, max_nodes=10)
        model = on.assemble_model(g)
        n = model.n_modes
        G = np.zeros((2 * n, 2 * n))
        G[:n, n:] = np.eye(n)
        G[n:, :n] = -model.V
        t = float(rng.uniform(1.0, 60.0))
        # the physical frame: undo the renormalized frame's scaling T_i / T_j
        T = renormalization_scaling(model)
        bare = evolve(model, t) * np.outer(1.0 / T, T)
        worst = max(worst, np.linalg.norm(bare - expm(G * t)))
    ok = worst < 1e-8
    report(3, ok, f"100 random stable models, worst |closed-form - expm| {worst:.2e}")
    assert worst < 1e-8


def test_criterion_4_vacuum_discard(decompositions):
    worst = 0.0
    for S, f in decompositions:
        direct = 0.5 * S @ S.T
        worst = max(worst, np.linalg.norm(discard_passive(f) - direct))
    ok = worst < 1e-10
    report(4, ok, f"S(I/2)S^T vs R1 D (I/2) D R1^T on {len(decompositions)} matrices: {worst:.2e}")
    assert worst < 1e-10


def test_criterion_5_fidelity_oracles():
    def pure(r, angle):
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        cov = rot @ np.diag([0.5 * np.exp(-2 * r), 0.5 * np.exp(2 * r)]) @ rot.T
        return on.GaussianState(np.zeros(2), cov)

    worst = 0.0
    for r1 in np.linspace(0.0, 1.2, 20):
        for r2 in np.linspace(0.0, 1.2, 20):
            for phi0 in np.linspace(0.0, np.pi, 9):
                f_ref = pure_fidelity_reference(r1, r2, phi0)
                f_cov = fidelity(pure(r1, 0.0), pure(r2, phi0 / 2))
                worst = max(worst, abs(f_ref - f_cov))
    worst_special = 0.0
    for r in np.linspace(0.0, 1.2, 25):
        worst_special = max(
            worst_special,
            abs(pure_fidelity_reference(r, r, np.pi) - 1.0 / np.cosh(2 * r)),
            abs(fidelity(pure(r, 0.0), pure(0.3, np.pi / 2)) - 1.0 / np.cosh(r + 0.3)),
        )
    worst_self = 0.0
    for spec in (SqueezedSpec(-1.8, 2.9, "q"), SqueezedSpec(-1.3, 2.4, "p")):
        s = squeezed_state(spec)
        worst_self = max(worst_self, abs(fidelity(s, s) - 1.0))
    worst_self = max(worst_self, abs(fidelity(thermal_state(2.5), thermal_state(2.5)) - 1.0))
    ok = worst < 1e-12 and worst_special < 1e-12 and worst_self < 1e-12
    report(
        5,
        ok,
        f"3600-point grid dev {worst:.2e}, special cases {worst_special:.2e}, "
        f"self-fidelity {worst_self:.2e}",
    )
    assert worst < 1e-12
    assert worst_special < 1e-12
    assert worst_self < 1e-12


def test_criterion_5_at_the_start_of_qnm_trace():
    # qnm reads its preparations through the probe rows (_purified_moments),
    # not through ``fidelity``: at t = 0 the rows are the identity and F is the
    # preparations' own fidelity, checked against criterion 5's references
    model = on.assemble_model(paper_networks()[1])
    db = 20.0 / np.log(10.0)  # r in dB: a pure state is -db r along its axis, +db r across
    worst = 0.0
    for r1 in np.linspace(0.0, 1.2, 20):
        for r2 in np.linspace(0.0, 1.2, 20):
            for phi0 in np.linspace(0.0, np.pi, 9):
                rho1 = SqueezedSpec(-db * r1, db * r1, 0.0)
                rho2 = SqueezedSpec(-db * r2, db * r2, phi0 / 2)
                f0 = qnm_trace(model, rho1, rho2, [0.0, 1.0])[0]
                worst = max(worst, abs(f0 - pure_fidelity_reference(r1, r2, phi0)))
    worst_paper = 0.0
    rho1, rho2 = PAPER_STATES
    f_ref = fidelity(squeezed_state(rho1), squeezed_state(rho2))
    for graph in paper_networks().values():
        f_raw = qnm_trace(on.assemble_model(graph), rho1, rho2, np.linspace(0.0, 500.0, 251))
        worst_paper = max(worst_paper, abs(f_raw[0] - f_ref))
    ok = worst < 1e-12 and worst_paper < 1e-12
    report(
        5,
        ok,
        f"qnm_trace at t = 0: 3600-point grid dev {worst:.2e}, paper states on nets 1-5 "
        f"{worst_paper:.2e}",
    )
    assert worst < 1e-12
    assert worst_paper < 1e-12


def test_criterion_6_cross_path_consistency():
    # Asserted at the stated tolerances. Known to fail: a 16-mode bath at
    # t_max=150 is partially line-resolved, the two recovery routes apply
    # different effective spectral windows, and isolated resonances give
    # probe/analytic -> 1/2 exactly, so pointwise 15% agreement is not
    # achievable at these parameters for any probe site or temperature.
    start = time.perf_counter()
    net1 = paper_networks()[1]
    model, grid = on.assemble_model(net1), np.linspace(0.2, 0.7, 120)
    j_analytic = spectral_density_analytic(model, grid, 150.0)
    j_probe, _ = sweep_spectral_density(model, grid, 150.0, temperature=1.0)
    elapsed = time.perf_counter() - start
    mask = j_analytic > 0.1 * j_analytic.max()
    rel = np.abs(j_probe[mask] - j_analytic[mask]) / j_analytic[mask]
    corr = float(np.corrcoef(j_analytic, j_probe)[0, 1])
    ok = bool(rel.max() < 0.15 and corr > 0.95 and elapsed < 120.0)
    report(
        6,
        ok,
        f"pointwise max dev {rel.max():.3f} (need <0.15), corr {corr:.4f} (need >0.95), "
        f"{elapsed:.1f}s",
    )
    assert elapsed < 120.0
    assert corr > 0.95, (
        f"cross-path correlation {corr:.4f} <= 0.95: intrinsic to the partially "
        "line-resolved 16-mode bath at these parameters"
    )
    assert rel.max() < 0.15, (
        f"pointwise deviation {rel.max():.3f} >= 0.15: the probe/analytic ratio "
        "approaches 1/2 at resolved resonances"
    )


def test_criterion_7_qnm_linkage():
    start = time.perf_counter()
    nets = paper_networks()
    rho1, rho2 = PAPER_STATES
    ts = np.linspace(0.0, 500.0, 251)

    def witness(f):
        return blp_witness(ts, moving_average(f, DEFAULT_SMOOTH_WINDOW)).value

    f58 = qnm_trace(model_at(nets[1], 0.58), rho1, rho2, ts)
    f70 = qnm_trace(model_at(nets[1], 0.70), rho1, rho2, ts)
    n58 = witness(f58)
    n70 = witness(f70)
    flat70 = float(f70.max() - f70.min())

    ws = {}
    for w in (0.4, 0.75, 0.9):
        ws[w] = witness(qnm_trace(model_at(nets[4], w), rho1, rho2, ts))
    elapsed = time.perf_counter() - start

    ok = (
        n58 > n70
        and ws[0.75] > ws[0.4]
        and ws[0.75] > ws[0.9]
        and flat70 < 0.02
        and elapsed < 300.0
    )
    report(
        7,
        ok,
        f"net1 N(0.58)={n58:.4f} > N(0.7)={n70:.4f}; "
        f"WS N(0.75)={ws[0.75]:.4f} > N(0.4)={ws[0.4]:.4f}, N(0.9)={ws[0.9]:.4f}; "
        f"in-gap F variation {flat70:.4f}; {elapsed:.0f}s",
    )
    assert n58 > n70
    assert ws[0.75] > ws[0.4]
    assert ws[0.75] > ws[0.9]
    assert flat70 < 0.02
    assert elapsed < 300.0


def test_criterion_8_squeezing_robustness():
    net1 = paper_networks()[1]
    r0 = 0.5
    worst = 0.0
    for w in (0.27, 0.30, 0.33):
        model = model_at(net1, w)

        def j_at(r):
            db = -20.0 * r / np.log(10.0)
            j, _ = sweep_spectral_density(
                model, [w], 150.0, 1.0, probe_state=squeezed_state(SqueezedSpec(db, -db, "q"))
            )
            return j[0]

        j0 = j_at(r0)
        for factor in (0.8, 1.2):
            worst = max(worst, abs(j_at(factor * r0) - j0) / abs(j0))
    ok = worst < 0.10
    report(8, ok, f"+-20% preparation squeezing moves J by at most {worst:.4f} (need <0.10)")
    assert worst < 0.10


def test_criterion_9_sampling_emulator():
    M = 10_000
    v = 0.5
    state = vacuum_state()
    seeds = np.random.SeedSequence(13).spawn(20)
    estimates = [
        estimate_second_moment(homodyne_sample(state, "q", 0, M, ss))[0] for ss in seeds
    ]
    spread = float(np.std(estimates, ddof=1))
    law = v * np.sqrt(2.0 / M)
    dev = abs(spread - law) / law
    rerun = [
        estimate_second_moment(homodyne_sample(state, "q", 0, M, ss))[0]
        for ss in np.random.SeedSequence(13).spawn(20)
    ]
    reproducible = estimates == rerun
    ok = dev < 0.20 and reproducible
    report(
        9,
        ok,
        f"empirical std {spread:.5f} vs sqrt(2/M) law {law:.5f} (dev {dev:.3f}); "
        f"seeded rerun identical: {reproducible}",
    )
    assert dev < 0.20
    assert reproducible


def test_criterion_9_through_the_sweep_sampler():
    # the verbs draw through _sample_second_moments (one generator, the exact
    # law of the sample mean of x^2), not through homodyne_sample
    M = 10_000
    v = 0.5
    estimates = _sample_second_moments(0.0, v, M, 20, 13)
    spread = float(np.std(estimates, ddof=1))
    law = v * np.sqrt(2.0 / M)
    dev = abs(spread - law) / law
    reproducible = np.array_equal(estimates, _sample_second_moments(0.0, v, M, 20, 13))
    ok = dev < 0.20 and reproducible
    report(
        9,
        ok,
        f"_sample_second_moments: empirical std {spread:.5f} vs sqrt(2/M) law {law:.5f} "
        f"(dev {dev:.3f}); seeded rerun identical: {reproducible}",
    )
    assert len(estimates) == 20
    assert dev < 0.20
    assert reproducible


def test_criterion_10_tmax_heuristic():
    targets = {1: 150.0, 2: 150.0, 3: 150.0, 4: 90.0, 5: 250.0}
    got = {}
    for idx, graph in paper_networks().items():
        got[idx] = suggest_tmax(on.assemble_model(graph))
    devs = {i: abs(got[i] - targets[i]) / targets[i] for i in targets}
    ok = all(d <= 0.30 for d in devs.values())
    report(
        10,
        ok,
        "suggestions "
        + ", ".join(f"net{i}: {got[i]:.0f} (target {targets[i]:.0f})" for i in targets),
    )
    for i, d in devs.items():
        assert d <= 0.30, f"network {i}: {got[i]} vs {targets[i]}"
