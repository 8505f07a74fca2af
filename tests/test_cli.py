import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscnet
from oscnet.cli import (
    SCHEMA,
    EXIT_CONFIG,
    EXIT_SATURATED,
    EXIT_UNSTABLE,
    _build_graph,
    _fmt,
    _load_config,
    _omega_list,
    _parser,
    _resolve_tmax,
    bundled_config_path,
    main,
)
from oscnet.netmodel import load_graph, save_graph
from oscnet.probes import model_at
from oscnet.symplectic import SymplecticError


def run(args):
    return main(args)


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


class TestValidate:
    def test_network1_report(self, outdir, capsys):
        assert run(["validate", "--config", "network1.cfg", "--out", str(outdir)]) == 0
        report = (outdir / "validate.txt").read_text()
        assert "nodes = 16" in report
        assert "stable = true" in report
        # 16 positive environment eigenfrequencies
        freq_line = report.splitlines()[6]
        freqs = [float(x) for x in freq_line.split(",")]
        assert len(freqs) == 16
        assert all(f > 0 for f in freqs)

    def test_unstable_config_exit_code(self, tmp_path, outdir, capsys):
        cfg = {
            "network": {"kind": "linear-periodic", "n": 4, "pattern": [0.1], "omega0": 0.25},
            "probe": {"site": 1, "k": 0.5, "omega_s": 0.1},
            "protocol": "validate",
        }
        p = tmp_path / "bad.cfg"
        p.write_text(json.dumps(cfg))
        assert run(["validate", "--config", str(p), "--out", str(outdir)]) == EXIT_UNSTABLE
        assert "eigenvalue" in capsys.readouterr().err

    def test_network4_connected_and_100_edges(self, outdir):
        assert run(["validate", "--config", "network4.cfg", "--out", str(outdir)]) == 0
        report = (outdir / "validate.txt").read_text()
        assert "edges = 100" in report
        assert "connected = true" in report

    def test_missing_config_is_config_error(self, outdir, capsys):
        assert run(["validate", "--config", "nope.cfg", "--out", str(outdir)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cfg: {**cfg, "temprature": 5.0}, "temprature"),
            (lambda cfg: [cfg], "JSON object"),
            (
                lambda cfg: {**cfg, "time_grid": {"start": 0.0, "stop": 500.0, "pointz": 11}},
                "time_grid.pointz",
            ),
            (lambda cfg: {**cfg, "probe": {**cfg["probe"], "sitee": 3}}, "probe.sitee"),
            (
                lambda cfg: {
                    **cfg,
                    "probe": {**cfg["probe"], "sweep": {**cfg["probe"]["sweep"], "step": 0.1}},
                },
                "probe.sweep.step",
            ),
            (lambda cfg: {**cfg, "states": {"rho1": {}, "rho3": {}}}, "states.rho3"),
            (lambda cfg: {**cfg, "states": {"rho1": {}, "rho2": {"angle": 0.3}}}, "states.rho2.angle"),
            (lambda cfg: {**cfg, "time_grid": [0.0, 500.0, 251]}, "'time_grid' must be"),
            (lambda cfg: {**cfg, "bilinear_env": False}, "bilinear_env"),
            (lambda cfg: {**cfg, "t_max": -5}, "t_max must be"),
            (
                lambda cfg: {**cfg, "probe": {"sitee": 8, "k": 0.01}},
                "run config has unknown field(s): probe.sitee",
            ),
            (lambda cfg: {**cfg, "temperature": "1.0"}, "'temperature' must be a number"),
            (lambda cfg: {**cfg, "seed": 1.5}, "'seed' must be an integer"),
            (lambda cfg: {**cfg, "reps": True}, "'reps' must be an integer"),
            (lambda cfg: {**cfg, "t_max": None}, "'t_max' must be a number or a string"),
            (lambda cfg: {**cfg, "temperature": float("nan")}, "temperature must be finite"),
            (lambda cfg: {**cfg, "smooth_window": 50}, "smooth_window must be odd"),
            (lambda cfg: {**cfg, "method": "exact"}, "method must be"),
            (
                lambda cfg: {**cfg, "probe": {"k": 0.01, "omega_s": 0.45}},
                "run config is missing field 'probe.site'",
            ),
            (lambda cfg: {**cfg, "probe": {**cfg["probe"], "site": 8.0}}, "'probe.site' must be"),
            (lambda cfg: {**cfg, "probe": {**cfg["probe"], "omega_s": []}}, "'probe.omega_s'"),
            (
                lambda cfg: {**cfg, "states": {"rho1": {"squeeze_db": -1.8}, "rho2": {}}},
                "run config is missing field 'states.rho1.antisqueeze_db'",
            ),
            (
                lambda cfg: {**cfg, "states": {"rho1": {"squeeze_db": 1.0, "antisqueeze_db": 2.9}}},
                "states.rho1.squeeze_db must be <= 0",
            ),
            (lambda cfg: {**cfg, "network": {**cfg["network"], "pattern": [0.1, "0.05"]}}, "'pattern'"),
            (lambda cfg: {**cfg, "network": {**cfg["network"], "size": 3}}, "unknown field(s): size"),
            (
                lambda cfg: {k: v for k, v in cfg.items() if k != "network"},
                "run config is missing field 'network'",
            ),
        ],
        ids=[
            "unknown-key",
            "not-an-object",
            "time-grid-key",
            "probe-key",
            "sweep-key",
            "states-key",
            "state-key",
            "block-not-an-object",
            "removed-bilinear-env",
            "negative-t-max",
            "unknown-before-missing",
            "string-number",
            "fractional-integer",
            "bool-integer",
            "null",
            "nan",
            "even-window",
            "unknown-method",
            "missing-in-given-block",
            "float-site",
            "empty-omega-list",
            "missing-state-key",
            "squeeze-out-of-range",
            "recipe-field-type",
            "recipe-unknown-field",
            "no-network",
        ],
    )
    def test_malformed_config_is_config_error(self, tmp_path, outdir, capsys, edit, message):
        cfg = json.loads(bundled_config_path("network2.cfg").read_text())
        p = tmp_path / "bad.cfg"
        p.write_text(json.dumps(edit(cfg)))
        assert run(["validate", "--config", str(p), "--out", str(outdir)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (outdir / "manifest.json").exists()


class TestSpectral:
    def test_network1_both_methods_csv(self, outdir):
        assert (
            run(
                [
                    "spectral",
                    "--config",
                    "network1.cfg",
                    "--method",
                    "both",
                    "--out",
                    str(outdir),
                ]
            )
            == 0
        )
        lines = (outdir / "spectral.csv").read_text().splitlines()
        assert lines[0] == "omega_s,J_analytic,J_probe"
        assert len(lines) == 121  # 120 sweep points
        assert (outdir / "crosspath.txt").exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config"]["protocol"] == "spectral"
        assert manifest["overrides"] == {"method": "both", "out_dir": str(outdir)}

    @pytest.mark.parametrize(
        "options, header",
        [
            (["--method", "analytic"], "omega_s,J_analytic"),
            (["--method", "probe"], "omega_s,J_probe"),
            (["--method", "both"], "omega_s,J_analytic,J_probe"),
            (["--method", "probe", "--samples", "200", "--reps", "3"], "omega_s,J_probe,stderr"),
        ],
        ids=["analytic", "probe", "both", "sampled"],
    )
    def test_csv_columns_follow_the_method(self, outdir, options, header):
        args = ["spectral", "--config", "network1.cfg", "--points", "10", *options]
        assert run(args + ["--out", str(outdir)]) == 0
        lines = (outdir / "spectral.csv").read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 11  # 10 sweep points
        assert all(len(line.split(",")) == len(lines[0].split(",")) for line in lines)

    def test_cached_parser_leaks_no_flag_into_later_call(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        args = ["spectral", "--config", "network1.cfg", "--samples", "10", "--seed", "5"]
        # a short sweep: 10 samples saturate the probe somewhere on the full one
        args += ["--method", "both", "--points", "5", "--reps", "4"]
        assert run(args + ["--out", str(first)]) == 0
        assert len(json.loads((first / "manifest.json").read_text())["overrides"]) == 6
        assert run(["spectral", "--config", "network1.cfg", "--out", str(second)]) == 0
        assert _parser() is _parser()
        manifest = json.loads((second / "manifest.json").read_text())
        assert manifest["overrides"] == {"out_dir": str(second)}
        assert manifest["config"]["samples"] == 0
        assert manifest["config"]["probe"]["sweep"]["points"] == 120

    def test_seeded_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = [
            "spectral", "--config", "network1.cfg", "--method", "probe",
            "--points", "8", "--samples", "500", "--reps", "4", "--seed", "7",
        ]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert (out1 / "spectral.csv").read_bytes() == (out2 / "spectral.csv").read_bytes()

    @pytest.mark.parametrize("config", ["network1.cfg", "network5.cfg"])
    def test_sampled_sweep_scatters_about_the_exact_path(self, tmp_path, config):
        # the benchmark's sampled check: with 20 reps z = (J_sampled -
        # J_exact) / stderr is close to Student t, so the RMS of 12 values
        # sits near 1; a broken stream layout moves it out of [0.1, 3]
        args = ["spectral", "--config", config, "--method", "probe", "--points", "12"]
        assert run(args + ["--out", str(tmp_path / "exact")]) == 0
        _, j_exact = np.loadtxt(tmp_path / "exact" / "spectral.csv", delimiter=",", skiprows=1).T
        for seed in ("1", "2", "3"):
            out = tmp_path / seed
            sampled = ["--samples", "2000", "--reps", "20", "--seed", seed, "--out", str(out)]
            assert run(args + sampled) == 0
            _, j, stderr = np.loadtxt(out / "spectral.csv", delimiter=",", skiprows=1).T
            assert 0.1 <= np.sqrt(np.mean(((j - j_exact) / stderr) ** 2)) <= 3.0

    def test_empty_sweep_is_config_error(self, outdir, capsys):
        args = ["spectral", "--config", "network1.cfg", "--points", "0", "--out", str(outdir)]
        assert run(args) == EXIT_CONFIG
        assert "points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--samples", "1"], "samples"),
            (["--samples", "-5"], "samples"),
            (["--samples", "100", "--reps", "0"], "reps"),
        ],
        ids=["samples-1", "samples-negative", "reps-0"],
    )
    def test_bad_sampling_option_is_config_error(self, outdir, capsys, options, message):
        args = ["spectral", "--config", "network1.cfg", "--method", "probe", "--points", "2"]
        assert run(args + options + ["--out", str(outdir)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (outdir / "manifest.json").exists()

    def test_probe_saturation_exit_code(self, tmp_path, capsys):
        graph = {
            "nodes": 1,
            "omega0": 0.25,
            "edges": [],
            "probe": {"site": 1, "k": 0.001, "omega_s": 0.25},
        }
        (tmp_path / "one.json").write_text(json.dumps(graph))
        cfg = {
            "network": {"file": "one.json"},
            "probe": {"site": 1, "k": 0.001, "omega_s": 0.25},
            "protocol": "spectral",
            "method": "probe",
            "t_max": float(np.pi / 2 / (0.001 / 0.5)),  # full resonant swap
            "temperature": 1.0,
        }
        p = tmp_path / "sat.cfg"
        p.write_text(json.dumps(cfg))
        code = run(["spectral", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == EXIT_SATURATED
        assert "saturation" in capsys.readouterr().err

    def test_stability_is_checked_over_the_grid_only(self, tmp_path):
        # the probe attaches at probe.omega_s; at 0.01 V is not positive
        # definite, but the 0.2-0.7 sweep never runs there
        cfg = json.loads(bundled_config_path("network1.cfg").read_text())
        configs, csv = {}, {}
        for w in (0.01, 0.3):
            cfg["probe"]["omega_s"] = w
            configs[w] = tmp_path / f"net1_w{w}.cfg"
            configs[w].write_text(json.dumps(cfg))
            out = tmp_path / f"spectral_w{w}"
            assert run(["spectral", "--config", str(configs[w]), "--out", str(out)]) == 0
            csv[w] = (out / "spectral.csv").read_bytes()
        assert csv[0.01] == csv[0.3]
        args = ["qnm", "--config", str(configs[0.01]), "--out", str(tmp_path / "qnm")]
        assert run(args) == EXIT_UNSTABLE

    def test_auto_tmax_decomposes_the_environment_once(self, outdir, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            shapes.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        args = ["spectral", "--config", "network1.cfg", "--t-max", "auto", "--out", str(outdir)]
        assert run(args) == 0
        assert shapes == [(16, 16)]  # the environment block of the one model


class TestQnm:
    def test_network1_table_ordering(self, outdir, capsys):
        assert (
            run(
                [
                    "qnm", "--config", "network1.cfg", "--omega-s", "0.58,0.7",
                    "--out", str(outdir),
                ]
            )
            == 0
        )
        vals = {}
        for tag in ("0.58", "0.7"):
            text = (outdir / f"witness_w{tag}.txt").read_text()
            vals[tag] = float(text.splitlines()[1].split("=")[1])
            trace_lines = (outdir / f"qnm_w{tag}.csv").read_text().splitlines()
            assert trace_lines[0] == "t,F_raw,F_smooth"
            assert len(trace_lines) == 252  # 251 time points
        assert vals["0.58"] > vals["0.7"]

    def test_network4_table_ordering(self, outdir):
        assert (
            run(
                [
                    "qnm", "--config", "network4.cfg", "--omega-s", "0.4,0.75,0.9",
                    "--out", str(outdir),
                ]
            )
            == 0
        )
        vals = {}
        for tag in ("0.4", "0.75", "0.9"):
            text = (outdir / f"witness_w{tag}.txt").read_text()
            vals[tag] = float(text.splitlines()[1].split("=")[1])
        assert vals["0.75"] > vals["0.4"]
        assert vals["0.75"] > vals["0.9"]

    def test_zero_coupling_gives_zero_witness(self, tmp_path, outdir):
        cfg = {
            "network": {"kind": "linear-periodic", "n": 8, "pattern": [0.1], "omega0": 0.25},
            "probe": {"site": 1, "k": 0.0, "omega_s": 0.58},
            "protocol": "qnm",
        }
        p = tmp_path / "k0.cfg"
        p.write_text(json.dumps(cfg))
        assert run(["qnm", "--config", str(p), "--out", str(outdir)]) == 0
        text = (outdir / "witness_w0.58.txt").read_text()
        assert float(text.splitlines()[1].split("=")[1]) < 1e-10


class TestMasks:
    def test_time_zero_unit_mask(self, tmp_path, outdir):
        assert (
            run(
                [
                    "masks", "--config", "network1.cfg", "--omega-s", "0.58",
                    "--t-max", "0", "--out", str(outdir),
                ]
            )
            == 0
        )
        rows = np.loadtxt(outdir / "mask_q_w0.58_t0.csv", delimiter=",", skiprows=1)
        assert np.isclose(abs(rows[0, 1]), 1.0)
        assert np.allclose(rows[1:, 1:], 0.0, atol=1e-12)

    def test_mask_normalization(self, outdir):
        assert run(["masks", "--config", "network1.cfg", "--out", str(outdir)]) == 0
        q = np.loadtxt(outdir / "mask_q_w0.58_t150.csv", delimiter=",", skiprows=1)
        p = np.loadtxt(outdir / "mask_p_w0.58_t150.csv", delimiter=",", skiprows=1)
        for rows in (q, p):
            assert np.isclose(np.linalg.norm(rows[:, 1:]), 1.0, atol=1e-10)

    def test_golden_regression(self, outdir, request):
        assert run(["masks", "--config", "network1.cfg", "--out", str(outdir)]) == 0
        got = np.loadtxt(outdir / "mask_q_w0.58_t150.csv", delimiter=",", skiprows=1)
        golden = np.loadtxt(
            request.path.parent / "data" / "mask_net1_w0.58_t150.csv", delimiter=","
        )
        assert np.allclose(got, golden, atol=1e-12)

    def test_mask_bytes_match_per_number_format(self, outdir, net1):
        assert run(["masks", "--config", "network1.cfg", "--out", str(outdir)]) == 0
        pair = oscnet.probe_mask(oscnet.evolve(oscnet.assemble_model(net1), 150.0))
        n = pair.shape[1] // 2
        for row, quad in ((0, "q"), (1, "p")):
            lines = ["mode,q_coefficient,p_coefficient"] + [
                f"{m + 1},{_fmt(pair[row, m])},{_fmt(pair[row, n + m])}" for m in range(n)
            ]
            got = (outdir / f"mask_{quad}_w0.58_t150.csv").read_text()
            assert got == "\n".join(lines) + "\n"


    @pytest.mark.parametrize("idx", [4, 5])
    def test_mask_bytes_do_not_depend_on_blas_threads(self, tmp_path, idx):
        src = str(Path(oscnet.__file__).resolve().parents[1])
        files = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(
                os.environ,
                PYTHONPATH=src,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
            )
            argv = ["masks", "--config", f"network{idx}.cfg", "--out", str(out)]
            subprocess.run(
                [sys.executable, "-m", "oscnet.cli", *argv], env=env, capture_output=True, check=True
            )
            files.append({f.name: f.read_bytes() for f in sorted(out.glob("mask_*.csv"))})
        assert len(files[0]) == 2
        assert files[0] == files[1]


class TestEvolve:
    def test_matrix_dump_header_and_shape(self, outdir):
        assert (
            run(
                [
                    "evolve", "--config", "network1.cfg", "--omega-s", "0.58",
                    "--t-max", "150", "--out", str(outdir),
                ]
            )
            == 0
        )
        path = outdir / "evolution_w0.58_t150.txt"
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# dim=34 ordering=q_S,")
        mat = np.loadtxt(path)
        assert mat.shape == (34, 34)
        from oscnet.symplectic import symplectic_residual

        assert symplectic_residual(mat) < 1e-9

    @pytest.mark.parametrize("idx", [1, 2, 3, 4, 5])
    def test_matrix_bytes_match_per_number_format(self, outdir, idx):
        config = f"network{idx}.cfg"
        assert run(["evolve", "--config", config, "--out", str(outdir)]) == 0
        cfg, config_dir = _load_config(config)
        graph = _build_graph(cfg, config_dir)
        (w,) = _omega_list(cfg, graph)
        model = model_at(graph, w)
        t_max = _resolve_tmax(cfg, model)
        S = oscnet.evolve(model, t_max)
        n = S.shape[0] // 2
        expected = (
            f"# dim={2 * n} ordering=q_S,q_1..q_{n - 1},p_S,p_1..p_{n - 1} "
            f"t={_fmt(t_max)} omega_s={_fmt(w)}\n"
            + "\n".join(" ".join(_fmt(x) for x in row) for row in S)
            + "\n"
        )
        path = outdir / f"evolution_w{w:g}_t{t_max:g}.txt"
        assert path.read_text() == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectral", "--omega-s", "0.6,0.5"], "strictly increasing"),
        (["spectral", "--omega-s", "0.5,0.5"], "strictly increasing"),
        (["qnm", "--omega-s", "0.58,0.5800000001"], "file tag"),
        (["evolve", "--omega-s", "0.58,0.58", "--t-max", "10"], "file tag"),
        (["masks", "--omega-s", "0.7,0.58,0.70000001", "--t-max", "10"], "file tag"),
        (["spectral", "--t-max", "-5"], "t_max must be"),
        (["evolve", "--t-max", "-5"], "t_max must be"),
        (["spectral", "--t-max", "0"], "t_max must be"),
        (["spectral", "--t-max", "abc"], "t_max must be"),
        (["evolve", "--t-max", "abc"], "t_max must be"),
        (["spectral", "--t-max", "nan"], "t_max must be"),
        (["evolve", "--t-max", "nan"], "t_max must be"),
        (["masks", "--t-max", "inf"], "t_max must be"),
        (["qnm", "--omega-s", "0.58,abc"], "probe.omega_s"),
        (["qnm", "--omega-s", "nan"], "probe.omega_s must be finite"),
        (["spectral", "--omega-s", "0.5,nan"], "probe.omega_s must be finite"),
        (["spectral", "--method", "analytic", "--samples", "100"], 'samples > 0 needs method "'),
        (["spectral", "--points", "abc"], "'probe.sweep.points' must be an integer, got \"abc\""),
        (["spectral", "--method", "xyz"], 'method must be "analytic" or "probe" or "both"'),
        (["spectral", "--seed", "1.5"], "'seed' must be an integer, got \"1.5\""),
    ],
    ids=[
        "spectral-decreasing-omegas", "spectral-repeated-omega", "qnm-shared-tag",
        "evolve-shared-tag", "masks-shared-tag", "spectral-tmax-negative",
        "evolve-tmax-negative", "spectral-tmax-zero", "spectral-tmax-abc", "evolve-tmax-abc",
        "spectral-tmax-nan", "evolve-tmax-nan", "masks-tmax-inf", "qnm-omega-not-a-number",
        "qnm-omega-nan", "spectral-omega-nan", "spectral-analytic-samples",
        "spectral-points-abc", "spectral-method-xyz", "spectral-seed-fraction",
    ],
)
def test_bad_command_line_is_config_error(outdir, capsys, argv, message):
    assert run(argv + ["--config", "network1.cfg", "--out", str(outdir)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not outdir.exists() or not any(outdir.iterdir())


@pytest.mark.parametrize(
    "argv",
    [["qnm", "--t-max", "5"], ["validate", "--method", "probe"], ["masks", "--samples", "100"]],
    ids=["qnm-t-max", "validate-method", "masks-samples"],
)
def test_flag_the_verb_does_not_read_is_rejected(outdir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--config", "network1.cfg", "--out", str(outdir)])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (outdir / "manifest.json").exists()


def test_readme_command_lines_parse(request):
    readme = (request.path.parents[1] / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```bash\n")[1].split("```")[0]
    argvs = [line.split()[1:] for line in block.splitlines() if line.startswith("oscnet ")]
    assert {argv[0] for argv in argvs} == set(oscnet.cli.RUNNERS)
    for argv in argvs:
        _parser().parse_args(argv)


@pytest.mark.parametrize("config", ["network1.cfg", "network4.cfg"])
@pytest.mark.parametrize("verb", ["validate", "spectral", "qnm", "masks", "evolve"])
def test_manifest_is_one_json_line_with_sorted_keys(outdir, verb, config):
    assert run([verb, "--config", config, "--out", str(outdir)]) == 0
    data = (outdir / "manifest.json").read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == 1
    manifest = json.loads(data)
    assert sorted(manifest) == ["config", "graph", "overrides", "tool", "version"]
    assert (json.dumps(manifest, sort_keys=True) + "\n").encode() == data
    cfg, config_dir = _load_config(config)
    graph = manifest["graph"]
    assert save_graph(load_graph(graph)) == graph == save_graph(_build_graph(cfg, config_dir))


@pytest.mark.parametrize("config", ["network1.cfg", "network4.cfg"])
@pytest.mark.parametrize("verb", ["validate", "spectral", "qnm", "masks", "evolve"])
def test_each_verb_builds_its_graph_once(outdir, monkeypatch, verb, config):
    # network1.cfg builds from a recipe, network4.cfg loads a graph document;
    # the probe and every model's probe frequency attach without a rebuild
    built = []
    post_init = oscnet.CouplingGraph.__post_init__

    def counting_post_init(graph):
        built.append(graph)
        post_init(graph)

    monkeypatch.setattr(oscnet.CouplingGraph, "__post_init__", counting_post_init)
    assert run([verb, "--config", config, "--out", str(outdir)]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("flag, value", [("150", 150.0), ("auto", "auto"), ("0", 0.0)])
def test_valid_tmax_flag_recorded_as_before(outdir, flag, value):
    assert run(["evolve", "--config", "network1.cfg", "--t-max", flag, "--out", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["overrides"]["t_max"] == value
    assert manifest["config"]["t_max"] == value


@pytest.mark.parametrize("flag, value", [("0.58", 0.58), ("0.58,0.7", [0.58, 0.7])])
def test_omega_s_flag_recorded_as_a_number_or_a_list(outdir, flag, value):
    # one value is recorded as a number, not as a one-entry list
    assert run(["validate", "--config", "network1.cfg", "--omega-s", flag, "--out", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    for recorded in (manifest["overrides"]["omega_s"], manifest["config"]["probe"]["omega_s"]):
        assert recorded == value and type(recorded) is type(value)


def test_qnm_without_states_takes_the_paper_states(tmp_path):
    # the default rho1 and rho2 are the paper's, written out here rather than
    # read from SCHEMA so that a changed default shows
    paper = {
        "rho1": {"squeeze_db": -1.8, "antisqueeze_db": 2.9, "axis": "q"},
        "rho2": {"squeeze_db": -1.3, "antisqueeze_db": 2.4, "axis": "p"},
    }
    cfg = json.loads(bundled_config_path("network1.cfg").read_text())
    del cfg["states"]
    written = {}
    for name, states in (("default", None), ("paper", paper)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(json.dumps(cfg if states is None else {**cfg, "states": states}))
        out = tmp_path / name
        assert run(["qnm", "--config", str(path), "--out", str(out)]) == 0
        written[name] = {
            f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"
        }
    assert sorted(written["default"]) == ["qnm_w0.58.csv", "witness_w0.58.txt"]
    assert written["default"] == written["paper"]


def test_manifest_records_the_checked_config(tmp_path, monkeypatch):
    # the config the verb ran on: every top-level key, null where a key
    # without a default is unset, a number key as a float
    monkeypatch.setenv("OSCNET_OUT", str(tmp_path / "out"))
    cfg = json.loads(_net1(temperature=2))
    del cfg["t_max"]
    assert run(["validate", "--config", _write_config(tmp_path, cfg)]) == 0
    recorded = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    assert sorted(recorded) == sorted(k for k in SCHEMA if "." not in k)
    assert recorded["out_dir"] is None and recorded["t_max"] == "auto"
    assert recorded["temperature"] == 2.0 and type(recorded["temperature"]) is float


def test_each_run_fills_in_fresh_defaults(tmp_path, monkeypatch):
    # a run that changes its filled-in config leaves the next run's defaults
    # as they were
    seen = []

    def changing_runner(cfg, graph, out):
        seen.append(json.dumps(cfg["states"], sort_keys=True))
        cfg["states"]["rho1"]["squeeze_db"] = -9.0
        return 0

    monkeypatch.setitem(oscnet.cli.RUNNERS, "qnm", changing_runner)
    cfg = json.loads(_net1())
    del cfg["states"]
    path = _write_config(tmp_path, cfg)
    for _ in range(2):
        assert run(["qnm", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert seen[0] == seen[1] and '"squeeze_db": -1.8' in seen[0]


@pytest.mark.parametrize("window, code", [(1, 0), (2, EXIT_CONFIG)])
def test_smooth_window_one_is_the_raw_trace(tmp_path, outdir, window, code):
    path = _write_config(tmp_path, json.loads(_net1(smooth_window=window)))
    assert run(["qnm", "--config", path, "--out", str(outdir)]) == code
    if code == 0:
        # a one-point window is the raw trace
        table = np.loadtxt(outdir / "qnm_w0.58.csv", delimiter=",", skiprows=1)
        assert table.shape == (251, 3)
        assert np.array_equal(table[:, 2], table[:, 1])


def test_bundled_configs_exist_and_parse():
    for i in range(1, 6):
        path = bundled_config_path(f"network{i}.cfg")
        assert path.exists()
        cfg = json.loads(path.read_text())
        assert "network" in cfg and "probe" in cfg


def test_outdir_env_variable(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("OSCNET_OUT", str(target))
    assert run(["validate", "--config", "network1.cfg"]) == 0
    assert (target / "validate.txt").exists()


def test_cli_import_does_not_load_scipy():
    src = str(Path(oscnet.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import oscnet.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_sweep_without_significant_j_writes_crosspath_note(outdir):
    # J_analytic(0.2) is slightly negative on network 1, so no point has
    # J > 0.1 max and the deviation statistics have no support
    args = ["spectral", "--config", "network1.cfg", "--points", "1", "--out", str(outdir)]
    assert run(args) == 0
    assert "no such point" in (outdir / "crosspath.txt").read_text()


@pytest.mark.filterwarnings("error")
def test_one_point_sweep_reports_no_correlation(outdir, capsys):
    args = ["spectral", "--config", "network1.cfg", "--omega-s", "0.58", "--out", str(outdir)]
    assert run(args) == 0
    summary = (outdir / "crosspath.txt").read_text()
    assert summary.startswith("cross-path deviation (J > 0.1 max): median ")
    assert summary.endswith(", corr n/a (one point)\n")
    assert "nan" not in capsys.readouterr().out


def test_rerun_replaces_longer_stale_outputs(outdir):
    args = ["validate", "--config", "network1.cfg", "--out", str(outdir)]
    assert run(args) == 0
    names = ("manifest.json", "validate.txt")
    fresh = {name: (outdir / name).read_bytes() for name in names}
    for name in names:
        (outdir / name).write_bytes(b"stale\n" * len(fresh[name]))
    assert run(args) == 0
    assert {name: (outdir / name).read_bytes() for name in names} == fresh


def test_output_symlink_is_replaced_not_followed(tmp_path, outdir):
    target = tmp_path / "elsewhere.txt"
    target.write_text("kept\n")
    outdir.mkdir()
    (outdir / "validate.txt").symlink_to(target)
    assert run(["validate", "--config", "network1.cfg", "--out", str(outdir)]) == 0
    assert not (outdir / "validate.txt").is_symlink()
    assert (outdir / "validate.txt").read_text().startswith("nodes = ")
    assert target.read_text() == "kept\n"


def test_outdir_that_is_a_file_is_config_error(tmp_path, capsys):
    target = tmp_path / "afile"
    target.write_text("keep")
    assert run(["validate", "--config", "network1.cfg", "--out", str(target)]) == EXIT_CONFIG
    assert "output directory" in capsys.readouterr().err
    assert target.read_text() == "keep"


def test_tmax_beyond_the_chebyshev_range_is_config_error(outdir, capsys):
    # t sqrt(b) = 4e5 sqrt(0.5) = 2.8e5 on network 1
    args = ["spectral", "--config", "network1.cfg", "--t-max", "400000", "--points", "3"]
    assert run(args + ["--out", str(outdir)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: t_max 400000 ")
    assert "<= 2.6e5" in err
    assert not (outdir / "manifest.json").exists()


def test_broken_probe_rows_are_not_a_config_error(monkeypatch, outdir):
    # rows scaled by 1.001 break q_row . Omega . p_row^T = 1 by about 2e-3
    kernel = oscnet.dynamics._chebyshev_rows
    monkeypatch.setattr(oscnet.dynamics, "_chebyshev_rows", lambda *a: 1.001 * kernel(*a))
    with pytest.raises(SymplecticError):
        run(["spectral", "--config", "network1.cfg", "--points", "3", "--out", str(outdir)])


def _write_config(tmp_path, cfg):
    p = tmp_path / "run.cfg"
    p.write_text(json.dumps(cfg))
    return str(p)


RHO1 = {"squeeze_db": -1.8, "antisqueeze_db": 2.9}


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            {"states": {"rho1": RHO1, "rho2": {"squeeze_db": -3.0, "antisqueeze_db": 1.0}}},
            "states.rho2: variance product",
        ),
        (
            {"time_grid": {"start": 10.0, "stop": 5.0, "points": 3}},
            "time_grid must give strictly increasing",
        ),
    ],
    ids=["state-below-uncertainty", "decreasing-time-grid"],
)
def test_qnm_rule_across_keys_is_config_error(tmp_path, outdir, capsys, edit, message):
    cfg = {**json.loads(bundled_config_path("network1.cfg").read_text()), **edit}
    assert run(["qnm", "--config", _write_config(tmp_path, cfg), "--out", str(outdir)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (outdir / "manifest.json").exists()


def _net1(**edit):
    return json.dumps({**json.loads(bundled_config_path("network1.cfg").read_text()), **edit})


NET1_PROBE = {"site": 8, "k": 0.01}
NET1_SWEEP = {"start": 0.2, "stop": 0.7, "points": 120}


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["validate"], '{"network": {"kind": "explicit",', "config is not valid JSON"),
        (
            ["validate"],
            _net1(network={"file": "network4.json", "n": 3}),
            "a network block with 'file' holds only that path string",
        ),
        (["validate"], _net1(network={"file": "absent.json"}), "graph document not found"),
        (
            ["validate"],
            _net1(network={"kind": "explicit", "n": 2, "omega0": 0.25, "edges": [[1, 2, 0.1]]}),
            "unknown recipe kind: 'explicit'; one of linear-periodic, watts-strogatz, "
            "barabasi-albert",
        ),
        *(
            ([verb], _net1(probe=NET1_PROBE), "a probe block needs 'omega_s' or 'sweep'")
            for verb in ("validate", "spectral", "qnm", "masks", "evolve")
        ),
        *(
            (
                [verb],
                _net1(probe={**NET1_PROBE, "sweep": NET1_SWEEP}),
                "this protocol needs 'probe.omega_s'",
            )
            for verb in ("qnm", "masks", "evolve")
        ),
        (
            ["spectral", "--points", "5"],
            _net1(probe={**NET1_PROBE, "omega_s": 0.58}),
            "--points needs a sweep block in the config",
        ),
    ],
    ids=[
        "not-json", "file-block-extra-key", "missing-document", "explicit-recipe",
        "validate-no-frequency", "spectral-no-frequency", "qnm-no-frequency",
        "masks-no-frequency", "evolve-no-frequency", "qnm-no-omega", "masks-no-omega",
        "evolve-no-omega", "points-no-sweep",
    ],
)
def test_config_errors_before_any_output(tmp_path, outdir, capsys, argv, config, message):
    p = tmp_path / "run.cfg"
    p.write_text(config)
    assert run([*argv, "--config", str(p), "--out", str(outdir)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (outdir / "manifest.json").exists()


@pytest.mark.parametrize("verb", ["validate", "spectral", "qnm", "masks", "evolve"])
def test_an_inline_graph_document_runs_as_its_file(tmp_path, verb):
    # network4.cfg names network4.json; that document given inline as the
    # network block writes the same bytes in every file but the manifest,
    # whose graph is the same
    cfg = json.loads(bundled_config_path("network4.cfg").read_text())
    cfg["network"] = json.loads(bundled_config_path("network4.json").read_text())
    written, graphs = {}, {}
    for name, config in (("file", "network4.cfg"), ("inline", _write_config(tmp_path, cfg))):
        out = tmp_path / name
        assert run([verb, "--config", config, "--out", str(out)]) == 0
        written[name] = {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"}
        graphs[name] = json.loads((out / "manifest.json").read_text())["graph"]
    assert written["file"] and written["inline"] == written["file"]
    assert graphs["inline"] == graphs["file"]


@pytest.mark.parametrize("verb", ["validate", "spectral", "qnm", "masks", "evolve"])
def test_a_documents_own_probe_serves_every_verb(tmp_path, verb):
    # network4.json carries probe site 1, k 0.02 and omega_s 0.75: given
    # inline with no probe block, each verb writes the bytes of network4.cfg
    # at omega_s 0.75 in every file but the manifest
    doc = json.loads(bundled_config_path("network4.json").read_text())
    assert doc["probe"] == {"site": 1, "k": 0.02, "omega_s": 0.75}
    cfg = json.loads(bundled_config_path("network4.cfg").read_text())
    del cfg["probe"]
    cfg["network"] = doc
    at_075 = ["--omega-s", "0.75"] if verb == "spectral" else []
    written = {}
    for name, argv in (
        ("file", ["--config", "network4.cfg", *at_075]),
        ("inline", ["--config", _write_config(tmp_path, cfg)]),
    ):
        out = tmp_path / name
        assert run([verb, *argv, "--out", str(out)]) == 0
        written[name] = {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"}
    assert written["file"] and written["inline"] == written["file"]


def test_an_inline_document_brings_its_own_probe(tmp_path, outdir):
    probe = {"site": 1, "k": 0.01, "omega_s": 0.3}
    doc = {"nodes": 2, "omega0": 0.25, "edges": [[1, 2, 0.1]], "probe": probe}
    assert run(["validate", "--config", _write_config(tmp_path, {"network": doc}),
                "--out", str(outdir)]) == 0
    assert json.loads((outdir / "manifest.json").read_text())["graph"]["probe"] == probe


def test_graph_document_errors_are_config_errors(tmp_path, outdir, capsys):
    (tmp_path / "g.json").write_text('{"nodes": 2, "omega0": 0.25,')
    cfg = {"network": {"file": "g.json"}, "probe": {"site": 1, "k": 0.01, "omega_s": 0.5}}
    argv = ["validate", "--config", _write_config(tmp_path, cfg), "--out", str(outdir)]
    assert run(argv) == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err


def test_private_key_in_config_is_unknown(tmp_path, outdir, capsys):
    cfg = {**json.loads(bundled_config_path("network1.cfg").read_text()), "_config_dir": "/"}
    argv = ["validate", "--config", _write_config(tmp_path, cfg), "--out", str(outdir)]
    assert run(argv) == EXIT_CONFIG
    assert "run config has unknown field(s): _config_dir" in capsys.readouterr().err


def test_exit_codes_are_the_documented_numbers():
    # scripts test the numbers of the module docstring and README, not the
    # names; the tests above compare against the names
    assert (EXIT_CONFIG, EXIT_UNSTABLE, EXIT_SATURATED) == (2, 3, 4)


def test_internal_key_error_is_not_a_config_error(monkeypatch, outdir):
    def broken(cfg, graph, out):
        raise KeyError("internal")

    monkeypatch.setitem(oscnet.cli.RUNNERS, "validate", broken)
    with pytest.raises(KeyError):
        run(["validate", "--config", "network1.cfg", "--out", str(outdir)])


# bounded JSON values for the single-key mutations; huge integers are left
# out, since a size such as "n": 1e300 is not bounded by the schema
MUTATION_VALUES = [
    None, True, False, 0, 1, -1, 2, 3, 0.5, -0.5, 1.5, 7, 100, "", "x", "auto", "q",
    float("nan"), float("inf"), float("-inf"), [], [0.5], [1, 2], {}, {"x": 1},
]
_DELETE = object()


def _key_paths(block, prefix=()):
    for key, value in block.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def test_main_never_raises_on_a_single_key_mutation(tmp_path):
    base = json.loads(bundled_config_path("network1.cfg").read_text())
    base["probe"]["sweep"]["points"] = 3
    base["time_grid"]["points"] = 5
    verbs = ("validate", "spectral", "qnm", "masks")
    run_id = 0
    for path in _key_paths(base):
        for value in MUTATION_VALUES + [_DELETE]:
            cfg = json.loads(json.dumps(base))
            block = cfg
            for key in path[:-1]:
                block = block[key]
            if value is _DELETE:
                del block[path[-1]]
            else:
                block[path[-1]] = value
            # every (key, value) pair runs once, the verbs in turn
            verb = verbs[run_id % len(verbs)]
            argv = [verb, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / str(run_id))]
            try:
                code = run(argv)
            except Exception as exc:  # the assertion names the mutation
                raise AssertionError(f"{verb} with {'.'.join(path)} = {value!r} raised {exc!r}") from exc
            assert code in (0, EXIT_CONFIG, EXIT_UNSTABLE, EXIT_SATURATED)
            run_id += 1


def test_readme_config_table_lists_the_schema_keys(request):
    readme = (request.path.parents[1] / "README.md").read_text()
    table = readme.split("| key | type | default | range | read by |")[1].split("\n\n")[0]
    keys = [line.split("`")[1] for line in table.splitlines() if line.startswith("| `")]
    assert sorted(keys) == sorted(SCHEMA)
    assert len(keys) == len(set(keys))
