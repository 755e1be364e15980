import importlib.util
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from tfqkd.cli import CSV_HEADER, ConfigError, load_config, main, parse_config
from tfqkd.simplex import load_lp, solve_max

SCHEMA_DIR = Path(__file__).parent.parent / "src" / "tfqkd" / "schemas"


def base_config(**overrides):
    cfg = {
        "channel": {"e_m": 0.03, "p_d": 1e-8, "xi": 0.2, "eta_d": 0.3, "f_ec": 1.1},
        "n_phases": 2,
        "n_total": 1e10,
        "budget": {"eps_total_pe": 4e-20, "eps_cor": 1e-10, "eps_pa": 1.6566e-10},
        "distances": [40.0, 60.0],
        "protocol": {"mu": 0.05, "nu": 0.1, "p_mu": 0.6, "p_nu": 0.3},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigParsing:
    def test_happy_path(self):
        cfg = parse_config(base_config())
        assert cfg.n_phases == 2
        assert cfg.protocol.p_o == pytest.approx(0.1)
        assert cfg.budget.eps_total_pe == 4e-20

    def test_missing_field_reports_path(self):
        data = base_config()
        del data["channel"]["e_m"]
        with pytest.raises(ConfigError, match="channel.e_m"):
            parse_config(data)

    def test_bad_budget_combination(self):
        data = base_config()
        data["budget"]["eps_a"] = 1e-22
        with pytest.raises(ConfigError, match="budget"):
            parse_config(data)

    def test_empty_distances(self):
        with pytest.raises(ConfigError, match="distances"):
            parse_config(base_config(distances=[]))

    def test_distance_range_spec(self):
        cfg = parse_config(base_config(distances={"start": 10, "stop": 30, "step": 10}))
        assert cfg.distances == [10.0, 20.0, 30.0]

    def test_fractional_step_range_is_not_accumulated(self):
        cfg = parse_config(base_config(distances={"start": 10, "stop": 480, "step": 0.1}))
        assert len(cfg.distances) == 4701
        assert all(d == 10.0 + i * 0.1 for i, d in enumerate(cfg.distances))

    def test_unsorted_distances(self):
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(base_config(distances=[30.0, 10.0]))

    def test_protocol_required_without_optimize(self):
        data = base_config()
        del data["protocol"]
        with pytest.raises(ConfigError, match="protocol"):
            parse_config(data)

    def test_optimize_without_protocol_ok(self):
        data = base_config(optimize=True)
        del data["protocol"]
        cfg = parse_config(data)
        assert cfg.optimize and cfg.protocol is None

    def test_search_overrides(self):
        data = base_config(
            optimize=True,
            search={"mu_range": [0.01, 0.2], "grid_density": 3, "refinement_rounds": 1},
        )
        cfg = parse_config(data)
        assert cfg.search.mu_range == (0.01, 0.2)
        assert cfg.search.grid_density == 3

    def test_config_schema_accepts_base(self):
        schema = json.loads((SCHEMA_DIR / "config.schema.json").read_text())
        jsonschema.validate(base_config(), schema)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 10**400])
    @pytest.mark.parametrize(
        "field, place",
        [
            ("n_total", lambda cfg, v: cfg.update(n_total=v)),
            ("seed", lambda cfg, v: cfg.update(seed=v)),
            ("threads", lambda cfg, v: cfg.update(threads=v)),
            ("distances[1]", lambda cfg, v: cfg.update(distances=[40.0, v])),
            (
                "distances.stop",
                lambda cfg, v: cfg.update(distances={"start": 0, "stop": v, "step": 1}),
            ),
            ("channel.xi", lambda cfg, v: cfg["channel"].update(xi=v)),
            ("protocol.mu", lambda cfg, v: cfg["protocol"].update(mu=v)),
        ],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, field, place, value):
        # json.dumps writes NaN / Infinity / -Infinity, which json.load
        # accepts, and an integer too large for a float.
        cfg = base_config()
        place(cfg, value)
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
        assert f"{field}: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestAnalyzeCommand:
    def test_single_distance_run(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(distances=[50.0]))
        out = tmp_path / "out.csv"
        rc = main(["analyze", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[0]) == 50.0
        assert row[-1] == "ok"
        # every float field round-trips exactly through 17 significant digits
        for v in row[:-1]:
            assert format(float(v), ".17g") == v

    def test_analyze_requires_single_distance(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        rc = main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_distance_flag_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out.csv"
        rc = main(["analyze", "--config", cfg_path, "--out", str(out), "--distance", "45"])
        assert rc == 0
        assert out.read_text().splitlines()[1].startswith("45,")

    def test_missing_config_is_config_error(self, tmp_path):
        rc = main(["analyze", "--config", str(tmp_path / "nope.json"), "--out", "x.csv"])
        assert rc == 2

    def test_bad_output_directory(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(distances=[50.0]))
        rc = main(
            ["analyze", "--config", cfg_path, "--out", str(tmp_path / "no_dir" / "o.csv")]
        )
        assert rc == 2


class TestThreadPrecedence:
    """--threads beats TFQKD_THREADS, which beats the config value."""

    @pytest.mark.parametrize(
        "env, flag, expected",
        [(None, None, 2), ("1", None, 1), ("3", None, 3), ("1", "4", 4), (None, "1", 1)],
    )
    def test_worker_count_reaching_sweep(self, tmp_path, monkeypatch, env, flag, expected):
        import tfqkd.cli

        seen = []

        def fake_sweep(*args, threads, **kwargs):
            seen.append(threads)
            raise RuntimeError("stop after recording the worker count")

        monkeypatch.setattr(tfqkd.cli, "sweep", fake_sweep)
        if env is None:
            monkeypatch.delenv("TFQKD_THREADS", raising=False)
        else:
            monkeypatch.setenv("TFQKD_THREADS", env)
        cfg = base_config(optimize=True, threads=2)
        argv = ["sweep", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o.csv")]
        if flag is not None:
            argv += ["--threads", flag]
        assert main(argv) == 3
        assert seen == [expected]


class TestSweepCommand:
    def test_sweep_writes_row_per_distance(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert [ln.split(",")[0] for ln in lines[1:]] == ["40", "60"]

    def test_csv_deterministic_expected_mode(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", cfg_path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_csv_deterministic_sampled_mode(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(mode="sampled", seed=31337))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", cfg_path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(mode="sampled", seed=1))
        out_flag = tmp_path / "flag.csv"
        out_cfg = tmp_path / "cfg.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out_flag), "--seed", "2"]) == 0
        assert main(["sweep", "--config", cfg_path, "--out", str(out_cfg)]) == 0
        assert out_flag.read_bytes() != out_cfg.read_bytes()
        cfg2_path = write_config(tmp_path, base_config(mode="sampled", seed=2), "run2.json")
        out_same = tmp_path / "same.csv"
        assert main(["sweep", "--config", cfg2_path, "--out", str(out_same)]) == 0
        assert out_flag.read_bytes() == out_same.read_bytes()

    def test_sidecar_validates_against_shipped_schema(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(mode="sampled", seed=5))
        out = tmp_path / "run.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "run.json").read_text())
        schema = json.loads((SCHEMA_DIR / "report.schema.json").read_text())
        jsonschema.validate(sidecar, schema)
        assert len(sidecar["results"]) == 2

    def test_optimized_sweep_runs(self, tmp_path):
        cfg = base_config(
            n_phases=8,
            distances=[40.0],
            optimize=True,
            search={
                "mu_range": [0.02, 0.1],
                "nu_range": [0.02, 0.2],
                "p_mu_range": [0.3, 0.8],
                "p_nu_range": [0.05, 0.3],
                "grid_density": 3,
                "refinement_rounds": 1,
            },
        )
        del cfg["protocol"]
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "opt.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[10]) > 0.0  # key_rate column


TINY_SEARCH = {
    "mu_range": [0.02, 0.1],
    "nu_range": [0.02, 0.2],
    "p_mu_range": [0.3, 0.8],
    "p_nu_range": [0.05, 0.3],
    "grid_density": 3,
    "refinement_rounds": 1,
}


class TestDumpLpCommand:
    def test_m2_dump_structure(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "lp.txt"
        rc = main(["dump-lp", "--config", cfg_path, "--out", str(out), "--distance", "50"])
        assert rc == 0
        lp = load_lp(out)
        assert lp.num_vars == 4
        assert lp.a_ub.shape == (8, 4)

    def test_m8_round_trip_lossless(self, tmp_path, channel, budget_m8):
        from tfqkd import ProtocolParams, build_lp, expected_observations

        cfg = base_config(n_phases=8, n_total=1e12, distances=[100.0])
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "lp8.txt"
        rc = main(["dump-lp", "--config", cfg_path, "--out", str(out), "--distance", "100"])
        assert rc == 0
        parsed = load_lp(out)
        # mirror the CLI's own protocol construction (p_o as the remainder)
        proto = ProtocolParams.make(0.05, 0.1, 0.6, 0.3, 8, int(1e12))
        direct = build_lp(
            proto, expected_observations(proto, channel, 100.0), budget_m8
        )
        assert parsed.num_vars == 16
        np.testing.assert_array_equal(parsed.a_ub, direct.a_ub)
        np.testing.assert_array_equal(parsed.b_ub, direct.b_ub)
        np.testing.assert_array_equal(parsed.upper, direct.upper)

    # With optimize on, a config that also gives a protocol is analyzed at
    # the optimizer's winner, not at that protocol.
    @pytest.mark.parametrize("optimize", [False, True])
    def test_sampled_dump_is_the_analyzed_lp(self, tmp_path, optimize):
        cfg = base_config(n_phases=8, n_total=1e12, distances=[100.0], mode="sampled", seed=7)
        if optimize:
            cfg.update(optimize=True, search=TINY_SEARCH)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "a.csv")]) == 0
        out = tmp_path / "lp.txt"
        rc = main(["dump-lp", "--config", cfg_path, "--out", str(out), "--distance", "100"])
        assert rc == 0
        entry = json.loads((tmp_path / "a.json").read_text())["results"][0]
        lp = load_lp(out)
        sol = solve_max(lp)
        assert entry["status"] == "ok" and sol.status == "optimal"
        assert max(0.0, sol.objective_value * lp.scale) == entry["n_ph_upper"]

    def test_malformed_output_path(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        rc = main(
            ["dump-lp", "--config", cfg_path, "--out", str(tmp_path / "nope" / "lp.txt"),
             "--distance", "50"]
        )
        assert rc == 2


def load_rate_distance_script():
    path = Path(__file__).parent.parent / "scripts" / "rate_distance.py"
    spec = importlib.util.spec_from_file_location("rate_distance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRateDistanceScript:
    @pytest.mark.parametrize("rc, sweeps", [(0, 2), (3, 1)])
    def test_config_files_are_removed(self, tmp_path, monkeypatch, rc, sweeps):
        script = load_rate_distance_script()
        configs = []

        def fake_tfqkd_main(argv):
            path = Path(argv[argv.index("--config") + 1])
            assert json.loads(path.read_text())["optimize"] is True
            configs.append(path)
            return rc

        monkeypatch.setattr(script, "tfqkd_main", fake_tfqkd_main)
        assert script.main(["--out-dir", str(tmp_path), "--n-total", "1e12", "1e13"]) == rc
        assert len(configs) == sweeps
        assert not any(path.exists() for path in configs)
