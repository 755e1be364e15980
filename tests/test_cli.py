import importlib.util
import json
import math
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfqkd import ChannelParams, end_to_end_plob
from tfqkd.cli import CSV_HEADER, ConfigError, load_config, main, parse_config
from tfqkd.simplex import load_lp, solve_max

ROOT = Path(__file__).parent.parent
SCHEMA_DIR = ROOT / "src" / "tfqkd" / "schemas"
GOLDEN = Path(__file__).parent / "golden"
CONFIG_SCHEMA = json.loads((SCHEMA_DIR / "config.schema.json").read_text())


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


TINY_SEARCH = {
    "mu_range": [0.02, 0.1],
    "nu_range": [0.02, 0.2],
    "p_mu_range": [0.3, 0.8],
    "p_nu_range": [0.05, 0.3],
    "grid_density": 3,
    "refinement_rounds": 1,
}


def full_config(budget_key="eps_total_pe"):
    """A config that sets every field the schema lists, with one of the
    two alternative budget keys."""
    budget = {"eps_cor": 1e-10, "eps_pa": 1.6566e-10}
    budget[budget_key] = {"eps_total_pe": 4e-20, "eps_a": 1e-22}[budget_key]
    return base_config(
        budget=budget,
        distances={"start": 40, "stop": 60, "step": 20},
        mode="sampled",
        seed=3,
        optimize=True,
        search=dict(TINY_SEARCH),
        detector_in_eta=False,
        plob_includes_detector=True,
        output="curve.csv",
        threads=2,
    )


# The config's object levels: top, the nested objects, the distance range.
LEVELS = ("", "channel", "budget", "protocol", "search", "distances")


def at_level(cfg, level):
    return cfg if level == "" else cfg[level]


def schema_fields(level):
    props = CONFIG_SCHEMA["properties"]
    if level == "":
        return props
    if level == "distances":
        return props["distances"]["oneOf"][1]["properties"]
    return props[level]["properties"]


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def assert_config_error(tmp_path, capsys, cfg, message):
    """`tfqkd sweep` on cfg exits 2 with `message` and writes nothing."""
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".json").exists()


class TestConfigParsing:
    def test_happy_path(self):
        cfg = parse_config(base_config())
        assert cfg.budget.n_phases == 2
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
        jsonschema.validate(base_config(), CONFIG_SCHEMA)

    @pytest.mark.parametrize("budget_key", ["eps_total_pe", "eps_a"])
    def test_every_schema_field_is_parsed(self, budget_key):
        cfg = full_config(budget_key)
        other = {"eps_a", "eps_total_pe"} - {budget_key}
        for level in LEVELS:
            extra = other if level == "budget" else set()
            assert set(at_level(cfg, level)) | extra == set(schema_fields(level)), level
        jsonschema.validate(cfg, CONFIG_SCHEMA)
        parsed = parse_config(cfg)
        assert parsed.distances == [40.0, 60.0]
        assert (parsed.mode, parsed.seed, parsed.threads, parsed.output) == (
            "sampled", 3, 2, "curve.csv"
        )
        assert parsed.optimize and not parsed.detector_in_eta and parsed.plob_includes_detector
        assert parsed.search.nu_range == (0.02, 0.2) and parsed.search.refinement_rounds == 1
        assert parsed.protocol.p_nu == 0.3
        assert getattr(parsed.budget, budget_key) == cfg["budget"][budget_key]

    @pytest.mark.parametrize(
        "level, key, value",
        [
            ("", "Mode", "sampled"),
            ("", "seeds", 5),
            ("", "detector_in_Eta", False),
            ("channel", "eta", 0.3),
            ("budget", "eps_sec", 1e-9),
            ("protocol", "p_o", 0.1),
            ("search", "grid", 3),
            ("distances", "end", 60),
        ],
    )
    def test_unknown_field_is_config_error(self, tmp_path, capsys, level, key, value):
        cfg = full_config()
        at_level(cfg, level)[key] = value
        assert key not in schema_fields(level)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(cfg, CONFIG_SCHEMA)
        path = f"{level}.{key}" if level else key
        assert_config_error(tmp_path, capsys, cfg, f"{path}: unknown field")

    @pytest.mark.parametrize(
        "field, value, optimize, message",
        [
            ("seed", -1, False, "must be >= 0"),
            ("n_total", 0, True, "must be >= 1"),
            ("n_total", -5, True, "must be >= 1"),
            ("n_total", 0, False, "must be >= 1"),
            ("n_total", 1e10 + 0.5, False, "expected an integer"),
            ("threads", 0, False, "must be >= 1"),
        ],
        ids=["seed-1", "n_total0-opt", "n_total-5-opt", "n_total0", "n_total-fraction", "threads0"],
    )
    def test_value_outside_schema_is_config_error(
        self, tmp_path, capsys, field, value, optimize, message
    ):
        cfg = base_config(optimize=optimize, **{field: value})
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(cfg, CONFIG_SCHEMA)
        assert_config_error(tmp_path, capsys, cfg, f"{field}: {message}")

    def test_shipped_configs_parse_and_validate(self):
        script = load_rate_distance_script()
        table1 = json.loads(
            (Path(__file__).parent.parent / "scripts" / "configs" / "table1_sweep.json").read_text()
        )
        for cfg in (table1, script.build_config(1e12, 10.0, 480.0, 10.0, 2)):
            jsonschema.validate(cfg, CONFIG_SCHEMA)
            assert parse_config(cfg).optimize

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

    @pytest.mark.parametrize("command", ["analyze", "dump-lp"])
    @pytest.mark.parametrize(
        "distance, message",
        [
            ("-5", "distances: must be >= 0"),
            ("nan", "distances[0]: expected a finite number"),
            ("inf", "distances[0]: expected a finite number"),
        ],
    )
    def test_bad_distance_flag_is_config_error(self, tmp_path, capsys, command, distance, message):
        cfg_path = write_config(tmp_path, base_config(distances=[50.0]))
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg_path, "--out", str(out), f"--distance={distance}"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_is_config_error(self, tmp_path):
        rc = main(["analyze", "--config", str(tmp_path / "nope.json"), "--out", "x.csv"])
        assert rc == 2

    def test_bad_output_directory(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(distances=[50.0]))
        rc = main(
            ["analyze", "--config", cfg_path, "--out", str(tmp_path / "no_dir" / "o.csv")]
        )
        assert rc == 2


class TestOutputPaths:
    """Every path a command writes is checked before any work: one that
    would overwrite the config, another output of the run or a directory
    is a config error, and nothing is written."""

    @pytest.mark.parametrize(
        "command, out, extra",
        [
            ("analyze", "cfg.csv", ["--distance", "40"]),
            ("sweep", "cfg.json", []),
            ("dump-lp", "cfg.json", ["--distance", "40"]),
            ("sweep", "out.json", []),
            ("sweep", "dir.csv", []),
            ("sweep", "link.csv", []),
        ],
        ids=[
            "sidecar-is-config", "csv-is-config", "lp-is-config", "sidecar-is-csv",
            "sidecar-is-directory", "sidecar-links-to-config",
        ],
    )
    def test_rejected_before_writing(self, tmp_path, capsys, command, out, extra):
        cfg_path = write_config(tmp_path, base_config(), "cfg.json")
        (tmp_path / "dir.json").mkdir()
        (tmp_path / "link.json").symlink_to(cfg_path)
        before = sorted(tmp_path.iterdir())
        config_bytes = Path(cfg_path).read_bytes()
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / out), *extra]) == 2
        assert "config error: output: " in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before
        assert Path(cfg_path).read_bytes() == config_bytes


class TestThreadPrecedence:
    """--threads beats the config value. The environment takes no part: the
    same argv reaches sweep with the same worker count whatever
    TFQKD_THREADS holds."""

    @pytest.fixture
    def seen(self, monkeypatch):
        import tfqkd.cli

        seen = []

        def fake_sweep(*args, threads, **kwargs):
            seen.append(threads)
            raise RuntimeError("stop after recording the worker count")

        monkeypatch.setattr(tfqkd.cli, "sweep", fake_sweep)
        return seen

    @pytest.mark.parametrize(
        "env, flag, expected",
        [
            (None, None, 2), ("", None, 2), ("1", None, 2), ("3", None, 2), ("1", "4", 4),
            (None, "1", 1), ("abc", "4", 4),
        ],
    )
    def test_worker_count_reaching_sweep(self, tmp_path, monkeypatch, seen, env, flag, expected):
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

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(mode="sampled"))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out), "--seed", "-1"]) == 2
        assert "seed: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_sidecar_validates_against_shipped_schema(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(mode="sampled", seed=5), "sampled.json")
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

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("flag", [False, True])
    def test_plob_column_follows_flag(self, tmp_path, optimize, flag):
        cfg = base_config(distances=[0.0, 40.0], plob_includes_detector=flag)
        if optimize:
            cfg.update(optimize=True, search=dict(TINY_SEARCH, refinement_rounds=0))
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "plob.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        results = json.loads((tmp_path / "plob.json").read_text())["results"]
        channel = ChannelParams(**cfg["channel"])
        want = [end_to_end_plob(channel, l_km, include_detector=flag) for l_km in (0.0, 40.0)]
        assert [float(row[11]) for row in rows] == want  # plob_rate column
        assert [r["plob_rate"] for r in results] == [None if math.isinf(w) else w for w in want]
        # The bound is infinite, so null, only at 0 km without the detector.
        assert (results[0]["plob_rate"] is None) == (not flag)

    def test_singular_simplex_basis_sweep(self, tmp_path):
        # The warm-started winner at 276 km gives a lone LP on which the
        # simplex basis turns singular.
        cfg = {
            "channel": {"e_m": 0.2573, "p_d": 0.0, "xi": 0.2, "eta_d": 0.001, "f_ec": 1.1},
            "n_phases": 64,
            "n_total": 1266231868171568,
            "budget": {"eps_total_pe": 4e-20, "eps_cor": 1e-10, "eps_pa": 1.6566e-10},
            "distances": [0, 276.11748457493013],
            "optimize": True,
            "search": {"grid_density": 3, "refinement_rounds": 0},
        }
        out = tmp_path / "singular.csv"
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3


class TestPublishedSearchGolden:
    """Optimized sweeps on the published channel and search
    (scripts/configs/table1_sweep.json), one worker, pinned byte for byte:
    the search's winners and their reports. The files in tests/golden/ were
    written by the shrink-by-half search before its rounds became arrays;
    regenerate them only when the search is meant to change (ROADMAP item
    1)."""

    @pytest.mark.parametrize("n_total, n_phases, distances", [
        (1e12, 8, [240.5, 280.5]), (1e14, 8, [240.5, 280.5]), (1e14, 16, [250.5]),
    ])
    def test_outputs_match_golden(self, tmp_path, n_total, n_phases, distances):
        cfg = json.loads((ROOT / "scripts" / "configs" / "table1_sweep.json").read_text())
        del cfg["output"]
        cfg.update(n_total=n_total, n_phases=n_phases, distances=distances, threads=1)
        name = f"sweep_table1_n{n_total:.0e}_m{n_phases}"
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
        assert out.with_suffix(".json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


# Draws from config.schema.json's domain: intensities at 0, 1e-6 and the
# edges of the default search box, label probabilities at 0 and 1.
INTENSITIES = st.sampled_from([0.0, 1e-6, 1e-4, 0.5]) | st.floats(0.0, 1.0)
PROBABILITIES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def schema_configs(draw):
    cfg = base_config(
        n_phases=2 * draw(st.integers(1, 32)),
        n_total=draw(st.integers(1, 10**16)),
        distances=draw(st.sampled_from([[0.0, 40.0], [60.0], [200.0, 500.0]])),
        mode=draw(st.sampled_from(["expected", "sampled"])),
        seed=draw(st.integers(0, 2**32)),
        optimize=draw(st.booleans()),
        protocol={
            "mu": draw(INTENSITIES), "nu": draw(INTENSITIES),
            "p_mu": draw(PROBABILITIES), "p_nu": draw(PROBABILITIES),
        },
    )
    if cfg["optimize"]:
        cfg["search"] = {"grid_density": 3, "refinement_rounds": 0}
    return cfg


class TestSchemaDomain:
    """A config the schema accepts runs (exit 0) or is a config error (exit
    2); it never ends in an internal failure, and only a run writes files."""

    @pytest.mark.parametrize(
        "n_phases, protocol",
        [(2, {"mu": 0.0}), (8, {"nu": 0.0}), (64, {"mu": 0.005})],
    )
    def test_degenerate_folded_classes_run(self, tmp_path, n_phases, protocol):
        # Classes prepared with probability 0 (a zero intensity) or about
        # 1e-200 (class 60 of 64 at mu = 0.005).
        cfg = base_config(n_phases=n_phases)
        cfg["protocol"].update(protocol)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert [row.split(",")[-1] for row in out.read_text().splitlines()[1:]] == ["ok", "ok"]

    @given(schema_configs())
    @settings(max_examples=80, deadline=None)
    def test_exit_code_and_outputs(self, cfg):
        jsonschema.validate(cfg, CONFIG_SCHEMA)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o.csv"
            cfg_path = write_config(Path(tmp), cfg)
            rc = main(["sweep", "--config", cfg_path, "--out", str(out)])
            assert rc in (0, 2)
            assert out.exists() == out.with_suffix(".json").exists() == (rc == 0)
            lp = Path(tmp) / "lp.txt"
            distance = str(cfg["distances"][0])
            rc = main(["dump-lp", "--config", cfg_path, "--out", str(lp), "--distance", distance])
            assert rc in (0, 2)
            assert lp.exists() == (rc == 0)


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

    @pytest.mark.parametrize("mode", ["expected", "sampled"])
    def test_signal_that_never_clicks(self, tmp_path, mode):
        # With p_d = 0 and mu = 0 the signal never clicks: the dump is the
        # LP of the zero signal count, and analyze reports no detections.
        cfg = base_config(mode=mode, distances=[50.0])
        cfg["channel"]["p_d"] = 0.0
        cfg["protocol"]["mu"] = 0.0
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "lp.txt"
        assert main(["dump-lp", "--config", cfg_path, "--out", str(out), "--distance", "50"]) == 0
        lp = load_lp(out)
        assert lp.num_vars == 4
        assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "a.csv")]) == 0
        row = (tmp_path / "a.csv").read_text().splitlines()[1].split(",")
        assert (float(row[6]), row[-1]) == (0.0, "no_detections")

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
    def test_config_is_the_worked_example(self):
        script = load_rate_distance_script()
        example = json.loads(
            (Path(__file__).parent.parent / "scripts" / "configs" / "table1_sweep.json").read_text()
        )
        config = script.build_config(1e13, 240.0, 250.0, 10.0, 3)
        run_keys = {"n_total", "distances", "threads"}
        assert {k: v for k, v in config.items() if k not in run_keys} == {
            k: v for k, v in example.items() if k not in run_keys | {"output"}
        }
        assert (config["n_total"], config["distances"], config["threads"]) == (
            1e13, {"start": 240.0, "stop": 250.0, "step": 10.0}, 3
        )
        assert parse_config(config).distances == [240.0, 250.0]

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
