"""Command-line front end: JSON config in, CSV curve + JSON diagnostics
sidecar out.

Exit codes: 0 success, 2 config error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from functools import partial

import numpy as np

from .channel import ChannelParams, ProtocolParams
from .constraints import SecurityBudget, _fmt, build_lp, dump_lp, make_budget
from .keyrate import KeyRateReport, analyze, end_to_end_plob, observe
from .optimize import SearchSpace, optimize_point, sweep

CSV_HEADER = "L_km,mu,nu,p_mu,p_nu,p_o,n_bit,e_bit,e_ph_upper,key_length,key_rate,plob_rate,status"


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the field path."""


@dataclasses.dataclass
class RunConfig:
    channel: ChannelParams
    n_total: int
    budget: SecurityBudget
    distances: list[float]
    mode: str
    seed: int
    optimize: bool
    protocol: ProtocolParams | None
    search: SearchSpace
    detector_in_eta: bool
    plob_includes_detector: bool
    output: str | None
    threads: int


def _as_number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    # JSON parsing lets NaN and Infinity through.
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _as_int(value, path: str, low: float = -math.inf) -> int:
    v = _as_number(value, path)
    if v != int(v):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if v < low:
        raise ConfigError(f"{path}: must be >= {low}")
    return int(v)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _as_string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a path string")
    return value


def _as_mode(value, path: str) -> str:
    if value not in ("expected", "sampled"):
        raise ConfigError(f"{path}: must be 'expected' or 'sampled', got {value!r}")
    return value


def _as_range(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected [low, high]")
    return (_as_number(value[0], path + "[0]"), _as_number(value[1], path + "[1]"))


_REQUIRED = object()


def _fields(data, path: str, table: dict) -> dict:
    """Convert the JSON object at `path` by its field table, which maps each
    allowed key to (converter, default); a default of _REQUIRED marks a
    required key. Returns every key of the table with its value."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'top level'}: expected an object")
    prefix = path + "." if path else ""
    for key in data:
        if key not in table:
            raise ConfigError(f"{prefix}{key}: unknown field")
    out = {}
    for key, (convert, default) in table.items():
        if key in data:
            out[key] = convert(data[key], prefix + key)
        elif default is _REQUIRED:
            raise ConfigError(f"{prefix}{key}: missing required field")
        else:
            out[key] = default
    return out


def _build(path: str, make, **kwargs):
    """Call a constructor, reporting its ValueError under the object's path."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _object(table: dict, make=dict):
    """Converter for a nested object: its fields by `table`, passed to `make`."""
    return lambda value, path: _build(path, make, **_fields(value, path, table))


def _numbers(*keys: str) -> dict:
    return {key: (_as_number, _REQUIRED) for key in keys}


def _as_distances(value, path: str) -> list[float]:
    if isinstance(value, list):
        out = [_as_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    elif isinstance(value, dict):
        r = _fields(value, path, _RANGE)
        if r["step"] <= 0.0:
            raise ConfigError(f"{path}.step: must be > 0")
        count = math.floor((r["stop"] - r["start"]) / r["step"] + 1e-9) + 1
        out = [r["start"] + i * r["step"] for i in range(count)]
    else:
        raise ConfigError(f"{path}: expected a list or {{start, stop, step}}")
    if not out:
        raise ConfigError(f"{path}: empty distance list")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(f"{path}: must be strictly increasing")
    if any(d < 0.0 for d in out):
        raise ConfigError(f"{path}: must be >= 0")
    return out


# The field tables of src/tfqkd/schemas/config.schema.json.
_RANGE = _numbers("start", "stop", "step")
_CHANNEL = _numbers("e_m", "p_d", "xi", "eta_d", "f_ec")
_BUDGET = {
    **_numbers("eps_cor", "eps_pa"),
    "eps_a": (_as_number, None),
    "eps_total_pe": (_as_number, None),
}
_PROTOCOL = _numbers("mu", "nu", "p_mu", "p_nu")
_SEARCH = {  # SearchSpace's fields, with its defaults
    f.name: (_as_range if f.name.endswith("_range") else _as_int, f.default)
    for f in dataclasses.fields(SearchSpace)
}
# Budget and protocol are built in parse_config, once n_phases and n_total
# are known.
_TOP = {
    "channel": (_object(_CHANNEL, ChannelParams), _REQUIRED),
    "n_phases": (_as_int, _REQUIRED),
    "n_total": (partial(_as_int, low=1), _REQUIRED),
    "budget": (_object(_BUDGET), _REQUIRED),
    "distances": (_as_distances, _REQUIRED),
    "mode": (_as_mode, "expected"),
    "seed": (partial(_as_int, low=0), 0),
    "optimize": (_as_bool, False),
    "protocol": (_object(_PROTOCOL), None),
    "search": (_object(_SEARCH, SearchSpace), SearchSpace()),
    "detector_in_eta": (_as_bool, True),
    "plob_includes_detector": (_as_bool, False),
    "output": (_as_string, None),
    "threads": (partial(_as_int, low=1), 1),
}


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig, reporting problems
    with their field paths."""
    top = _fields(data, "", _TOP)
    n_phases = top.pop("n_phases")
    top["budget"] = _build("budget", make_budget, n_phases=n_phases, **top["budget"])
    if top["protocol"] is not None:
        top["protocol"] = _build(
            "protocol", ProtocolParams.make,
            n_phases=n_phases, n_total=top["n_total"], **top["protocol"],
        )
    elif not top["optimize"]:
        raise ConfigError("protocol: missing required field")
    return RunConfig(**top)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def _distance_seeds(seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]


def _report_row(report: KeyRateReport, plob_rate: float) -> str:
    p = report.protocol
    vals = [
        report.l_km, p.mu, p.nu, p.p_mu, p.p_nu, p.p_o,
        report.n_bit, report.e_bit, report.e_ph_upper,
        report.key_length, report.key_rate, plob_rate,
    ]
    return ",".join(_fmt(v) for v in vals) + "," + report.diagnostics.status


def _sidecar_entry(report: KeyRateReport, plob_rate: float) -> dict:
    p = report.protocol
    return {
        "L_km": report.l_km,
        "protocol": {
            "mu": p.mu, "nu": p.nu, "p_mu": p.p_mu, "p_nu": p.p_nu, "p_o": p.p_o,
        },
        "status": report.diagnostics.status,
        "clamp_events": list(report.diagnostics.clamp_events),
        "lp_iterations": report.diagnostics.lp_iterations,
        "n_bit": report.n_bit,
        "e_bit": report.e_bit,
        "n_ph_upper": report.n_ph_upper,
        "e_ph_upper": report.e_ph_upper,
        "key_length": report.key_length,
        "key_rate": report.key_rate,
        "plob_rate": plob_rate if math.isfinite(plob_rate) else None,
    }


def _output_paths(command: str, config_path: str, output: str) -> tuple[str, ...]:
    """Every file the command writes: the CSV and its JSON sidecar (same
    name, .json) for analyze and sweep, the LP file for dump-lp. None may
    be a directory, lie in a missing directory, be another of them or be
    the config file."""
    paths = (output,) if command == "dump-lp" else (output, os.path.splitext(output)[0] + ".json")
    for path in paths:
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ConfigError(f"output: directory {parent} does not exist")
        if os.path.isdir(path):
            raise ConfigError(f"output: {path} is a directory")
        if os.path.exists(path) and os.path.samefile(path, config_path):
            raise ConfigError(f"output: {path} would overwrite the config")
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise ConfigError(f"output: the sidecar {paths[-1]} would overwrite the CSV")
    return paths


@contextlib.contextmanager
def _removed_on_error(*paths: str):
    """Remove every output path when writing them raises OSError."""
    try:
        yield
    except OSError:
        for path in paths:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def run_analyze(config: RunConfig, out_csv: str, out_json: str) -> int:
    """Analyze every configured distance and write the CSV to out_csv and
    the JSON diagnostics sidecar to out_json. Returns the process exit
    code."""
    reports = [None] * len(config.distances)
    if config.optimize:
        reports = sweep(
            config.channel, config.distances, config.n_total, config.budget, config.search,
            detector_in_eta=config.detector_in_eta, threads=config.threads,
        )
    # One child seed per distance keeps sampled counts independent across
    # the sweep while staying a pure function of the configured seed. The
    # optimizer's own report is already the expected-mode analysis.
    seeds = _distance_seeds(config.seed, len(config.distances))
    reports = [
        report if report is not None and config.mode == "expected" else analyze(
            config.protocol if report is None else report.protocol, config.channel, l_km,
            config.budget, mode=config.mode, seed=seed, detector_in_eta=config.detector_in_eta,
        )
        for l_km, report, seed in zip(config.distances, reports, seeds)
    ]
    plob_rates = [
        end_to_end_plob(config.channel, r.l_km, include_detector=config.plob_includes_detector)
        for r in reports
    ]

    sidecar = {
        "budget": dataclasses.asdict(config.budget),
        "mode": config.mode,
        "seed": config.seed,
        "optimize": config.optimize,
        "results": [_sidecar_entry(r, plob) for r, plob in zip(reports, plob_rates)],
    }

    with _removed_on_error(out_csv, out_json):
        with open(out_csv, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for r, plob in zip(reports, plob_rates):
                fh.write(_report_row(r, plob) + "\n")
        with open(out_json, "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def run_dump_lp(config: RunConfig, l_km: float, out: str) -> int:
    """Write the debug LP matrix at one distance to `out` for
    external cross-checks: the LP that `tfqkd analyze` at that distance
    builds, sampled counts included. A signal that never clicks gives the
    LP of its zero counts, which analyze reports as no_detections."""
    params = config.protocol
    if config.optimize:
        params = optimize_point(
            config.channel, l_km, config.n_total, config.budget, config.search,
            detector_in_eta=config.detector_in_eta,
        ).protocol
    # The seed analyze uses for a single distance.
    seed = _distance_seeds(config.seed, 1)[0]
    counts = observe(params, config.channel, l_km, config.mode, seed, config.detector_in_eta)
    lp = build_lp(params, counts, config.budget)
    with _removed_on_error(out):
        dump_lp(lp, out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfqkd",
        description="Finite-key twin-field QKD analysis with discrete phase randomization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")
    common.add_argument("--out", help="output path (overrides config)")
    common.add_argument("--threads", type=int, help="parallel workers for sweeps")
    common.add_argument("--seed", type=int, help="sampling seed (overrides config)")

    p_an = sub.add_parser("analyze", parents=[common], help="single-distance analysis")
    p_an.add_argument("--distance", type=float, help="distance in km (overrides config)")

    sub.add_parser("sweep", parents=[common], help="multi-distance sweep")

    p_dump = sub.add_parser("dump-lp", parents=[common], help="write the LP debug matrix")
    p_dump.add_argument("--distance", type=float, required=True, help="distance in km")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.out is not None:
            config.output = args.out
        if config.output is None:
            raise ConfigError("output: required (config field or --out)")
        outputs = _output_paths(args.command, args.config, config.output)
        if args.threads is not None:
            config.threads = _as_int(args.threads, "threads", low=1)
        if args.seed is not None:
            config.seed = _as_int(args.seed, "seed", low=0)

        if args.command == "sweep":
            return run_analyze(config, *outputs)
        if args.distance is not None:
            config.distances = _as_distances([args.distance], "distances")
        if len(config.distances) != 1:
            raise ConfigError("distances: analyze needs exactly one distance")
        if args.command == "dump-lp":
            return run_dump_lp(config, config.distances[0], *outputs)
        return run_analyze(config, *outputs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
