"""Command-line front end: JSON config in, CSV curve + JSON diagnostics
sidecar out.

Exit codes: 0 success, 2 config error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, ProtocolParams
from .constraints import SecurityBudget, _fmt, build_lp, dump_lp, make_budget
from .keyrate import KeyRateReport, analyze, observe
from .optimize import SearchSpace, default_threads, optimize_point, sweep

CSV_HEADER = "L_km,mu,nu,p_mu,p_nu,p_o,n_bit,e_bit,e_ph_upper,key_length,key_rate,plob_rate,status"


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the field path."""


@dataclass
class RunConfig:
    channel: ChannelParams
    n_phases: int
    n_total: int
    budget: SecurityBudget
    distances: list[float]
    mode: str = "expected"
    seed: int = 0
    optimize: bool = False
    protocol: ProtocolParams | None = None
    search: SearchSpace = field(default_factory=SearchSpace)
    detector_in_eta: bool = True
    plob_includes_detector: bool = False
    output: str | None = None
    threads: int = 1


def _need(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}{key}: missing required field")
    return data[key]


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


def _as_int(value, path: str) -> int:
    v = _as_number(value, path)
    if v != int(v):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(v)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _as_range(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected [low, high]")
    return (_as_number(value[0], path + "[0]"), _as_number(value[1], path + "[1]"))


def _parse_distances(value) -> list[float]:
    if isinstance(value, list):
        out = [_as_number(v, f"distances[{i}]") for i, v in enumerate(value)]
    elif isinstance(value, dict):
        start = _as_number(_need(value, "start", "distances."), "distances.start")
        stop = _as_number(_need(value, "stop", "distances."), "distances.stop")
        step = _as_number(_need(value, "step", "distances."), "distances.step")
        if step <= 0.0:
            raise ConfigError("distances.step: must be > 0")
        count = math.floor((stop - start) / step + 1e-9) + 1
        out = [start + i * step for i in range(count)]
    else:
        raise ConfigError("distances: expected a list or {start, stop, step}")
    if not out:
        raise ConfigError("distances: empty distance list")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError("distances: must be strictly increasing")
    if any(d < 0.0 for d in out):
        raise ConfigError("distances: must be >= 0")
    return out


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig, reporting problems
    with their field paths."""
    if not isinstance(data, dict):
        raise ConfigError(": top level must be a JSON object")

    ch = _need(data, "channel", "")
    if not isinstance(ch, dict):
        raise ConfigError("channel: expected an object")
    try:
        channel = ChannelParams(
            e_m=_as_number(_need(ch, "e_m", "channel."), "channel.e_m"),
            p_d=_as_number(_need(ch, "p_d", "channel."), "channel.p_d"),
            xi=_as_number(_need(ch, "xi", "channel."), "channel.xi"),
            eta_d=_as_number(_need(ch, "eta_d", "channel."), "channel.eta_d"),
            f_ec=_as_number(_need(ch, "f_ec", "channel."), "channel.f_ec"),
        )
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from exc

    n_phases = _as_int(_need(data, "n_phases", ""), "n_phases")
    n_total = _as_int(_need(data, "n_total", ""), "n_total")

    bd = _need(data, "budget", "")
    if not isinstance(bd, dict):
        raise ConfigError("budget: expected an object")
    if ("eps_a" in bd) == ("eps_total_pe" in bd):
        raise ConfigError("budget: give exactly one of eps_a / eps_total_pe")
    try:
        budget = make_budget(
            n_phases=n_phases,
            eps_cor=_as_number(_need(bd, "eps_cor", "budget."), "budget.eps_cor"),
            eps_pa=_as_number(_need(bd, "eps_pa", "budget."), "budget.eps_pa"),
            eps_a=_as_number(bd["eps_a"], "budget.eps_a") if "eps_a" in bd else None,
            eps_total_pe=(
                _as_number(bd["eps_total_pe"], "budget.eps_total_pe")
                if "eps_total_pe" in bd
                else None
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"budget: {exc}") from exc

    distances = _parse_distances(_need(data, "distances", ""))

    mode = data.get("mode", "expected")
    if mode not in ("expected", "sampled"):
        raise ConfigError(f"mode: must be 'expected' or 'sampled', got {mode!r}")
    seed = _as_int(data.get("seed", 0), "seed")

    do_opt = _as_bool(data.get("optimize", False), "optimize")
    protocol = None
    if not do_opt or "protocol" in data:
        pr = _need(data, "protocol", "")
        if not isinstance(pr, dict):
            raise ConfigError("protocol: expected an object")
        try:
            protocol = ProtocolParams.make(
                mu=_as_number(_need(pr, "mu", "protocol."), "protocol.mu"),
                nu=_as_number(_need(pr, "nu", "protocol."), "protocol.nu"),
                p_mu=_as_number(_need(pr, "p_mu", "protocol."), "protocol.p_mu"),
                p_nu=_as_number(_need(pr, "p_nu", "protocol."), "protocol.p_nu"),
                n_phases=n_phases,
                n_total=n_total,
            )
        except ValueError as exc:
            raise ConfigError(f"protocol: {exc}") from exc

    search = SearchSpace()
    if "search" in data:
        sp = data["search"]
        if not isinstance(sp, dict):
            raise ConfigError("search: expected an object")
        kwargs = {}
        for name in ("mu_range", "nu_range", "p_mu_range", "p_nu_range"):
            if name in sp:
                kwargs[name] = _as_range(sp[name], f"search.{name}")
        for name in ("grid_density", "refinement_rounds"):
            if name in sp:
                kwargs[name] = _as_int(sp[name], f"search.{name}")
        try:
            search = SearchSpace(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"search: {exc}") from exc

    threads = _as_int(data.get("threads", 1), "threads")
    if threads < 1:
        raise ConfigError("threads: must be >= 1")
    output = data.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output: expected a path string")

    return RunConfig(
        channel=channel,
        n_phases=n_phases,
        n_total=n_total,
        budget=budget,
        distances=distances,
        mode=mode,
        seed=seed,
        optimize=do_opt,
        protocol=protocol,
        search=search,
        detector_in_eta=_as_bool(data.get("detector_in_eta", True), "detector_in_eta"),
        plob_includes_detector=_as_bool(
            data.get("plob_includes_detector", False), "plob_includes_detector"
        ),
        output=output,
        threads=threads,
    )


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


def _json_num(x: float):
    return x if math.isfinite(x) else None


def _report_row(report: KeyRateReport) -> str:
    p = report.protocol
    vals = [
        report.l_km, p.mu, p.nu, p.p_mu, p.p_nu, p.p_o,
        report.n_bit, report.e_bit, report.e_ph_upper,
        report.key_length, report.key_rate, report.plob_rate,
    ]
    return ",".join(_fmt(v) for v in vals) + "," + report.diagnostics.status


def _sidecar_entry(report: KeyRateReport) -> dict:
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
        "plob_rate": _json_num(report.plob_rate),
    }


def _sidecar_path(csv_path: str) -> str:
    base, _ = os.path.splitext(csv_path)
    return base + ".json"


def _check_writable(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"output: directory {parent} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"output: {path} is a directory")


def run_analyze(config: RunConfig) -> int:
    """Analyze every configured distance and write the CSV plus the JSON
    diagnostics sidecar. Returns the process exit code."""
    if config.output is None:
        raise ConfigError("output: required for analyze/sweep runs")
    out_csv = config.output
    out_json = _sidecar_path(out_csv)
    _check_writable(out_csv)

    reports: list[KeyRateReport] = []
    # One child seed per distance keeps sampled counts independent across
    # the sweep while staying a pure function of the configured seed.
    seeds = _distance_seeds(config.seed, len(config.distances))
    if config.optimize:
        results = sweep(
            config.channel,
            config.distances,
            config.n_phases,
            config.n_total,
            config.budget,
            config.search,
            detector_in_eta=config.detector_in_eta,
            plob_with_detector=config.plob_includes_detector,
            threads=config.threads,
        )
        for (l_km, params, report), seed in zip(results, seeds):
            if config.mode == "sampled":
                report = analyze(
                    params, config.channel, l_km, config.budget,
                    mode="sampled", seed=seed,
                    detector_in_eta=config.detector_in_eta,
                    plob_with_detector=config.plob_includes_detector,
                )
            reports.append(report)
    else:
        for l_km, seed in zip(config.distances, seeds):
            reports.append(
                analyze(
                    config.protocol, config.channel, l_km, config.budget,
                    mode=config.mode, seed=seed,
                    detector_in_eta=config.detector_in_eta,
                    plob_with_detector=config.plob_includes_detector,
                )
            )

    sidecar = {
        "budget": {
            "eps_a": config.budget.eps_a,
            "eps_total_pe": config.budget.eps_total_pe,
            "eps_cor": config.budget.eps_cor,
            "eps_pa": config.budget.eps_pa,
            "eps_sec": config.budget.eps_sec,
            "eps_tol": config.budget.eps_tol,
            "n_phases": config.budget.n_phases,
        },
        "mode": config.mode,
        "seed": config.seed,
        "optimize": config.optimize,
        "results": [_sidecar_entry(r) for r in reports],
    }

    try:
        with open(out_csv, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in reports:
                fh.write(_report_row(r) + "\n")
        with open(out_json, "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError:
        for path in (out_csv, out_json):
            try:
                os.unlink(path)
            except OSError:
                pass
        raise
    return 0


def run_dump_lp(config: RunConfig, l_km: float, out_path: str) -> int:
    """Emit the debug LP matrix at one distance for external cross-checks:
    the LP that `tfqkd analyze` at that distance solves, sampled counts
    included."""
    _check_writable(out_path)
    if config.optimize:
        params, _ = optimize_point(
            config.channel, l_km, config.n_phases, config.n_total,
            config.budget, config.search,
            detector_in_eta=config.detector_in_eta,
        )
    else:
        params = config.protocol
    # The seed analyze uses for a single distance.
    seed = _distance_seeds(config.seed, 1)[0]
    counts = observe(params, config.channel, l_km, config.mode, seed, config.detector_in_eta)
    lp = build_lp(params, counts, config.budget)
    try:
        dump_lp(lp, out_path)
    except OSError:
        try:
            os.unlink(out_path)
        except OSError:
            pass
        raise
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
        # Thread precedence: --threads flag, then TFQKD_THREADS, then config.
        config.threads = default_threads(fallback=config.threads)
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError("threads: must be >= 1")
            config.threads = args.threads
        if args.seed is not None:
            config.seed = args.seed

        if args.command == "analyze":
            if args.distance is not None:
                config.distances = [args.distance]
            if len(config.distances) != 1:
                raise ConfigError("distances: analyze needs exactly one distance")
            return run_analyze(config)
        if args.command == "sweep":
            return run_analyze(config)
        if args.command == "dump-lp":
            if config.output is None:
                raise ConfigError("output: required for dump-lp")
            return run_dump_lp(config, args.distance, config.output)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
