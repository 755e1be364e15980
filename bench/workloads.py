"""The three benchmark workloads.

Each workload turns the benchmark seed into a stream of work items, runs
one item at a time through the public tfqkd API (a closed loop with one
caller), and checks every output against the invariants and against the
references frozen from the seed commit in bench/references/. All tfqkd
calls go through module attributes (tfqkd.keyrate.analyze, ...) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

import tfqkd.channel as channel_mod
import tfqkd.cli as cli_mod
import tfqkd.constraints as constraints_mod
import tfqkd.keyrate as keyrate_mod
import tfqkd.simplex as simplex_mod
from tfqkd.channel import ChannelParams, ProtocolParams

REFERENCES = Path(__file__).resolve().parent / "references"

# Published channel and security budget (scripts/rate_distance.py).
CHANNEL = {"e_m": 0.03, "p_d": 1e-8, "xi": 0.2, "eta_d": 0.3, "f_ec": 1.1}
BUDGET = {"eps_total_pe": 4e-20, "eps_cor": 1e-10, "eps_pa": 1.6566e-10}
# Published example protocol (README library tour).
PROTOCOL = {"mu": 0.04, "nu": 0.18, "p_mu": 0.85, "p_nu": 0.08}
# Search box and settings of scripts/rate_distance.py.
SEARCH = {
    "mu_range": [0.005, 0.15],
    "nu_range": [0.01, 0.4],
    "p_mu_range": [0.5, 0.95],
    "p_nu_range": [0.02, 0.4],
    "grid_density": 5,
    "refinement_rounds": 3,
}
N_TOTALS = (1e12, 1e14)
PHASES = (8, 16)

# Relative tolerance on n_ph_upper: wide enough for a certified bound or a
# rescaled LP (both move it by far less), far below any real change.
NPH_RTOL = 1e-6
# Relative tolerance on the scale-invariant LP quantities (counts).
LP_RTOL = 1e-9
LP_ATOL = 1e-6


def _channel() -> ChannelParams:
    return ChannelParams(**CHANNEL)


def _budget(n_phases: int):
    return constraints_mod.make_budget(n_phases=n_phases, **BUDGET)


def _protocol(n_total: float, n_phases: int) -> ProtocolParams:
    return ProtocolParams.make(n_phases=n_phases, n_total=int(n_total), **PROTOCOL)


def _ref_key(*parts) -> str:
    return "/".join(format(p, "g") if isinstance(p, float) else str(p) for p in parts)


def load_references(name: str) -> dict:
    with open(REFERENCES / f"{name}.json") as fh:
        return json.load(fh)


class Workload:
    """Interface shared by the workloads.

    stream() yields work items forever; items come in units of unit_size
    that share one composition, and a timed run stops only at a unit
    boundary. execute() is the timed call. check() returns a list of
    failure descriptions (empty when correct). trace_items() is the fixed
    work of a traced run.
    """

    name = ""
    unit_size = 1
    # Items of milliseconds: the speed probe waits until an item ends.
    short_items = True
    trace_units = 1
    smoke_units = 1

    def __init__(self, seed: int, workdir: Path, references: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.references = load_references(self.name) if references is None else references

    def stream(self):
        raise NotImplementedError

    def execute(self, item):
        raise NotImplementedError

    def check(self, item, out) -> list[str]:
        raise NotImplementedError

    def points(self, item) -> int:
        """Operations one item counts for in `attempted`."""
        return 1

    def trace_items(self, smoke: bool) -> list:
        count = self.unit_size * (self.smoke_units if smoke else self.trace_units)
        return list(itertools.islice(self.stream(), count))

    def same(self, a, b) -> bool:
        """Whether two outputs of the same item are identical."""
        return a == b

    def warm_up(self) -> None:
        item = next(iter(self.stream()))
        self.check(item, self.execute(item))


class FiniteKeyMC(Workload):
    """Monte Carlo finite-key analysis: sampled analyses at the published
    protocol over round counts, phase-slice counts, distances and sampling
    seeds. One LP per call, no optimizer."""

    name = "finite_key_mc"
    DISTANCES = tuple(float(d) for d in range(10, 481, 10))
    SAMPLE_SEEDS = 16
    # Three M=8 analyses to one M=16 analysis: the latency distribution has
    # one mode per LP size, and this mix puts the median inside the M=8
    # mode and the 99th percentile inside the M=16 tail rather than in the
    # gap between them, where they would jump with small changes of mix.
    PHASE_MIX = (8, 8, 8, 16)
    # A unit holds every (round count, phase mix, distance) cell once, so
    # any whole number of units has the same mix of LP sizes and regimes.
    unit_size = len(N_TOTALS) * len(PHASE_MIX) * len(DISTANCES)
    trace_units = 3
    smoke_units = 1

    def __init__(self, seed, workdir, references=None):
        super().__init__(seed, workdir, references)
        self.channel = _channel()
        self.budgets = {m: _budget(m) for m in PHASES}
        self.protocols = {(n, m): _protocol(n, m) for n in N_TOTALS for m in PHASES}

    @classmethod
    def universe(cls):
        for n, m, l_km in itertools.product(N_TOTALS, PHASES, cls.DISTANCES):
            for s in range(cls.SAMPLE_SEEDS):
                yield (n, m, l_km, s)

    def stream(self):
        rng = np.random.default_rng(self.seed)
        cells = list(itertools.product(N_TOTALS, self.PHASE_MIX, self.DISTANCES))
        while True:
            for k in rng.permutation(len(cells)):
                yield (*cells[k], int(rng.integers(self.SAMPLE_SEEDS)))

    def execute(self, item):
        n, m, l_km, sample_seed = item
        report = keyrate_mod.analyze(
            self.protocols[(n, m)], self.channel, l_km, self.budgets[m],
            mode="sampled", seed=sample_seed, detector_in_eta=False,
        )
        return (report.diagnostics.status, report.n_ph_upper, report.key_length)

    @staticmethod
    def reference_of(out):
        return [out[0], out[1]]

    def check(self, item, out) -> list[str]:
        status, n_ph, key = out
        ref_status, ref_nph = self.references[_ref_key(*item)]
        problems = []
        if status != ref_status:
            problems.append(f"{item}: status {status} != reference {ref_status}")
        if abs(n_ph - ref_nph) > NPH_RTOL * max(abs(ref_nph), 1.0):
            problems.append(f"{item}: n_ph_upper {n_ph!r} != reference {ref_nph!r}")
        if not key >= 0.0:
            problems.append(f"{item}: negative key length {key!r}")
        return problems


class LPExport(Workload):
    """The dump-lp path: observations -> build_lp -> dump_lp to a file ->
    load_lp, with no solve."""

    name = "lp_export"
    DISTANCES = tuple(float(d) for d in range(10, 451, 40))
    MODES = ("expected", "sampled:0", "sampled:1", "sampled:2")
    unit_size = len(N_TOTALS) * len(PHASES) * len(DISTANCES)
    trace_units = 20
    smoke_units = 1

    def __init__(self, seed, workdir, references=None):
        super().__init__(seed, workdir, references)
        self.channel = _channel()
        self.budgets = {m: _budget(m) for m in PHASES}
        self.protocols = {(n, m): _protocol(n, m) for n in N_TOTALS for m in PHASES}
        self.path = self.workdir / "lp.txt"

    @classmethod
    def universe(cls):
        yield from itertools.product(N_TOTALS, PHASES, cls.DISTANCES, cls.MODES)

    def stream(self):
        rng = np.random.default_rng(self.seed)
        cells = list(itertools.product(N_TOTALS, PHASES, self.DISTANCES))
        while True:
            for k in rng.permutation(len(cells)):
                yield (*cells[k], self.MODES[int(rng.integers(len(self.MODES)))])

    def execute(self, item):
        n, m, l_km, mode = item
        protocol = self.protocols[(n, m)]
        if mode == "expected":
            counts = channel_mod.expected_observations(
                protocol, self.channel, l_km, detector_in_eta=False
            )
        else:
            counts = channel_mod.sample_observations(
                protocol, self.channel, l_km, int(mode.split(":")[1]), detector_in_eta=False
            )
        lp = constraints_mod.build_lp(protocol, counts, self.budgets[m])
        constraints_mod.dump_lp(lp, self.path)
        return lp, simplex_mod.load_lp(self.path)

    @staticmethod
    def reference_of(out):
        lp, _ = out
        return {
            "b_eq": (lp.b_eq * lp.scale).tolist(),
            "upper": (lp.upper * lp.scale).tolist(),
            "delta": [gb.delta for gb in lp.gap_bounds],
        }

    def check(self, item, out) -> list[str]:
        lp, back = out
        problems = []
        for field in ("objective", "a_eq", "b_eq", "a_ub", "b_ub", "lower", "upper"):
            if not np.array_equal(getattr(lp, field), getattr(back, field)):
                problems.append(f"{item}: load_lp(dump_lp) changed {field}")
        if lp.scale != back.scale:
            problems.append(f"{item}: load_lp(dump_lp) changed scale")
        ref = self.references[_ref_key(*item)]
        for field, got in self.reference_of(out).items():
            want = ref[field]
            if len(got) != len(want) or not np.allclose(got, want, rtol=LP_RTOL, atol=LP_ATOL):
                problems.append(f"{item}: {field} differs from reference")
        return problems

    def same(self, a, b) -> bool:
        return all(
            np.array_equal(getattr(a[0], f), getattr(b[0], f))
            for f in ("objective", "a_eq", "b_eq", "a_ub", "b_ub", "lower", "upper")
        ) and a[0].scale == b[0].scale


class RateCurve(Workload):
    """The headline study, reduced: `tfqkd sweep` in-process with one
    thread, the published channel and the rate_distance.py search, two
    consecutive distances on both sides of the ~250 km crossing with the
    repeaterless bound, for two round counts. The second distance of each
    sweep is warm-started from the first."""

    name = "rate_curve"
    unit_size = len(N_TOTALS)
    short_items = False
    trace_units = 1
    smoke_units = 1
    OFFSETS = 5
    # Both straddle the crossing for both round counts; jittered by 0.5 km
    # per offset so seeds change the inputs but not the amount of work.
    BASE_DISTANCES = (240.0, 280.0)

    def __init__(self, seed, workdir, references=None):
        super().__init__(seed, workdir, references)
        import jsonschema

        schema_path = Path(cli_mod.__file__).parent / "schemas" / "report.schema.json"
        self.validator = jsonschema.Draft7Validator(json.loads(schema_path.read_text()))
        self.channel = _channel()
        self.budget = _budget(8)
        self.configs = {}
        for n, offset in itertools.product(N_TOTALS, range(self.OFFSETS)):
            path = self.workdir / f"sweep_{n:.0e}_{offset}.json"
            path.write_text(json.dumps(self.config(n, offset)))
            self.configs[(n, offset)] = path

    @classmethod
    def distances(cls, offset: int) -> list[float]:
        return [d + 0.5 * offset for d in cls.BASE_DISTANCES]

    @classmethod
    def config(cls, n_total: float, offset: int) -> dict:
        return {
            "channel": CHANNEL,
            "n_phases": 8,
            "n_total": n_total,
            "budget": BUDGET,
            "distances": cls.distances(offset),
            "optimize": True,
            "search": SEARCH,
            "detector_in_eta": False,
            "plob_includes_detector": False,
            "threads": 1,
        }

    @classmethod
    def universe(cls):
        yield from itertools.product(N_TOTALS, range(cls.OFFSETS))

    def stream(self):
        rng = np.random.default_rng(self.seed)
        while True:
            for offset in rng.permutation(self.OFFSETS):
                for n in N_TOTALS:
                    yield (n, int(offset))

    def points(self, item) -> int:
        return len(self.BASE_DISTANCES)

    def warm_up(self) -> None:
        # A full sweep costs seconds; one analysis touches every layer the
        # sweep uses.
        n, offset = next(iter(self.stream()))
        keyrate_mod.analyze(
            _protocol(n, 8), self.channel, self.distances(offset)[0], self.budget,
            detector_in_eta=False,
        )

    def execute(self, item):
        n, offset = item
        out_csv = self.workdir / f"curve_{n:.0e}_{offset}.csv"
        rc = cli_mod.main(["sweep", "--config", str(self.configs[item]), "--out", str(out_csv)])
        if rc != 0:
            return rc, b"", b""
        return rc, out_csv.read_bytes(), out_csv.with_suffix(".json").read_bytes()

    @staticmethod
    def key_rates(out) -> list[float]:
        rc, csv_bytes, _ = out
        if rc != 0:
            return []
        rows = csv.DictReader(io.StringIO(csv_bytes.decode()))
        return [float(row["key_rate"]) for row in rows]

    @classmethod
    def reference_of(cls, out):
        return cls.key_rates(out)

    def check(self, item, out) -> list[str]:
        rc, csv_bytes, json_bytes = out
        if rc != 0:
            return [f"{item}: tfqkd sweep exited with {rc}"] * self.points(item)
        problems = []
        sidecar = json.loads(json_bytes)
        problems += [f"{item}: sidecar schema: {e.message}" for e in self.validator.iter_errors(sidecar)]
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
        got = [float(r["L_km"]) for r in rows]
        if got != self.distances(item[1]) or len(sidecar["results"]) != len(rows):
            problems.append(f"{item}: distances {got} != requested {self.distances(item[1])}")
        for row, entry in zip(rows, sidecar["results"]):
            n_bit, e_bit = float(row["n_bit"]), float(row["e_bit"])
            e_ph, key = float(row["e_ph_upper"]), float(row["key_length"])
            expect = keyrate_mod.key_length(n_bit, e_bit, e_ph, self.channel, self.budget)
            where = f"{item} L={row['L_km']}"
            if not (key >= 0.0 and float(row["key_rate"]) >= 0.0):
                problems.append(f"{where}: negative key")
            if not 0.0 <= e_ph <= 1.0:
                problems.append(f"{where}: e_ph_upper {e_ph} outside [0, 1]")
            if not math.isclose(key, expect, rel_tol=1e-9, abs_tol=1e-6):
                problems.append(f"{where}: key_length {key!r} != key_length() {expect!r}")
            if entry["key_length"] != key or entry["e_ph_upper"] != e_ph:
                problems.append(f"{where}: CSV and sidecar disagree")
        return problems

    def log_rate_ratios(self, item, out) -> list[float]:
        """log(reached / reference) for points whose reference rate is > 0."""
        ref = self.references[_ref_key(*item)]
        return [
            math.log(max(got, 1e-300) / want)
            for got, want in zip(self.key_rates(out), ref)
            if want > 0.0
        ]


WORKLOADS = {cls.name: cls for cls in (RateCurve, FiniteKeyMC, LPExport)}
