#!/usr/bin/env python3
"""Reproduce the headline rate-distance study: optimized key rate vs the
repeaterless bound for three round counts, written as one CSV per curve.

    python scripts/rate_distance.py --out-dir results/ --step 10

Plot key_rate and plob_rate (log y) against L_km from the CSVs.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from tfqkd.cli import main as tfqkd_main


def build_config(n_total: float, start: float, stop: float, step: float, threads: int) -> dict:
    return {
        "channel": {"e_m": 0.03, "p_d": 1e-8, "xi": 0.2, "eta_d": 0.3, "f_ec": 1.1},
        "n_phases": 8,
        "n_total": n_total,
        "budget": {"eps_total_pe": 4e-20, "eps_cor": 1e-10, "eps_pa": 1.6566e-10},
        "distances": {"start": start, "stop": stop, "step": step},
        "optimize": True,
        "search": {
            "mu_range": [0.005, 0.15],
            "nu_range": [0.01, 0.4],
            "p_mu_range": [0.5, 0.95],
            "p_nu_range": [0.02, 0.4],
            "grid_density": 5,
            "refinement_rounds": 3,
        },
        # The published transmittance formula carries no detector factor;
        # keep the comparison self-consistent with the bare-fiber bound.
        "detector_in_eta": False,
        "plob_includes_detector": False,
        "threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", help="output directory")
    parser.add_argument("--start", type=float, default=10.0)
    parser.add_argument("--stop", type=float, default=480.0)
    parser.add_argument("--step", type=float, default=10.0)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument(
        "--n-total", type=float, nargs="*", default=[1e12, 1e13, 1e14],
        help="round counts, one curve each",
    )
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for n_total in args.n_total:
        config = build_config(n_total, args.start, args.stop, args.step, args.threads)
        out_csv = out_dir / f"rate_n{n_total:.0e}.csv"
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(config, fh)
            cfg_path = fh.name
        print(f"sweeping N_tot = {n_total:.0e} -> {out_csv}")
        try:
            rc = tfqkd_main(["sweep", "--config", cfg_path, "--out", str(out_csv)])
        finally:
            Path(cfg_path).unlink()
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
