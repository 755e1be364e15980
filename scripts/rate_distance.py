#!/usr/bin/env python3
"""Reproduce the headline rate-distance study: optimized key rate vs the
repeaterless bound for three round counts, written as one CSV per curve.

    python scripts/rate_distance.py --out-dir results/ --step 10

Plot key_rate and plob_rate (log y) against L_km from the CSVs. Every other
setting is configs/table1_sweep.json's (no detector factor, as published).
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from tfqkd.cli import main as tfqkd_main

WORKED_EXAMPLE = Path(__file__).parent / "configs" / "table1_sweep.json"


def build_config(n_total: float, start: float, stop: float, step: float, threads: int) -> dict:
    config = json.loads(WORKED_EXAMPLE.read_text())
    del config["output"]
    distances = {"start": start, "stop": stop, "step": step}
    return {**config, "n_total": n_total, "distances": distances, "threads": threads}


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
