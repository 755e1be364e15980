#!/usr/bin/env python3
"""Regenerate the frozen reference outputs in bench/references/.

    python3 bench/freeze.py

Run this only on the commit that defines the references (the outputs a
later commit must still reproduce); it evaluates every item each workload
can draw, whatever the benchmark seed.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from workloads import REFERENCES, WORKLOADS, _ref_key  # noqa: E402


def dump(refs: dict) -> str:
    """JSON with one reference item per line."""
    lines = [f"{json.dumps(key)}: {json.dumps(refs[key])}" for key in sorted(refs)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> int:
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for name, cls in WORKLOADS.items():
            wl = cls(seed=0, workdir=Path(tmp), references={})
            refs = {_ref_key(*item): cls.reference_of(wl.execute(item)) for item in cls.universe()}
            path = REFERENCES / f"{name}.json"
            path.write_text(dump(refs))
            print(f"{path}: {len(refs)} items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
