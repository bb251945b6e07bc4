"""Determinism check of the traced benchmark under two hash seeds.

    python3 perfbench/determinism.py [--out perfbench/determinism.json]

Runs `perfbench/run.py --trace 1` for every workload under
PYTHONHASHSEED=0 and PYTHONHASHSEED=1 (one process at a time) and requires
every count metric (`.calls`, sizes, witnesses, pieces) to be identical and
every run to be correct.  A correct surface-compile run has matched the
recorded sha256 of each gallery, so the digests agree as well.  Exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = ("0", "1")
SEED = 1


def traced_run(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=str(Path(__file__).parent / "determinism.json"))
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    result = {"seed": SEED, "hash_seeds": list(HASH_SEEDS), "workloads": {}}
    ok = True
    for w in bench["workloads"]:
        runs = {h: traced_run(w["name"], h) for h in HASH_SEEDS}
        first = runs[HASH_SEEDS[0]]["metrics"]
        differ = [name for name in counts
                  if any(r["metrics"][name]["value"] != first[name]["value"]
                         for r in runs.values())]
        correct = all(r["correct"] for r in runs.values())
        ok = ok and correct and not differ
        result["workloads"][w["name"]] = {
            "correct": correct,
            "differing_counts": differ,
            "counts": {name: first[name]["value"] for name in counts},
        }
        print(w["name"], "correct" if correct else "INCORRECT",
              "identical counts" if not differ else f"DIFFERING: {differ}",
              flush=True)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
