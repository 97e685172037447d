"""Store the reference outputs the oracle checks every benchmark run against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs the CLI once per seed of each workload's panel and HELD_OUT_SEEDS and writes
``perfbench/reference/<workload>.json``.  Run it on the commit whose outputs
are the reference; every CSV it stores a hash of is parsed here first.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT, hostspeed, oracle, run_child
from workloads import HELD_OUT_SEEDS, WORKLOADS


def main(names: list[str]) -> int:
    with hostspeed.Calibrator() as calibrator:
        return make(names, calibrator)


def make(names: list[str], calibrator: hostspeed.Calibrator) -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        work = OUT / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        outputs = {}
        for seed in (*w.panel_seeds, *HELD_OUT_SEEDS):
            child = run_child(w, seed, {}, work, calibrator)
            if child.code != 0:
                print(f"{name} seed {seed}: exit {child.code}", file=sys.stderr)
                return 1
            outputs[str(seed)] = oracle.summarize(w.command, child.out, parse_csv=True)
            shutil.rmtree(child.out)
            print(f"{name} seed {seed}: {child.wall_s:.2f} s", flush=True)
        shutil.rmtree(work)
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(
            {"commit": commit, "flags": w.flags(), "outputs": outputs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
