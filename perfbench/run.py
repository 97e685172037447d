"""Benchmark for the ldmcap CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}

Each workload (see ``workloads.py``) runs the real CLI in fresh child
processes, one at a time (a closed loop with one client), for S seconds,
then reports medians over those runs.  Each child's times are scaled by the
host's speed around it (``hostspeed.py``), which a shared host varies.  A run covers the workload's whole panel of
ldmcap seeds, in an order the benchmark seed sets.  Every child's outputs are
checked against the reference stored from the seed commit (``oracle.py``).

With ``--trace 1`` two more children follow the timed loop: one on a held-out
seed, which no tuning used, checked and timed on its own; and one traced
(``child.py``) on the first seed of the loop.  The result then carries the
per-layer metrics of ``layers.py`` instead of the end-to-end ones.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and failed
count spec results (a non-zero exit fails every spec of that run), so
failed / attempted is the error rate.  The line before it is a detail record
with the environment, the samples behind every median and the oracle's
verdicts; the same record is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
from child import HOOKS, MODEL_CLASSES  # noqa: E402
from workloads import HELD_OUT_SEEDS, WORKLOADS, Workload  # noqa: E402

OUT = HERE / "out"
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"wall_s": "s", "fits_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Child:
    cli_seed: int
    cpu: int | None  # the CPU the child and its calibrations were pinned to
    host_speed: float  # hostspeed.speed around the child; scales its times
    code: int
    wall_s: float  # spawn to exit
    main_wall_s: float | None  # spawn to the return of ldmcap.cli.main
    setup_s: float | None
    peak_rss_mb: float
    out: Path
    failed_specs: list[str]
    marks: dict = field(repr=False, default_factory=dict)
    stdout: str = field(repr=False, default="")


def run_child(w: Workload, cli_seed: int, want: dict, work: Path,
              calibrator: hostspeed.Calibrator, mode: str = "plain",
              cpu: int | None = None) -> Child:
    """Run one CLI invocation in a fresh process between two calibrations
    of the host's speed, all on ``cpu`` if given, and check its outputs."""
    tag = f"{mode}-{cli_seed}"
    out, marks_path = work / tag, work / f"{tag}.marks.json"
    stdout_path, stderr_path = work / f"{tag}.stdout", work / f"{tag}.stderr"
    shutil.rmtree(out, ignore_errors=True)
    marks_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(marks_path), mode,
            *w.argv(cli_seed, str(out))]
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # the child inherits it
    before = calibrator.measure(cpu)
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=so, stderr=se)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    after = calibrator.measure(cpu)
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = json.loads(marks_path.read_text()) if marks_path.exists() else {}
    if proc.returncode != 0:
        sys.stderr.write(f"perfbench: {tag} exited {proc.returncode}\n")
        sys.stderr.write(stderr_path.read_text()[-2000:])
    failed = sorted(want) if proc.returncode != 0 else oracle.check(w.command, out, want)
    return Child(
        cli_seed=cli_seed,
        cpu=cpu,
        host_speed=hostspeed.speed(before, after),
        code=proc.returncode,
        wall_s=end - start,
        main_wall_s=marks["main_end"] - start if "main_end" in marks else None,
        setup_s=marks["load_done"] - start if "load_done" in marks else None,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        out=out,
        failed_specs=failed,
        marks=marks,
        stdout=stdout_path.read_text(),
    )


def tree_digest(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): oracle.sha256(p) for p in sorted(out.rglob("*")) if p.is_file()}


def summary(children: list[Child], value, by_seed: bool = True) -> dict:
    """Median of ``value`` over the children, with the samples behind it.

    With ``by_seed`` the median is taken over the panel's seeds of each
    seed's own median, so a seed that ran more often does not weigh more.
    """
    samples: dict[int, list[float]] = {}
    for c in children:
        samples.setdefault(c.cli_seed, []).append(value(c))
    if by_seed:
        median = statistics.median(statistics.median(v) for v in samples.values())
    else:
        median = statistics.median(x for v in samples.values() for x in v)
    return {"median": median, "n": len(children), "samples_by_seed": samples}


def environment(w: Workload, seed: int, cli_seeds: list[int]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
        "workload": w.name,
        "benchmark_seed": seed,
        "cli_seeds": cli_seeds,
        "flags": w.flags(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM raises SystemExit, so run_child can stop its child before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    w = WORKLOADS[args.workload]
    reference_path = HERE / "reference" / f"{w.name}.json"
    if not (ROOT / "src" / "ldmcap" / "cli.py").is_file():
        print(f"perfbench: no ldmcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not reference_path.is_file():
        print(f"perfbench: missing reference {reference_path}", file=sys.stderr)
        return 2
    reference = json.loads(reference_path.read_text())["outputs"]
    with hostspeed.Calibrator() as calibrator:
        return measure(args, w, reference, calibrator)


def measure(args: argparse.Namespace, w: Workload, reference: dict,
            calibrator: hostspeed.Calibrator) -> int:
    """The timed loop, and with ``--trace 1`` the held-out and traced runs."""
    work = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    children: list[Child] = []
    first_digest = None
    panel = w.panel_seeds
    # Each CPU of a shared host slows on its own, so every pass over the
    # panel moves to the next CPU, and each seed is timed on all of them.
    cpus = sorted(os.sched_getaffinity(0))
    start = time.monotonic()
    while len(children) < len(panel) or time.monotonic() - start < args.seconds:
        cli_seed = panel[(args.seed + len(children)) % len(panel)]
        cpu = cpus[len(children) // len(panel) % len(cpus)]
        child = run_child(w, cli_seed, reference[str(cli_seed)], work, calibrator, cpu=cpu)
        if not children and args.trace:
            first_digest = tree_digest(child.out)
        shutil.rmtree(child.out, ignore_errors=True)
        children.append(child)

    detail: dict = {
        "environment": environment(w, args.seed, [c.cli_seed for c in children]),
        "layer_waits": "none: ldmcap is single-threaded, so no layer waits on another",
        "children": [
            {"cli_seed": c.cli_seed, "cpu": c.cpu, "host_speed": c.host_speed,
             "exit": c.code, "wall_s": c.wall_s,
             "main_wall_s": c.main_wall_s, "setup_s": c.setup_s,
             "peak_rss_mb": c.peak_rss_mb, "failed_specs": c.failed_specs}
            for c in children
        ],
    }
    all_runs = list(children)
    if args.trace:
        held_out_seed = HELD_OUT_SEEDS[args.seed % len(HELD_OUT_SEEDS)]
        held_out = run_child(w, held_out_seed, reference[str(held_out_seed)], work, calibrator,
                             cpu=cpus[0])
        shutil.rmtree(held_out.out, ignore_errors=True)
        detail["held_out"] = {"cli_seed": held_out_seed,
                              "wall_s": held_out.wall_s * held_out.host_speed,
                              "raw_wall_s": held_out.wall_s,
                              "host_speed": held_out.host_speed,
                              "setup_s": held_out.setup_s,
                              "failed_specs": held_out.failed_specs}
        traced = run_child(w, children[0].cli_seed, reference[str(children[0].cli_seed)],
                           work, calibrator, mode="trace", cpu=cpus[0])
        all_runs += [held_out, traced]
        spans = traced.marks.get("spans", [])
        missing = missing_coverage(w, spans) if traced.code == 0 else []
        for layer, hook in missing:
            print(f"perfbench: layer {layer!r} lost coverage: {hook} recorded no calls",
                  file=sys.stderr)
        if traced.code == 3 or missing:  # fail loudly; never report a lost layer as 0
            return 3
        same = (
            traced.code == 0
            and tree_digest(traced.out) == first_digest
            and traced.stdout == children[0].stdout
        )
        if not same:
            traced.failed_specs = sorted(reference[str(traced.cli_seed)])
        shutil.rmtree(traced.out, ignore_errors=True)
        (work / "spans.json").write_text(json.dumps(spans))
        # Overhead compares runs of one input up to the return of main, which
        # leaves out the traced child's span dump: the untraced runs of the
        # traced seed against the traced one, all at the reference host speed.
        untraced_wall = statistics.median(
            c.main_wall_s * c.host_speed for c in children if c.cli_seed == traced.cli_seed
        )
        traced_wall = None if traced.main_wall_s is None else traced.main_wall_s * traced.host_speed
        metrics = (layers.per_layer(spans, traced.main_wall_s, traced_wall - untraced_wall)
                   if spans and traced_wall is not None else {})
        by_layer = layers.Spans(spans).self_by_layer()
        detail["trace"] = {
            "cli_seed": traced.cli_seed,
            "outputs_equal_untraced": same,
            "traced_main_wall_s": traced_wall,
            "untraced_median_main_wall_s": untraced_wall,
            "traced_host_speed": traced.host_speed,
            "span_count": len(spans),
            "top_self_s": layers.top_self(by_layer),
            "self_s_by_layer": by_layer,
            "layers_run": sorted({layers.LAYER_OF[s["name"]] for s in spans}),
        }
        units = dict(layers.METRICS)
    else:
        # Times are scaled to the reference host's speed (hostspeed.py); the
        # raw ones stay in the detail record.
        stats = {
            "wall_s": summary(children, lambda c: c.wall_s * c.host_speed),
            "fits_per_s": summary(children, lambda c: w.fits / (c.wall_s * c.host_speed)),
            "peak_rss_mb": summary(children, lambda c: c.peak_rss_mb),
            "raw_wall_s": summary(children, lambda c: c.wall_s),
            "host_speed": summary(children, lambda c: c.host_speed),
        }
        if all(c.setup_s is not None for c in children):
            # Set-up does not depend on the input, so every child counts once.
            stats["setup_s"] = summary(children, lambda c: c.setup_s * c.host_speed,
                                       by_seed=False)
            stats["raw_setup_s"] = summary(children, lambda c: c.setup_s, by_seed=False)
        detail["end_to_end"] = stats
        metrics = {k: v["median"] for k, v in stats.items() if k in END_TO_END_UNITS}
        units = END_TO_END_UNITS

    attempted = len(w.specs) * len(all_runs)
    failed = sum(len(c.failed_specs) for c in all_runs)
    detail["error_rate"] = failed / attempted
    result = {
        "correct": failed == 0 and metrics.keys() == units.keys(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    detail_line = json.dumps(detail)
    (work / "detail.json").write_text(detail_line + "\n")
    print(detail_line)
    print(json.dumps(result))
    return 0


def missing_coverage(w: Workload, spans: list[dict]) -> list[tuple[str, str]]:
    """Hooks this workload's command must call but that recorded no span."""
    called = {(s["name"], (s["attrs"] or {}).get("family")) for s in spans}
    called |= {(name, None) for name, _ in called}
    expected = [
        (layer, f"{module}.{name}", (f"{module.removeprefix('ldmcap.')}.{name}", None))
        for module, name, layer, commands in HOOKS
        if w.command in commands
    ]
    expected.append(("ldm", "ldmcap.ldm.LDMatrix.matrix", ("ldm.matrix", None)))
    for family in {spec.partition(":")[0] for spec in w.specs}:
        expected.append((
            "classifiers",
            f"ldmcap.classifiers.{MODEL_CLASSES[family]}.predict_proba_batch",
            ("classifiers.predict", family),
        ))
    return [(layer, hook) for layer, hook, key in expected if key not in called]


if __name__ == "__main__":
    sys.exit(main())
