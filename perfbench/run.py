"""Benchmark of bilinctrl: seeded workloads run against the package in
``src/`` of this checkout.

    python3 perfbench/run.py --workload steer_sweep --seed 0 --seconds 15 \\
        --trace 0

Each run is one process and a closed loop with one caller: the workload's
units run back to back, in whole rounds, until ``--seconds`` have passed.
``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` runs a fixed number of rounds untraced and then the same rounds
with the span recorder installed, and reports the per-layer metrics.  The
last line of standard output is the result as JSON; the lines before it
print every metric by name, unit and sample count, and the run stamp.
The run exits 2, printing no result, when ``src/bilinctrl`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# BLAS runs on one thread: fixed, at most nproc, and steadier on a shared
# host than a thread per core.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 5           # fresh-process set-ups per run; setup_s = median
INPUT_HEADROOM = 10        # inputs cover rounds 10x faster than nominal
HELD_OUT_SEED = 7919       # reserved for confirming later claims

# fail_frac is 0 on three workloads and a gated metric must never be 0, so
# the gate is on ok_frac = 1 - fail_frac; fail_frac is printed beside it.
END_TO_END = [
    ("setup_s", "s"),
    ("ok_per_s", "units/s"),
    ("unit_s.p50", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
]


class BenchError(Exception):
    """The benchmark cannot run here (missing source tree, bad arguments)."""


def pin_blas_threads() -> None:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import bilinctrl from this checkout's ``src``, never from elsewhere."""
    package = SRC / "bilinctrl"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no package source at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bilinctrl
    if Path(bilinctrl.__file__).resolve().parent != package.resolve():
        raise BenchError(f"bilinctrl imported from {bilinctrl.__file__}, "
                         f"not from {package}")
    return bilinctrl


def load_workload(name: str):
    import_program()
    from workloads import WORKLOADS
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from "
                         f"{sorted(WORKLOADS)}")
    return WORKLOADS[name]


def rounds_needed(round_s: float, seconds: float, trace: bool) -> int:
    """Timed runs get inputs for more rounds than fit today; traced runs
    use a fixed count so their work counts repeat exactly per seed."""
    if trace:
        return max(1, round(0.5 * seconds / round_s))
    return max(2, math.ceil(INPUT_HEADROOM * seconds / round_s))


def set_up(args, workdir: Path):
    """Import, generate the run's inputs and warm up on a small problem:
    everything a run does before its first timed unit."""
    workload = load_workload(args.workload)
    from workloads import make_rounds
    workdir.mkdir(parents=True, exist_ok=True)
    n_rounds = rounds_needed(workload.round_s, args.seconds, bool(args.trace))
    rounds = make_rounds(workload, args.seed, n_rounds, str(workdir))
    workload.warm_up(str(workdir))
    return rounds


# -- set-up time -------------------------------------------------------------

def probe_setup(args) -> float:
    """Wall time from starting a fresh interpreter until it has imported the
    package, generated this run's inputs and warmed up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=str(ROOT))
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe failed (exit {code})")
    return elapsed


def setup_probe_main(args) -> int:
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        set_up(args, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


# -- passes -------------------------------------------------------------------

def timed_pass(rounds, seconds=None, recorder=None, per_unit=None):
    """Run whole rounds back to back.  With ``seconds``, stop at the round
    boundary nearest to it: after a round, go on only while half a mean
    round more still ends before ``seconds``."""
    from workloads import run_unit
    outcomes = []
    start = time.perf_counter()
    for done, units in enumerate(rounds, 1):
        for unit in units:
            before = dict(recorder.counts) if per_unit is not None else None
            outcomes.append(run_unit(unit, recorder))
            if per_unit is not None:
                per_unit.append(_count_delta(before, recorder.counts))
        elapsed = time.perf_counter() - start
        if seconds is not None and elapsed * (1 + 0.5 / done) >= seconds:
            break
    return outcomes


def _count_delta(before, after) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in sorted(after.items())
            if v != before.get(k, 0.0)}


def clear_caches(caches) -> None:
    for cached in caches:
        cached.cache_clear()


# -- run stamp ----------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code measured even in a
    checkout without git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "bilinctrl").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_name() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        return "unknown"


def run_stamp(args, rounds: int, units: int) -> dict:
    import numpy as np
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "units": units,
    }


# -- reporting ----------------------------------------------------------------

def print_failures(outcomes) -> None:
    """One line per (setup, status) of the units that did not pass."""
    groups = Counter((o.label, o.status, o.allowed) for o in outcomes
                     if not o.ok)
    for (label, status, allowed), n in sorted(groups.items()):
        example = next(o.detail for o in outcomes
                       if (o.label, o.status) == (label, status))
        kind = ("known defect, counted" if allowed
                else "makes the run incorrect")
        print(f"  failed  {label}: {n} x {status} ({kind}); e.g. {example}")


def result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units}})


# -- main ---------------------------------------------------------------------

def end_to_end(args, workdir: Path) -> int:
    start = time.perf_counter()
    rounds = set_up(args, workdir)
    in_process_setup = time.perf_counter() - start
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]

    outcomes = timed_pass(rounds, args.seconds)
    from workloads import tally
    t = tally(outcomes)
    walls = [o.wall_s for o in outcomes]
    n_rounds = len(outcomes) // len(rounds[0])
    metrics = {
        "setup_s": statistics.median(setups),
        "ok_per_s": t["ok"] / sum(walls),
        "unit_s.p50": statistics.median(walls),
        "ok_frac": t["ok"] / t["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{t['attempted']} units in {n_rounds} rounds"
          + ("  (inputs exhausted)" if n_rounds == len(rounds) else ""))
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups "
                   f"(this process: {in_process_setup:.3f} s)",
        "ok_per_s": f"{t['ok']} ok units / {sum(walls):.3f} s timed",
        "unit_s.p50": f"n={len(walls)} units",
        "ok_frac": f"{t['ok']} ok / {t['attempted']} attempted",
        "peak_rss_mb": "untraced process, n=1",
    }
    for name, unit in END_TO_END:
        print(f"  {name:<12} {metrics[name]:<22.6g} {unit:<8} "
              f"{notes[name]}")
    print(f"  {'fail_frac':<12} {t['fail_frac']:<22.6g} {'ratio':<8} "
          f"{t['failed']} failed / {t['attempted']} attempted")
    print_failures(outcomes)
    print("stamp " + json.dumps(run_stamp(args, n_rounds, t["attempted"])))
    print(result_line(t["correct"], t["attempted"], t["failed"], metrics,
                      END_TO_END))
    return 0


def traced(args, workdir: Path) -> int:
    from spans import Recorder, write_spans
    rounds = set_up(args, workdir)
    n_rounds = len(rounds)
    import layers
    from workloads import run_unit, tally
    caches = layers.program_caches()

    clear_caches(caches)
    untraced = timed_pass(rounds)

    recorder = Recorder()
    targets = layers.targets()
    per_unit = []
    clear_caches(caches)
    recorder.install(targets, layers.PACKAGE)
    try:
        traced_outcomes = timed_pass(rounds, recorder=recorder,
                                     per_unit=per_unit)
        spans = list(recorder.spans)
        counts = dict(recorder.counts)
        maxima = dict(recorder.maxima)
        # the first unit again, from the same (cleared) caches: its counts
        # must repeat exactly
        clear_caches(caches)
        before = dict(recorder.counts)
        run_unit(rounds[0][0], recorder)
        repeat = _count_delta(before, recorder.counts)
    finally:
        recorder.uninstall()
    repeat_ok = repeat == per_unit[0]

    metrics = layers.layer_metrics(
        spans, counts, maxima, [o.wall_s for o in traced_outcomes],
        [o.wall_s for o in untraced])
    t = tally(traced_outcomes)
    correct = t["correct"] and tally(untraced)["correct"] and repeat_ok
    fingerprint = hashlib.sha256(
        json.dumps(per_unit, sort_keys=True).encode()).hexdigest()[:16]
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
    write_spans(spans_path, spans)

    print(f"workload {args.workload}  seed {args.seed}  traced "
          f"{t['attempted']} units in {n_rounds} rounds "
          f"(same units untraced first)")
    for name, unit in layers.PER_LAYER:
        print(f"  {name:<46} {metrics[name]:<16.6g} {unit}")
    print(f"  work counts of the first unit repeat exactly: {repeat_ok}")
    print(f"  spans: {len(spans)} written to "
          f"{spans_path.relative_to(ROOT)}")
    print_failures(traced_outcomes)
    stamp = run_stamp(args, n_rounds, t["attempted"])
    stamp["counts_sha256"] = fingerprint
    print("stamp " + json.dumps(stamp))
    print(result_line(correct, t["attempted"], t["failed"], metrics,
                      layers.PER_LAYER))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        if args.setup_probe:
            return setup_probe_main(args)
        workdir = WORK / f"run-{os.getpid()}"
        try:
            return (traced if args.trace else end_to_end)(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
