"""Benchmark of the ainfbg pipelines, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cochain --seed 0 --seconds 10 --trace 0

Workloads, named in BENCHMARK.json: cochain, loops, certify and replay
(see bench_workloads.py).  `--quick` runs the smallest input of each.

The timed part repeats passes over the workload's operations while the
next pass is expected to end within `--seconds`; every run makes at least
one pass.  Each operation's output is checked; a failed check or an
exception counts the operation as failed.  Set-up (interpreter start,
imports and building the inputs, filling the cache for replay) runs
SETUP_REPEATS times in child processes and `setup_s` is its median.
Times are corrected for the host's speed (bench_host); the record keeps
the raw ones.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
measured untraced.  With `--trace 1` the untraced measurement is followed
by two traced rounds; the metrics are the per-layer ones from the first
round, plus the tracing overhead, and the run fails when a witness count
(WITNESSES) differs between the two rounds.  Spans of the first round go
to .perfbench-out/.

The last line of standard output is the result, a JSON object with the
keys correct, attempted, failed and metrics.  The line before it is the
run's record: machine, versions, revision, seed, BLAS thread cap, load
average at start and end, fail ratio, raw times and any failures.  Exit
code 0 means every operation passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
# passes per traced round: one pass of the compute workloads already
# spans many layer calls; replay needs more for its millisecond calls
TRACE_PASSES = {"cochain": 1, "loops": 1, "certify": 1, "replay": 20}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# counts that must repeat exactly between runs of the same seed
WITNESSES = (
    "grp.end_dga.dim", "grp.end_dga.max_block",
    "dga.contraction.calls", "dga.cobar.dim", "dga.cobar.max_block",
    "dga.validate_dga.triples", "dga.validate_dga.pairs",
    "glin.row_reduce.calls", "glin.rank_nullspace.calls", "glin.solve.calls",
    "glin.invert.calls", "glin.greedy_extend.calls",
    "transfer.op.calls", "transfer.memo_entries", "transfer.nonzero_entries",
    "transfer.truncated_words", "ainf.stasheff_defect.words",
    "koszul.loop_word_count.words",
)
# witnesses that differ between seeds: the sampled validate_dga calls
# draw with the seed.  The basis reorder of the two pipelines moves no
# witness (seeds 0 and 1 compared on cochain and loops).
SEED_SENSITIVE = ("dga.validate_dga.triples", "dga.validate_dga.pairs")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cochain", "loops", "certify", "replay"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="the smallest input of the workload")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="run the set-up alone, with DIR as its scratch "
                             "directory, and exit")
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS thread pools at nproc before numpy loads; returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def blas_record(np) -> dict:
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = None
    caps = {var: os.environ[var] for var in BLAS_THREAD_VARS}
    return {"library": name, "thread_caps": caps if name else None}


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def source_digest() -> str:
    """SHA-256 over the package sources; identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ainfbg").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Tally:
    """Times and outcomes of the operations run so far, on the clock of
    a HostSampler."""

    def __init__(self, host) -> None:
        self.host = host
        self.calls: list[tuple[int, float, float]] = []   # (pass, start, end)
        self.raw_passes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, workload, tracer=None) -> None:
        index = len(self.raw_passes)
        total = 0.0
        for op in workload.ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op += 1
            start = self.host.begin()
            try:
                result = op.call()
            except Exception as exc:  # a raising operation is a failed one
                self.host.end()
                problems = [f"{type(exc).__name__}: {exc}"]
            else:
                end = self.host.end()
                self.calls.append((index, start, end))
                total += end - start
                try:
                    problems = op.check(result)
                except Exception as exc:  # so is output the check cannot read
                    problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.failures.append(f"{op.name}: {'; '.join(problems[:5])}")
        self.raw_passes.append(total)

    def run_for(self, workload, seconds: float) -> None:
        """Passes while the next one is expected to end within `seconds`."""
        start = time.perf_counter()
        while True:
            self.run_pass(workload)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(self.raw_passes) > seconds:
                return

    def times(self, passes: range) -> dict[str, tuple[list[float], list[float]]]:
        """Corrected and raw seconds per pass and per call, for `passes`."""
        out = {"passes": ([0.0] * len(passes), [0.0] * len(passes)),
               "calls": ([], [])}
        for index, start, end in self.calls:
            if index not in passes:
                continue
            raw = end - start
            corrected = raw * self.host.scale(start, end)
            out["passes"][0][index - passes.start] += corrected
            out["passes"][1][index - passes.start] += raw
            out["calls"][0].append(corrected)
            out["calls"][1].append(raw)
        return out


def timings(passes: list[float], calls: list[float],
            setup: list[float]) -> dict[str, float]:
    # p99 is recorded but is no metric: on a shared 2-core host the top
    # 2 % of replay calls are the ones a garbage collection or preemption
    # lands in, and p99 moved by up to 0.24 of its median between runs
    return {
        "wall_s": statistics.median(passes),
        "setup_s": statistics.median(setup),
        "call_ms.p50": 1000 * statistics.median(calls or [0.0]),
        "call_ms.p95": 1000 * quantile(calls or [0.0], 95),
        "call_ms.p99": 1000 * quantile(calls or [0.0], 99),
    }


def setup_only(args) -> int:
    """The set-up, under its own sampler; prints the sampler's account."""
    import bench_host
    from bench_workloads import WORKLOADS, fill_cache

    scratch = Path(args.setup_only)
    with bench_host.HostSampler() as host:
        host.begin()
        if args.workload == "replay":
            fill_cache(scratch, args.quick)
        WORKLOADS[args.workload](args.seed, args.quick, scratch)
        host.end()
    print(json.dumps({"stolen": host.stolen,
                      "samples": [took for _, took in host.samples]}))
    return 0


def measure_setup(args, run_dir: Path):
    """Time SETUP_REPEATS fresh set-ups in child processes; returns their
    corrected and raw times and the scratch directory of the last one,
    for the timed part to use."""
    import bench_host

    corrected, raw = [], []
    for i in range(SETUP_REPEATS):
        scratch = run_dir / f"setup{i}"
        scratch.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only", str(scratch)] + (["--quick"] if args.quick else [])
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, check=True, timeout=150,
                              stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        account = json.loads(proc.stdout.splitlines()[-1])
        raw.append(wall - account["stolen"])
        corrected.append(raw[-1] * bench_host.REF_NOMINAL_S
                         / bench_host.trimmed_mean(account["samples"]))
    return corrected, raw, scratch


def traced_rounds(workload, name: str, tally: Tally, spans_path: Path):
    """Two traced rounds; returns the first round's layer totals and counts,
    its corrected time per pass, and the witnesses that differ between the
    rounds."""
    from bench_trace import Tracer

    tracer = Tracer(clock=tally.host.now)
    rounds = []
    tracer.install()
    try:
        for _ in range(2):
            tracer.reset()
            workload.counts.clear()
            first = len(tally.raw_passes)
            for _ in range(TRACE_PASSES[name]):
                tally.run_pass(workload, tracer)
            if not rounds:
                tracer.write_spans(spans_path)
            rounds.append((tracer.span_totals(),
                           {**tracer.counts, **workload.counts},
                           range(first, len(tally.raw_passes))))
    finally:
        tracer.uninstall()
    (totals, counts, passes), (_, again, _) = rounds
    wall = statistics.median(tally.times(passes)["passes"][0])
    differ = sorted(k for k in WITNESSES if counts.get(k, 0) != again.get(k, 0))
    return totals, counts, wall, differ


def layer_values(totals: dict, counts: dict) -> dict[str, float]:
    """Every per-layer value the run can report, by metric name."""
    from bench_trace import GLIN_KERNELS, SPANS

    values: dict[str, float] = {}
    for name in SPANS:
        t = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        values[f"{name}.s"] = t["s"]
        values[f"{name}.self_s"] = t["self_s"]
        values[f"{name}.calls"] = t["calls"]
    values["glin.total_s"] = sum(values[f"glin.{k}.s"] for k in GLIN_KERNELS)
    lookups = counts.get("cli.cache.lookups", 0)
    values["cli.cache.hit_ratio"] = (counts.get("cli.cache.hits", 0) / lookups
                                     if lookups else 0.0)
    for name in WITNESSES + ("cli.cache.lookups",):
        values[name] = counts.get(name, values.get(name, 0))
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ainfbg" / "__init__.py").is_file():
        print(f"perfbench: no ainfbg sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import ainfbg
    if Path(ainfbg.__file__).resolve().parent != (SRC / "ainfbg").resolve():
        print(f"perfbench: imported ainfbg from {ainfbg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)

    import bench_host
    from bench_workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_start = os.getloadavg()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        setup, raw_setup, scratch = measure_setup(args, run_dir)
        workload = WORKLOADS[args.workload](args.seed, args.quick, scratch)
        with bench_host.HostSampler() as host:
            tally = Tally(host)
            tally.run_for(workload, args.seconds)
            timed = range(len(tally.raw_passes))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            differ: list[str] = []
            if args.trace:
                spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
                totals, counts, traced_wall, differ = traced_rounds(
                    workload, args.workload, tally, spans_path)
        split = tally.times(timed)
        corrected = timings(split["passes"][0], split["calls"][0], setup)
        values = {**corrected, "peak_rss_mb": peak_rss_mb}
        raw = timings(split["passes"][1], split["calls"][1], raw_setup)
        if args.trace:
            overhead = traced_wall - values["wall_s"]
            values = layer_values(totals, counts)
            values["trace.overhead_s"] = overhead
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    references = [took for _, took in host.samples]
    failed = tally.failed
    record = {
        "workload": args.workload, "seed": args.seed, "quick": args.quick,
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "git_revision": git_revision(), "source_sha256": source_digest(),
        "blas": blas_record(np),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "ops": tally.attempted, "fail_ratio": failed / max(tally.attempted, 1),
        "failures": tally.failures[:20],
        "passes": len(timed), "calls": len(split["calls"][0]),
        "corrected": corrected, "raw": raw,
        "reference_ms": {"samples": len(references),
                         "median": 1000 * statistics.median(references),
                         "min": 1000 * min(references),
                         "max": 1000 * max(references)},
    }
    if args.trace:
        record["witnesses_differing"] = differ
        record["seed_sensitive"] = list(SEED_SENSITIVE)
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[key]}
    result = {"correct": failed == 0 and not differ,
              "attempted": tally.attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"record": record, **result,
                              "call_s": split["calls"][0]}))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
