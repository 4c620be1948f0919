"""ulrich-kit benchmark: seeded closed-loop workloads with known-answer checks.

Run from the root of a checkout (the package is read from ./src, nothing
is installed):

    python3 perfbench/run.py --workload wide-window --seed 1 --seconds 20 --trace 0

One client, one process, no extra threads; the cli-process workload runs
one child at a time.  Each run repeats passes over the workload's op
list until --seconds have passed, finishing the pass in progress.
Latencies are scaled to a reference CPU speed by a calibration loop run
between ops (see run_passes).  Each op's latency is its median over the
passes; ops_per_s and op_p50_ms are taken over those per-op latencies,
op_tail_ms over every sample.  Every output is checked against an
answer derived in oracle.py, and CLI stdout against the sha256 digests
in cli_digests.json.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same passes
untraced, then traced, each for half of --seconds, and prints the
per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

Known-defect probes (ops that crash on today's code) run once per run,
after the timed loop and the peak RSS reading, each in a fresh process
so caches are cold: CLI probes as CLI children, in-process probes
together in one child of this script (--probes-only).  They are
reported by op id and exception type, counted in failed_ratio, and kept
out of the timed ops, whose failures go to "failed".  Probes that give
a known wrong answer (scan-grid's float re/im) count in wrong_ratio and
are printed as known-wrong; they leave "correct" true only while every
field that differs is one the known defect explains.  A probe that
starts to succeed is checked against its known answer like any other op.
A wrong answer is reported with the fields that differ.

    python3 perfbench/run.py --write-digests

reruns the whole CLI pool once and rewrites cli_digests.json.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up time runs from here, before the imports

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
DIGESTS = HERE / "cli_digests.json"
SETUP_SAMPLES = 15
SETUP_CALIBRATIONS = 5
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10
CALIBRATION_REFERENCE_S = 0.0012
CALIBRATE_EVERY_S = 0.025
# Set-up (imports, unmarshalling, input generation) slows less than the
# calibration loop: over 475 set-up children on a shared 2-vCPU VM it
# took 1.37x as long when the loop took 1.72x, a log-log slope of 0.47
# to 0.53.  Set-up times are scaled by this power of the loop's ratio.
SETUP_SPEED_EXPONENT = 0.5
TRACEBACK = b"Traceback (most recent call last)"


# ---------------------------------------------------------------- helpers


def child_env() -> dict:
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))


def timed_child(argv):
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc, perf_counter() - start


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    j = max(0, n - TAIL_BEYOND - 1)
    return ordered[j], 100.0 * (j + 1) / n, n


class Tally:
    """Attempts, failures by op id and exception type, and wrong answers
    by op id and the fields that differ.  A wrong answer whose fields are
    all among the op's ``known`` ones is a known defect and goes to
    ``known_wrong``; every other one goes to ``wrong``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.wrong: list[tuple[str, tuple]] = []
        self.known_wrong: list[tuple[str, tuple]] = []

    def record(self, op_id: str, error: str | None, mismatch: tuple | None, known=()) -> None:
        """``mismatch`` is None for a right answer, else the fields that differ."""
        self.attempted += 1
        if error is not None:
            self.failures.append((op_id, error))
        elif mismatch is not None:
            wrong = self.known_wrong if set(mismatch) <= set(known) else self.wrong
            wrong.append((op_id, tuple(mismatch)))


# ------------------------------------------------------- in-process ops


def run_inprocess(op, tally):
    start = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a crashing op is a measured failure, not an abort
        elapsed = perf_counter() - start
        tally.record(op.op_id, type(exc).__name__, None)
        return elapsed
    elapsed = perf_counter() - start
    tally.record(op.op_id, None, op.mismatch(out), op.known)
    return elapsed


# -------------------------------------------------------------- CLI ops


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def cli_outcome(op, proc, digests):
    """(error, mismatch): error names a crash; mismatch is None when the
    output is right, else it names what is wrong: "answer" (exit code or
    report), "bytes" (stdout differs from the checked-in digest) or both."""
    if TRACEBACK in proc.stderr or proc.returncode not in (0, 1, 2, 3):
        return f"crash(exit {proc.returncode})", None
    text = proc.stdout.decode()
    if "--format" in op.argv:
        report = text
    else:
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return f"crash(non-JSON stdout, exit {proc.returncode})", None
    reference = digests.get(op.op_id)
    same_bytes = (reference is not None and reference["argv"] == op.argv
                  and reference["sha256"] == hashlib.sha256(proc.stdout).hexdigest())
    try:
        answer_ok = proc.returncode == op.expect_code and op.check_report(report)
    except (KeyError, TypeError):
        answer_ok = False
    mismatch = ("answer",) * (not answer_ok) + ("bytes",) * (not same_bytes)
    return None, mismatch or None


def run_cli(op, tally, digests, trace_file=None):
    if trace_file is None:
        prefix = [sys.executable, "-m", "ulrich_kit.cli"]
    else:
        prefix = [sys.executable, str(HERE / "cli_traced.py"), str(trace_file)]
    proc, elapsed = timed_child(prefix + op.argv)
    tally.record(op.op_id, *cli_outcome(op, proc, digests))
    return elapsed


# ---------------------------------------------------- known-defect probes


def run_probes(workload, uk, digests, trace_dir=None):
    """Run the workload's probes, each cold, out of this process's RSS.
    Returns their tally and, when trace_dir is given, their per-layer
    record."""
    from tracer import merge

    tally, record = Tally(), {}
    ops = W.probes(workload, uk)
    if not ops:
        return tally, record
    if workload == "cli-process":
        for op in ops:
            trace_file = None if trace_dir is None else trace_dir / f"{op.op_id}.json"
            run_cli(op, tally, digests, trace_file)
            if trace_file is not None:
                merge(record, json.loads(trace_file.read_text()))
        return tally, record
    proc, _ = timed_child([sys.executable, str(HERE / "run.py"), "--probes-only",
                           "--workload", workload, "--trace", str(int(trace_dir is not None))])
    if proc.returncode != 0:  # the child died: every probe in it failed
        for op in ops:
            tally.record(op.op_id, f"crash(exit {proc.returncode})", None)
        return tally, record
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    tally.attempted = result["attempted"]
    tally.failures = [tuple(f) for f in result["failures"]]
    tally.wrong = [(op_id, tuple(fields)) for op_id, fields in result["wrong"]]
    tally.known_wrong = [(op_id, tuple(fields)) for op_id, fields in result["known_wrong"]]
    return tally, result["record"] or {}


def probe_child(workload, uk, traced) -> int:
    """Body of --probes-only: run the in-process probes in this fresh
    process and print their tally (and traced record) as one JSON line."""
    tally, tracer = Tally(), None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        for op in W.probes(workload, uk):
            run_inprocess(op, tally)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps({"attempted": tally.attempted, "failures": tally.failures,
                      "wrong": tally.wrong, "known_wrong": tally.known_wrong,
                      "record": tracer.snapshot() if tracer is not None else None}))
    return 0


# ------------------------------------------------------------- the loop


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work shaped like the
    kit's inner loops: a dict with tuple keys, binomials, Fractions."""
    start = perf_counter()
    acc: dict = {}
    for i in range(12):
        for t in range(-20, 20):
            acc[(i % 5, t)] = acc.get((i % 5, t), 0) + math.comb(abs(t) + 4, 4)
    total = Fraction(0)
    for k, value in enumerate(acc.values()):
        total += Fraction(value, k + 1)
    return perf_counter() - start


def run_passes(ops_at, seconds, run_one):
    """Run pass after pass until `seconds` have passed, checks included.
    Returns the per-pass latency lists, scaled to reference speed, and the
    per-pass scale factors.  Only whole passes are kept.

    On a shared machine the CPU runs at full or about half speed for
    stretches of milliseconds to minutes.  The calibration runs every
    CALIBRATE_EVERY_S between ops; each pass's latencies are multiplied
    by CALIBRATION_REFERENCE_S over its median calibration time, so they
    read as on a CPU where the calibration takes the reference time."""
    passes, scales = [], []
    start = perf_counter()
    while True:
        calibrations, latencies = [calibrate()], []
        last = perf_counter()
        for op in ops_at(len(passes)):
            latencies.append(run_one(op, len(passes)))
            if perf_counter() - last >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate())
                last = perf_counter()
        scale = CALIBRATION_REFERENCE_S / statistics.median(calibrations)
        passes.append([x * scale for x in latencies])
        scales.append(scale)
        if perf_counter() - start >= seconds:
            return passes, scales


def op_latencies(passes) -> list[float]:
    """Each op's median scaled latency over the passes."""
    return [statistics.median(samples) for samples in zip(*passes)]


def ops_per_s(passes) -> float:
    latencies = op_latencies(passes)
    return len(latencies) / sum(latencies)


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from the start of run.py
    to the inputs being generated: the benchmark's and the kit's imports
    and input generation for this workload and seed.  Each child scales
    its figure to reference speed by calibrations it runs right after,
    in the same process, raised to SETUP_SPEED_EXPONENT.  Interpreter
    start is left out: no change to the repo moves it, and it carries
    most of the host's noise."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc, _ = timed_child(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.decode()[-400:]}")
        elapsed, calibration = json.loads(proc.stdout.decode().splitlines()[-1])
        samples.append(elapsed * (CALIBRATION_REFERENCE_S / calibration) ** SETUP_SPEED_EXPONENT)
    return statistics.median(samples)


def cli_import_ms() -> float:
    """Median fresh `import ulrich_kit.cli` minus median bare start."""
    def median_wall(code):
        return statistics.median(
            timed_child([sys.executable, "-c", code])[1] for _ in range(IMPORT_SAMPLES))
    bare = median_wall("pass")
    return 1000.0 * (median_wall("import ulrich_kit.cli") - bare)


# ------------------------------------------------------------- reporting


def emit(lines, correct, tally, metrics) -> None:
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def failure_lines(label, tally, probe_tally):
    attempted = tally.attempted + probe_tally.attempted
    failed = len(tally.failures) + len(probe_tally.failures)
    wrong = tally.wrong + probe_tally.wrong + probe_tally.known_wrong
    lines = [
        f"{label} attempted {attempted} ops ({probe_tally.attempted} known-defect probes)",
        f"failed_ratio {failed / attempted:.6f} ratio ({failed}/{attempted})",
        f"wrong_ratio {len(wrong) / attempted:.6f} ratio ({len(wrong)}/{attempted})",
    ]
    # one line per field, so a new wrong field shows next to a known one
    fields = Counter(name for _, names in wrong for name in names)
    lines += [f"wrong_field.{name} {n / attempted:.6f} ratio ({n}/{attempted})"
              for name, n in sorted(fields.items())]
    counts = Counter(tally.failures + probe_tally.failures)
    lines += [f"failure {op_id} {error} x{n}" for (op_id, error), n in sorted(counts.items())]
    known = set(probe_tally.known_wrong)
    lines += [f"{'known-wrong' if (op_id, names) in known else 'wrong'} {op_id} {','.join(names)}"
              for op_id, names in sorted(set(wrong))[:20]]
    return lines


def workload_lines(workload, ops, latencies):
    """Workload-specific end-to-end figures printed alongside the JSON."""
    lines = []
    if workload == "wide-window":
        rungs = {}
        for op, seconds in zip(ops, latencies):
            if op.tag and op.tag[0] == ("pn", 4) and op.tag[2] == "both":
                rungs.setdefault(op.tag[1], []).append(seconds)
        for w in W.RUNGS:
            lines.append(f"verdict_ms.w{w} {1000 * statistics.median(rungs[w]):.6f} ms")
        lo, hi = W.RUNGS[-2], W.RUNGS[-1]
        growth = math.log(statistics.median(rungs[hi]) / statistics.median(rungs[lo])) / math.log(hi / lo)
        lines.append(f"window_growth_exp {growth:.6f} 1 (log-log slope, w{lo} to w{hi})")
    if workload == "scan-grid":
        rows = sum(op.tag for op in ops)
        lines.append(f"rows_per_s {rows / sum(latencies):.3f} 1/s")
    return lines


# ------------------------------------------------------------------ main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="wide-window")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="generate the inputs, print the set-up time and a"
                             " calibration time in seconds, and exit")
    parser.add_argument("--probes-only", action="store_true",
                        help="run the in-process known-defect probes and print their tally")
    parser.add_argument("--write-digests", action="store_true",
                        help="run the CLI pool once and rewrite cli_digests.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ulrich_kit" / "__init__.py").is_file():
        print(f"perfbench: no ulrich_kit package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ulrich_kit as uk

    if args.write_digests:
        return write_digests()
    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {W.WORKLOADS}", file=sys.stderr)
        return 2
    if args.probes_only:
        return probe_child(args.workload, uk, args.trace)
    ops_at = W.build(args.workload, args.seed, uk)
    if args.setup_only:
        elapsed = perf_counter() - STARTED
        calibration = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
        print(json.dumps([elapsed, calibration]))
        return 0
    if args.trace:
        return traced_run(args, uk, ops_at)
    return plain_run(args, uk, ops_at)


def _runner(workload, digests, tally, trace_dir=None, on_child=None):
    if workload != "cli-process":
        return lambda op, pass_no: run_inprocess(op, tally)

    def run(op, pass_no):
        if trace_dir is None:
            return run_cli(op, tally, digests)
        trace_file = trace_dir / f"{op.op_id}.json"
        elapsed = run_cli(op, tally, digests, trace_file)
        on_child(op, pass_no, json.loads(trace_file.read_text()))
        return elapsed
    return run


def plain_run(args, uk, ops_at) -> int:
    digests = load_digests()
    tally = Tally()
    passes, scales = run_passes(ops_at, args.seconds, _runner(args.workload, digests, tally))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-process" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    # every child started from here on is left out of peak_rss_mb
    probe_tally, _ = run_probes(args.workload, uk, digests)
    setup_s = setup_seconds(args.workload, args.seed)
    latencies = op_latencies(passes)
    tail_s, tail_pct, count = tail([x for p in passes for x in p])
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s(passes), "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines = [f"workload {args.workload} seed {args.seed} passes {len(passes)} of {len(latencies)} ops;"
             f" median speed scale {statistics.median(scales):.4f}"]
    lines += failure_lines(args.workload, tally, probe_tally)
    lines += [f"{name} {value:.6f} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"op_tail_ms {1000 * tail_s:.6f} ms (p{tail_pct:.2f} of all {count} op samples,"
                 f" {TAIL_BEYOND} beyond it)")
    lines += workload_lines(args.workload, ops_at(0), latencies)
    emit(lines, not (tally.wrong or probe_tally.wrong), tally, metrics)
    return 0


def traced_run(args, uk, ops_at) -> int:
    from tracer import LAYERS, Tracer, merge

    digests = load_digests()
    out_dir = W.WORK_DIR / "trace"
    out_dir.mkdir(parents=True, exist_ok=True)
    inprocess = args.workload != "cli-process"
    tracer = Tracer()
    tally = Tally()
    per_pass: list[dict] = []
    spans: list[list] = []  # [op id, index, name, parent index, start, duration]

    def on_child(op, pass_no, record):
        if pass_no == len(per_pass):
            per_pass.append({})
        merge(per_pass[pass_no], record)
        if pass_no == 0:
            spans.extend([op.op_id, i] + list(span) for i, span in enumerate(record["spans"]))

    def close_pass():
        per_pass[-1] = tracer.snapshot()
        if len(per_pass) == 1:
            spans.extend(["", i] + list(span) for i, span in enumerate(tracer.spans) if span)

    probe_tally, probe_record = run_probes(args.workload, uk, digests, out_dir)

    # untraced passes give the reference throughput for the overhead figure;
    # each half of the run gets half of --seconds
    seconds = args.seconds / 2
    plain, _ = run_passes(ops_at, seconds, _runner(args.workload, digests, tally))
    if inprocess:
        inner = _runner(args.workload, digests, tally)

        def run_traced(op, pass_no):
            if pass_no == len(per_pass):  # a new pass begins
                if per_pass:
                    close_pass()
                tracer.reset()
                tracer.record_spans = pass_no == 0
                per_pass.append({})
            return inner(op, pass_no)

        tracer.install()
        try:
            traced, scales = run_passes(ops_at, seconds, run_traced)
            close_pass()
        finally:
            tracer.uninstall()
    else:
        traced, scales = run_passes(ops_at, seconds,
                            _runner(args.workload, digests, tally, out_dir, on_child))
    import_ms = cli_import_ms()

    first = merge(merge({}, probe_record), per_pass[0]) if probe_record else per_pass[0]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (first["calls"].get(layer, 0), "count")
        metrics[f"{layer}.errors"] = (first["errors"].get(layer, 0), "count")
        metrics[f"{layer}.self_ms"] = (
            1000 * statistics.median(p["self_s"].get(layer, 0.0) * scale
                                     for p, scale in zip(per_pass, scales)), "ms")
    counters = first["counters"]
    table_calls = first["calls"].get("cohomology.sheaf_table", 0)
    metrics["tables.column.entries_scanned"] = (counters["tables.column.entries_scanned"], "count")
    metrics["cohomology.columns_computed"] = (counters["cohomology.columns_computed"], "count")
    metrics["cohomology.sheaf_table.distinct_ratio"] = (
        counters["cohomology.sheaf_table.distinct_keys"] / table_calls if table_calls else 0.0,
        "ratio")
    metrics["cli.import_ms"] = (import_ms, "ms")
    plain_rate, traced_rate = ops_per_s(plain), ops_per_s(traced)
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (plain_rate - traced_rate) / plain_rate, "%")

    span_path = W.WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(span_path, "w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")
    lines = [f"workload {args.workload} seed {args.seed} traced passes {len(traced)}"
             f" (untraced {len(plain)}) of {len(plain[0])} ops"]
    lines += failure_lines(args.workload, tally, probe_tally)
    lines.append("counts cover the known-defect probes and the first traced pass;"
                 " self_ms is the median over traced passes, scaled like op latencies")
    lines += [f"{name} {value} {unit}" for name, (value, unit) in sorted(metrics.items())]
    lines.append(f"{len(spans)} spans of the first traced pass written to {span_path}")
    emit(lines, not (tally.wrong or probe_tally.wrong), tally, metrics)
    return 0


def write_digests() -> int:
    pool = W.cli_pool()
    W.write_objects()
    tally = Tally()
    reference = {}
    for op in pool:
        proc, _ = timed_child([sys.executable, "-m", "ulrich_kit.cli"] + op.argv)
        reference[op.op_id] = {"argv": op.argv, "sha256": hashlib.sha256(proc.stdout).hexdigest()}
        tally.record(op.op_id, *cli_outcome(op, proc, {op.op_id: reference[op.op_id]}))
    DIGESTS.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} digests to {DIGESTS};"
          f" failures {tally.failures} wrong {tally.wrong}")
    return 0 if not (tally.failures or tally.wrong) else 1


if __name__ == "__main__":
    sys.exit(main())
