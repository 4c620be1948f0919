"""The benchmark's own checks: determinism, metric names, oracle agreement.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ulrich_kit as uk  # noqa: E402
import workloads as W  # noqa: E402
from run import Tally, cli_outcome, load_digests, timed_child  # noqa: E402
from tracer import Tracer  # noqa: E402


def fingerprint(workload, seed, pass_no=0):
    ops, probes = W.build(workload, seed, uk)(pass_no), W.probes(workload, uk)
    if workload == "cli-process":
        return [(op.op_id, op.argv) for op in ops + probes]
    return [(op.op_id, op.kind, repr(op.expected())) for op in ops + probes]


@pytest.mark.parametrize("workload", ["wide-window", "default-sweep", "scan-grid", "cli-process"])
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert fingerprint(workload, 7) == fingerprint(workload, 7)
    assert fingerprint(workload, 7) != fingerprint(workload, 8)


def test_default_sweep_repeats_shapes_not_inputs_across_passes():
    first, second = fingerprint("default-sweep", 7, 0), fingerprint("default-sweep", 7, 1)
    assert [kind for _, kind, _ in first] == [kind for _, kind, _ in second]
    assert sum(a != b for a, b in zip(first, second)) > len(first) // 2
    assert fingerprint("default-sweep", 7, 1) == second


def traced_counts(ops):
    tracer = Tracer()
    tracer.install()
    try:
        for op in ops:
            op.run()
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    return snap["calls"], snap["errors"], snap["counters"]


def test_same_seed_same_layer_counts():
    first = traced_counts(W.build("default-sweep", 5, uk)(0)[:300])
    assert first == traced_counts(W.build("default-sweep", 5, uk)(0)[:300])
    assert first[0]["cohomology.sheaf_table"] > 0 and first[0]["chern.class_of"] > 0


def test_columns_computed_counts_outermost_oracle_columns():
    pn2 = uk.proj_space(2)
    summed = uk.direct_sum(uk.line_bundle(0), uk.line_bundle(1))
    ops = [lambda: uk.sheaf_table(summed, pn2), lambda: uk.sheaf_column(summed, pn2, 3)]
    lo, hi = uk.variety.default_window(pn2)
    tracer = Tracer()
    tracer.install()
    try:
        for op in ops:
            op()
    finally:
        tracer.uninstall()
    assert tracer.snapshot()["counters"]["cohomology.columns_computed"] == hi - lo + 1 + 1


def test_wrong_scan_rows_name_the_fields_that_differ():
    op = W.build("scan-grid", 3, uk)(0)[1]
    rows = op.run()
    assert op.mismatch(rows) is None
    bent = [dataclasses.replace(row, heart_status="Bent") for row in rows]
    assert op.mismatch(bent) == ("heart_status",)
    assert op.mismatch(rows[1:]) == ("rows",)


def test_scan_probes_are_wrong_only_where_the_known_defect_reaches():
    tally = Tally()
    for op in W.probes("scan-grid", uk):
        rows = op.run()
        tally.record(op.op_id, None, op.mismatch(rows), op.known)
        bent = [dataclasses.replace(row, best_shift=7) for row in rows]
        tally.record(op.op_id, None, op.mismatch(bent), op.known)
    # the float re/im are known; a bent best_shift is a new wrong answer
    probes = len(W.probes("scan-grid", uk))
    assert len(tally.known_wrong) <= probes
    assert all(set(fields) <= set(W.SCAN_FLOAT_FIELDS) for _, fields in tally.known_wrong)
    assert len(tally.wrong) == probes
    assert all("best_shift" in fields for _, fields in tally.wrong)


def test_tracer_restores_the_package():
    before = (uk.sheaf_table, uk.CohomologyTable.column, uk.ulrich.hyper_table)
    tracer = Tracer()
    tracer.install()
    assert uk.sheaf_table is not before[0]
    tracer.uninstall()
    assert (uk.sheaf_table, uk.CohomologyTable.column, uk.ulrich.hyper_table) == before


def test_same_cli_op_same_digest():
    W.write_objects()
    digests = load_digests()
    for op in W.cli_pool()[::20]:
        runs = [timed_child([sys.executable, "-m", "ulrich_kit.cli"] + op.argv)[0] for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert cli_outcome(op, runs[0], digests) == (None, None), op.argv


@pytest.mark.parametrize("workload", ["default-sweep", "wide-window"])
def test_oracle_agrees_with_the_kit_at_small_windows(workload):
    ops = W.build(workload, 11, uk)(1)
    if workload == "wide-window":
        ops = [op for op in ops if op.tag[1] == W.RUNGS[0]]
    tally = Tally()
    for op in ops:
        tally.record(op.op_id, None, op.mismatch(op.run()))
    assert tally.wrong == []


def last_json(proc):
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_the_benchmark_file_for_any_seed(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec[key]}
    for seed in (1, 2):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "default-sweep",
             "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, timeout=170)
        assert proc.returncode == 0, proc.stderr.decode()[-800:]
        result = last_json(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_package():
    proc = subprocess.run(
        [sys.executable, "run.py", "--workload", "default-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=BENCH, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
