#!/usr/bin/env python3
"""bench_e2e smoke test: a --quick run of every workload (two timed searches,
traced pass on) must write a parseable report in which every named metric
is either measured or deliberately absent, no evaluation failed and every
output check passed, including the seed-1 reference outputs.  The one-line
summaries must carry exactly the metrics BENCHMARK.json names, also when
kernels run on one thread.

    python3 smoke_test.py path/to/bench_e2e path/to/BENCHMARK.json
"""
import json
import os
import subprocess
import sys

# Every metric README.md defines.
NAMED = {
    "evals_per_s", "cpu_s_per_eval", "peak_rss_mb", "setup_s", "failed_eval_ratio",
    "cluster.eval_ms.p50", "cluster.eval_ms.p95", "cluster.overlap",
    "cluster.outside_eval_share", "cluster.wavefront_width.mean", "pool.busy_share",
    "nas.propose_us.p50", "nas.report_us.p50", "nas.build_init_ms.p50",
    "nn.forward_s", "nn.backward_s", "nn.optimizer_s", "nn.validate_s", "nn.batches",
    "nn.non_kernel_s", "data.batch_gather_s", "tensor.gemm_s", "tensor.conv_s",
    "tensor.gemm_gflops", "tensor.conv_gflops", "ckpt.serialize_ms.p50",
    "ckpt.put_ms.p50", "ckpt.get_ms.p50", "ckpt.bytes_written", "bank.dedup_ratio",
    "core.transfer_ms.p50", "core.values_copied", "core.transfer_hit_ratio",
    "exp.journal_append_ms.p50", "trace.overhead", "host.probe_ms",
    "ledger.unattributed_share",
}
WORKLOADS = {"cifar_lcs_serial", "cifar_lcs_par4", "nt3_lcs_bank_disk", "uno_none_par4"}


def summary_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


def check_summary(summary, names, what):
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}, what
    assert summary["correct"] is True and summary["failed"] == 0, what
    assert summary["attempted"] >= 1, what
    assert set(summary["metrics"]) == names, (what, set(summary["metrics"]) ^ names)


def main(binary, benchmark_json):
    with open(benchmark_json) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == WORKLOADS
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert (end_to_end | per_layer) <= NAMED

    run = subprocess.run([binary, "--quick", "--out", "smoke.json"],
                         capture_output=True, text=True, check=False)
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    assert run.returncode == 0, f"bench_e2e exited with {run.returncode}"
    with open("smoke.json") as f:
        doc = json.load(f)
    assert doc["checks"]["cifar_par4_trace_equals_serial"] is True
    assert {w["workload"] for w in doc["workloads"]} == WORKLOADS
    for w in doc["workloads"]:
        name = w["workload"]
        measured, absent = set(w["metrics"]), set(w["absent"])
        assert not measured & absent, (name, measured & absent)
        assert measured | absent == NAMED, (name, (measured | absent) ^ NAMED)
        assert all(w["absent"][m] for m in absent), (name, "absent metric without a reason")
        assert w["metrics"]["failed_eval_ratio"]["median"] == 0, name
        assert w["correct"] is True and w["failed"] == 0, name
        assert all(w["checks"][c] is True for c in
                   ("rerun_identical", "traced_identical", "replay_match")), name
        assert w["checks"]["reference"] == "match", name
        assert (end_to_end | per_layer) <= measured, (name, (end_to_end | per_layer) - measured)
    lines = summary_lines(run.stdout)
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        check_summary(line, per_layer, "--trace 1 summary line")

    run = subprocess.run([binary, "--workload", "uno_none_par4", "--quick", "--trace", "0"],
                         capture_output=True, text=True, check=False)
    assert run.returncode == 0, f"bench_e2e --trace 0 exited with {run.returncode}"
    last = json.loads(run.stdout.strip().splitlines()[-1])
    check_summary(last, end_to_end, "--trace 0 summary line")

    # With one kernel thread a serial workload runs no thread pool at all;
    # its per-layer summary line must still be complete.
    run = subprocess.run([binary, "--workload", "cifar_lcs_serial", "--quick", "--trace", "1"],
                         capture_output=True, text=True, check=False,
                         env=dict(os.environ, SWT_THREADS="1"))
    assert run.returncode == 0, f"bench_e2e with SWT_THREADS=1 exited with {run.returncode}"
    last = json.loads(run.stdout.strip().splitlines()[-1])
    check_summary(last, per_layer, "SWT_THREADS=1 --trace 1 summary line")
    print("bench_e2e smoke test passed")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
