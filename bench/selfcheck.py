"""Self-check of the benchmark itself.

Run from the repository root: ``python3 bench/selfcheck.py`` (about a
minute).  It asserts that

1. a tiny-size run of every workload, untraced and traced, passes the gate
   and prints exactly the metric names listed in ``BENCHMARK.json``;
2. the gate trips when the greedy spectral factor is perturbed by one part
   in a million, and when the simulator delivers at a perturbed rate (its
   drop probabilities raised by 0.15).
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import run  # fixes the BLAS threads before numpy loads

ROOT = run.ROOT


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES), spec["workloads"]
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            names = set(result["metrics"])
            assert names == expected[trace], (workload, trace, names ^ expected[trace])
            assert result["correct"] and result["failed"] == 0, proc.stderr
            print(f"ok: {workload} trace={trace}: {len(names)} metrics, {result['attempted']} checked operations")


def failed_ops(patch_module, name, replacement) -> set[str]:
    """Ops of a tiny in-process bundled session that fail with one binding replaced."""
    import session

    workdir = run.OUT / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    original = getattr(patch_module, name)
    setattr(patch_module, name, replacement(original))
    try:
        s = session.Session("bundled-analytic", 5, True, workdir, None)
        s.op_verdict()
        s.op_csi()
        s.op_sweep()
        for policy in session.POLICIES:
            s.op_run(policy, s.sim_seeds[0])
    finally:
        setattr(patch_module, name, original)
        shutil.rmtree(workdir, ignore_errors=True)
    return {op for op, _ in s.failures}


def check_gate_trips() -> None:
    import numpy as np
    from remest import sim, sweep

    def scaled_factor(original):
        def perturbed(chain):
            factor, selection = original(chain)
            return factor * (1.0 + 1e-6), selection

        return perturbed

    failed = failed_ops(sweep, "current_csi_factor", scaled_factor)
    assert "sweep" in failed, failed
    print(f"ok: a factor perturbed by 1e-6 trips the gate in {sorted(failed)}")

    def raised_drops(original):
        def perturbed(scenario, policy, horizon, seed, **kwargs):
            drops = np.minimum(scenario.chain.drops + 0.15, 1.0)
            biased = dataclasses.replace(scenario, chain=scenario.chain.with_drops(drops))
            return original(biased, policy, horizon, seed, **kwargs)

        return perturbed

    failed = failed_ops(sim, "run", raised_drops)
    assert {f"run {p}" for p in ("persistent-serial", "round-robin", "greedy-topk")} <= failed, failed
    print(f"ok: a perturbed delivery rate trips the gate in {sorted(failed)}")


def main() -> int:
    run.load_package()
    check_metric_names()
    check_gate_trips()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
