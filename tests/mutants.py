"""Mutant catalogue: each entry breaks one decision in ``src/`` and names the tests that catch it.

Run from anywhere::

    python tests/mutants.py

For each mutant the script copies ``src/`` to a temporary directory, replaces
the mutant's exact old text with its new text in that copy, and runs the
mutant's test node ids with ``pytest -x -q`` against the copy.  It exits 1 if
a mutant's old text does not occur exactly once in its file (the catalogue
has fallen behind the code) or if the tests still pass on the mutated copy
(the mutant survives).  The same node ids must first pass on an unmutated
copy, so that a failure is the mutant's doing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "channel walk steps from the start's row",
        "remest/channel.py",
        "[state := rows[state][b] for b in buckets]",
        "[state := rows[start][b] for b in buckets]",
        ("tests/test_channel.py::TestSampling::test_sample_paths_walk_columns_of_one_block",),
    ),
    Mutant(
        "a draw on a cumulative edge falls into the bucket below it",
        "remest/channel.py",
        'np.searchsorted(edges, uniforms, side="right")',
        'np.searchsorted(edges, uniforms, side="left")',
        ("tests/test_channel.py::TestSampling::test_draws_on_every_cumulative_edge",),
    ),
    Mutant(
        "the start-state cdf is left unnormalized",
        "remest/channel.py",
        "(cdf / cdf[-1]).tolist()",
        "cdf.tolist()",
        ("tests/test_sim.py::TestInitialState::test_draws_on_the_cdf_edges",),
    ),
    Mutant(
        "a frequency shared by two sensors passes the action check",
        "remest/sim.py",
        "shared = uses > 1",
        "shared = uses > 2",
        ("tests/test_sim.py::TestInvalidActionsThroughRun::test_first_fault_in_slot_order",),
    ),
    Mutant(
        "start states are not checked to be integers",
        "remest/channel.py",
        'if starts.dtype.kind not in "iu" and starts.size:',
        "if False:",
        (
            "tests/test_channel.py::TestSampling::test_samplers_reject_starts_outside_the_chain",
            "tests/test_sim.py::TestRun::test_initial_channel_state_checked",
        ),
    ),
    Mutant(
        "persistent-serial counts the current slot's success",
        "remest/sim.py",
        "np.cumsum(hit, axis=1) - hit)",
        "np.cumsum(hit, axis=1))",
        ("tests/test_sim.py::TestPolicies::test_persistent_serial_advances_in_index_order",),
    ),
    Mutant(
        "unreachable held times get hazard 0",
        "remest/channel.py",
        "out=np.ones_like(pmf)",
        "out=np.zeros_like(pmf)",
        ("tests/test_channel.py::TestBuildCascadedChain::test_matches_per_state_reference_bit_for_bit",),
    ),
    Mutant(
        "kernel weights drop the stay factor",
        "remest/stability.py",
        "drop_stay[:, :, 1:] *= 1.0 - chain.hazards[:, :-1]",
        "drop_stay[:, :, 1:] *= 1.0",
        ("tests/test_stability.py::TestKernelFactors::test_random_chains_match_dense_eig",),
    ),
    Mutant(
        "the Rayleigh-functional step degrades to one Newton step",
        "remest/stability.py",
        "if not moving.any():",
        "if True:",
        ("tests/test_stability.py::TestSingleChainKernel::test_exact_perron_vector_settles_in_two_steps",),
    ),
    Mutant(
        "the kernel's bracket narrows on the Rayleigh quotient, not the Collatz-Wielandt bounds",
        "remest/stability.py",
        "upper, lower = np.log(top), np.log(bottom)",
        "upper = lower = np.log(c.sum(axis=-1))",
        ("tests/test_stability.py::TestKernelFactors::test_random_chains_match_dense_eig",),
    ),
    Mutant(
        "a cell whose Perron vector is exact still solves with its singular shift",
        "remest/stability.py",
        "shifted[bottom == top] = eye",
        "shifted[bottom != bottom] = eye",
        ("tests/test_stability.py::TestKernelFactors::test_exact_vector_skips_its_singular_solve",),
    ),
    Mutant(
        "r keeps its entries on kernel rows that lead to no cycle",
        "remest/stability.py",
        "active = (np.cumprod(drop_stay > 0.0, axis=-1) * chain.hazards > 0.0).any(axis=-1)",
        "active = np.ones(drop_stay.shape[:2], dtype=bool)",
        ("tests/test_scenario_cli.py::TestSweep::test_slow_fading_sweep_never_leaves_the_kernel",),
    ),
    Mutant(
        "the kernel's inner solve keeps moving cells that have settled",
        "remest/stability.py",
        "step = np.where(moving, step - du, step)",
        "step = step - du",
        ("tests/test_scenario_cli.py::TestSweep::test_kernel_cells_equal_their_own_chains_at_full_size",),
    ),
    Mutant(
        "the stationary law weighs each held time by P(H > k) instead of P(H >= k)",
        "remest/channel.py",
        "np.cumprod(stay, axis=1)",
        "np.cumprod(1.0 - chain.hazards, axis=1)",
        (
            "tests/test_channel.py::TestStationaryDistribution::test_renewal_form_matches_power_oracle",
            "tests/test_channel.py::TestStationaryDistribution::test_thin_tail_pi_meets_its_own_balance_equations",
        ),
    ),
    Mutant(
        "a singular cycle solve escapes as LinAlgError",
        "remest/stability.py",
        "except np.linalg.LinAlgError as exc:",
        "except ZeroDivisionError as exc:",
        ("tests/test_stability.py::TestCycleChain::test_all_drop_chain_whose_radius_rounds_below_one_is_divergent",),
    ),
    Mutant(
        "each block of the cycle pmf's doubling is multiplied by F, not by F^h",
        "remest/stability.py",
        "np.matmul(rows[: min(h, j_max + 1 - h)], power, out=rows[h : 2 * h])",
        "np.matmul(rows[: min(h, j_max + 1 - h)], analysis.fail_step, out=rows[h : 2 * h])",
        ("tests/test_stability.py::TestCycleLengthPmf::test_bundled_and_large_chains_match_row_products",),
    ),
)


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _tests_pass(src: Path, tests) -> bool:
    """Whether ``tests`` pass with ``src`` as the package source."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    quiet = subprocess.DEVNULL
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=quiet, stderr=quiet).returncode == 0


def main() -> int:
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        every_test = sorted({t for m in MUTANTS for t in m.tests})
        if not _tests_pass(_copy_src(Path(tmp, "unmutated")), every_test):
            print("the catalogue's tests fail on the unmutated source", file=sys.stderr)
            return 1
        for k, mutant in enumerate(MUTANTS):
            src = _copy_src(Path(tmp, str(k)))
            path = src / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                verdict = "STALE: old text not found exactly once"
            else:
                path.write_text(text.replace(mutant.old, mutant.new))
                verdict = "SURVIVED" if _tests_pass(src, mutant.tests) else "caught"
            print(f"{verdict}  {mutant.file}: {mutant.name}")
            if verdict != "caught":
                faults.append(mutant.name)
    print(f"{len(MUTANTS) - len(faults)}/{len(MUTANTS)} mutants caught")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
