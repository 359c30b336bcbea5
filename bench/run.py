"""Benchmark of the remest toolkit: three workloads, timed end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload bundled-analytic --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload, each in its own process, and prints
their reports one after another.  See ``bench/NOTES.md``.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
# fix the BLAS pool before numpy loads; the sweep stays on its serial path
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("REMEST_WORKERS", None)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

WORKLOAD_NAMES = ("bundled-analytic", "bundled-montecarlo", "large-chain")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-check")
    return parser.parse_args(argv)


def load_package():
    """Import the package from this checkout's ``src``, or exit 2."""
    if not (SRC / "remest" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'remest'}", file=sys.stderr)
        sys.exit(2)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import remest

    if Path(remest.__file__).resolve().parent != (SRC / "remest").resolve():
        print(f"bench: imported remest from {remest.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"sha": None, "dirty": None}
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def environment() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "git": git_state(),
    }


def slow_tail(name: str, samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, and the count."""
    n = len(samples)
    if n <= 10:
        return f"  n={n}"
    rate = name.endswith("per_s") or "_per_s." in name
    ordered = sorted(samples, reverse=rate)  # slowest last
    return f"  p{100 * (n - 10) // n} {ordered[n - 11]:.6g}  n={n}"


def report(session, workload: str, args, outcome: dict, env: dict, digest_ok: bool) -> dict:
    failed = len(outcome["failures"])
    attempted = outcome["attempted"]
    if args.trace:
        print(f"# {workload} seed={args.seed} rounds={outcome['rounds']} per-layer metrics (traced; medians)")
    else:
        print(f"# {workload} seed={args.seed} rounds={outcome['rounds']} end-to-end metrics: median, slow tail, samples")
    for name, (value, unit) in outcome["metrics"].items():
        if args.trace:
            extra = f"  -> {session.PER_LAYER[name][1]}"
        elif name in outcome["samples"]:
            extra = slow_tail(name, outcome["samples"][name])
        else:
            extra = ""
        print(f"{name:<44} {value:>16.6g} {unit:<9}{extra}")
    print(f"{'failed_ops_frac':<44} {failed / attempted:>16.6g} fraction ({failed}/{attempted})")
    match = {True: "yes", False: "no", None: "not computed"}[digest_ok]
    print(f"stream digests match the seed commit: {match} (information only)")
    print("env " + json.dumps(env, sort_keys=True))
    for op, problems in outcome["failures"]:
        for problem in problems:
            print(f"gate: {op}: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    if args.workload == "all":
        return run_all(args)

    import session

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        env = environment()
        try:
            digest_ok = session.stream_digest() == session.SEED_COMMIT_DIGEST
        except Exception as exc:  # information only; the gate judges correctness
            print(f"bench: stream digest not computed: {exc!r}", file=sys.stderr)
            digest_ok = None
        outcome = session.execute(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, workdir)
        if outcome["missing"]:
            for op, problems in outcome["failures"]:
                print(f"gate: {op}: {'; '.join(problems)}", file=sys.stderr)
            print(f"bench: no samples for {', '.join(outcome['missing'])}", file=sys.stderr)
            return 1
        result = report(session, args.workload, args, outcome, env, digest_ok)
        if outcome["tracer"] is not None:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
            outcome["tracer"].write(spans_path, {"seed": args.seed, "env": env})
            print(f"spans written to {spans_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
