"""The benchmark's one entry point.

    python bench/run.py                      every workload, end-to-end metrics
    python bench/run.py --traced             ... plus per-layer metrics and the
                                             Fig. 9 stage table per workload
    python bench/run.py --sets 2 --runs 10   repeatability: N sets of R seeds,
                                             written to bench/out/set-<i>.json
    python bench/run.py --compare A.json B.json
    python bench/run.py --workload cold-ship --seed 3 --seconds 20 --trace 0
                                             one run in this process; the last
                                             line of output is the result JSON

Every workload runs in a fresh process with all ``REPRO_*`` variables
scrubbed; the single-workload form *is* that process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import bootstrap

BENCHMARK_JSON = os.path.join(bootstrap.REPO_ROOT, "BENCHMARK.json")


def load_contract() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=bootstrap.REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict[str, object]:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace, contract: dict) -> int:
    bootstrap.prepare()
    from measure import run_workload
    from workloads import BY_NAME

    workload = BY_NAME.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(BY_NAME)}")
        return 2
    traced = bool(args.trace)
    result = run_workload(
        workload, args.seed, args.seconds, traced,
        rounds=args.rounds, size=args.size,
    )
    declared = contract["per_layer" if traced else "end_to_end"]
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(result.metrics):
        missing = sorted(set(names) ^ set(result.metrics))
        raise SystemExit(f"bench: emitted metrics differ from BENCHMARK.json: {missing}")

    print(json.dumps({"environment": {**environment(), **result.environment}}))
    if result.report:
        print(result.report)
    width = max(len(name) for name in names)
    for name in names:
        value, unit = result.metrics[name]
        print(f"{workload.name:13s} {name:{width}s} {value:14.4f} {unit}")
    for failure in result.failures[:20]:
        print(f"FAILED {failure}")
    print(f"{workload.name}: ops_failed / ops_attempted = "
          f"{result.failed} / {result.attempted}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name][0],
                           "unit": result.metrics[name][1]}
                    for name in names
                },
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# Every workload, one fresh process each
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: int, trace: int, echo: bool) -> dict:
    """Run one workload in a child process; returns its result object."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command,
        cwd=bootstrap.REPO_ROOT,
        env=bootstrap.scrubbed_environment(),
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"bench: workload {workload} exited {done.returncode}")
    if echo:
        print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[0])["environment"]
    return result


def run_all(args: argparse.Namespace, contract: dict) -> int:
    failed = 0
    for workload in [w["name"] for w in contract["workloads"]]:
        print(f"== {workload} ==")
        result = spawn(workload, args.seed, args.seconds, 0, echo=True)
        failed += result["failed"]
        if args.traced:
            result = spawn(workload, args.seed, args.seconds, 1, echo=True)
            failed += result["failed"]
    return 1 if failed else 0


def run_sets(args: argparse.Namespace, contract: dict) -> int:
    """N sets of R seeds each, interleaved run by run.

    The machine's speed drifts over minutes, so the sets are not run one
    after the other: for every workload and seed, each set gets its run
    back to back, and which set goes first alternates.
    """
    from compare import compare_files

    os.makedirs(bootstrap.OUT_DIR, exist_ok=True)
    sets: list[dict[str, list[dict]]] = [{} for _ in range(args.sets)]
    for workload in [w["name"] for w in contract["workloads"]]:
        for run in range(args.runs):
            seed = args.seed + run
            order = list(range(args.sets))
            if run % 2:
                order.reverse()
            for index in order:
                print(f"set {index + 1} {workload} seed {seed}", flush=True)
                sets[index].setdefault(workload, []).append(
                    spawn(workload, seed, args.seconds, 0, echo=False)
                )
    paths = []
    for index, runs in enumerate(sets, start=1):
        path = os.path.join(bootstrap.OUT_DIR, f"set-{index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"environment": environment(), "runs": runs}, handle, indent=1)
        paths.append(path)
    if len(paths) < 2:
        return 0
    return compare_files(paths[0], paths[1], contract)


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--sets", type=int)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    # Smoke tests only: a fixed number of rounds on a smaller document.
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--size", type=int)
    args = parser.parse_args()

    if args.compare:
        from compare import compare_files

        return compare_files(args.compare[0], args.compare[1], contract)
    if args.workload:
        return run_one(args, contract)
    if args.sets:
        return run_sets(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
