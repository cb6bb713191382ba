"""Records the benchmark's reference data into perfbench/reference.json.

    python3 perfbench/record.py digests            # artifact digests, checked first
    python3 perfbench/record.py counts             # exact per-layer counts, seed 0
    python3 perfbench/record.py baseline --seeds 10 --seconds 30

``digests`` stores the SHA-256 of each workload's artifacts for the first
units of runs with ``--seed`` 0 and 1 (full size) and 0 (smoke size), after
the unit's own checks pass; ``run.py`` fails a recorded unit seed whose
artifacts differ. ``counts`` runs the traced benchmark twice per workload and
stores the exact counts, refusing counts that do not repeat. ``baseline`` runs
the untraced benchmark once per seed per workload and stores each end-to-end
metric's median, quartiles, spread and sample count. Other keys of
reference.json are kept.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

# mode -> (run seeds, units per run) whose unit digests are recorded
DIGEST_RUNS = {"full": ((0, 1), 12), "smoke": ((0,), 4)}
COUNTS = ("qfunction.value.calls_per_action", "replay.sample.calls",
          "spotq.masked_target.fired", "envs.reset.calls")


def record_digests(ref: dict) -> None:
    table = ref.setdefault("digests", {})
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for mode, (run_seeds, units) in DIGEST_RUNS.items():
            for name in WORKLOADS:
                recorder = run.Run(name, mode == "smoke", Path(tmp), {}, 0.0)
                for seed in (run.inner_seed(s, i) for s in run_seeds for i in range(units)):
                    done = recorder.unit(seed)
                    if done is None:
                        raise SystemExit(f"{mode} {name} unit seed {seed} failed its checks")
                    table.setdefault(mode, {}).setdefault(name, {})[str(seed)] = \
                        done[1]["digests"]
                    print(f"{mode} {name} unit seed {seed}: {done[1]['wall_s']:.2f} s",
                          flush=True)


def bench(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{name} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def record_counts(ref: dict) -> None:
    table = ref.setdefault("counts", {})
    for mode in ("full", "smoke"):
        for name in WORKLOADS:
            first, second = (bench(name, 0, 0, 1, mode == "smoke") for _ in range(2))
            counts = {k: first[k] for k in COUNTS}
            if counts != {k: second[k] for k in COUNTS}:
                raise SystemExit(f"{mode} {name}: counts differ between two runs of seed 0")
            table.setdefault(mode, {})[name] = {"seed": 0, **counts}
            print(f"{mode} {name}: {counts}", flush=True)


def record_baseline(ref: dict, n_seeds: int, seconds: float) -> None:
    table = ref.setdefault("baseline", {})
    for name in WORKLOADS:
        runs = [bench(name, seed, seconds, 0, False) for seed in range(n_seeds)]
        stats = {}
        for metric in run.END_TO_END:
            values = [r[metric] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            stats[metric] = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
                             "runs": len(values), "values": values}
        table[name] = {"seeds": list(range(n_seeds)), "seconds": seconds, "metrics": stats}
        print(name, {m: round(s["spread"], 4) for m, s in stats.items()}, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("digests", "counts", "baseline"))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    ref = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    if args.what == "digests":
        record_digests(ref)
    elif args.what == "counts":
        record_counts(ref)
    else:
        record_baseline(ref, args.seeds, args.seconds)
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
