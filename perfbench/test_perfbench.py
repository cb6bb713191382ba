"""The benchmark's own tests, on smoke-sized budgets (seconds per run).

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import unit  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per-layer metrics that must read exactly zero because the workload
# bypasses the layer; every other per-layer metric must be non-zero.
BYPASSED = {
    "grid-replay": {
        "envs.mask_for.calls", "envs.mask_for.s",
        "trainer.masked_policy_flag.calls", "trainer.masked_policy_flag.s",
        "trainer.run_validation.calls", "trainer.run_validation.s",
        "rewards.instant_reward.calls", "rewards.instant_reward.s",
        "spotq.masked_target.fired", "spotq.masked_target.fire_ratio",
    },
    "block-spotq": set(),
    "grid-converge-eval": set(),
}
EXACT = ("qfunction.value.calls_per_action", "replay.sample.calls",
         "spotq.masked_target.fired", "envs.reset.calls")


def bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT,
          script: Path = HERE / "run.py") -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload):
    code, lines = bench(workload, trace=0)
    assert code == 0, lines
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1]: line.split()[4] for line in lines if line.startswith("metric ")}
    assert printed == {**run.END_TO_END, **run.REPORTED}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_run_reports_every_layer(workload):
    code, lines = bench(workload, trace=1)
    assert code == 0, lines
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    zero = {k for k, v in metrics.items() if v["value"] == 0}
    assert zero == BYPASSED[workload]


def test_exact_counts_repeat_across_runs_of_one_seed():
    first = result_of(bench("block-spotq", trace=1, seed=3)[1])["metrics"]
    second = result_of(bench("block-spotq", trace=1, seed=3)[1])["metrics"]
    counts = [k for k, unit in run.PER_LAYER.items() if unit != "s" and k != "trace.overhead_ratio"]
    assert set(EXACT) <= set(counts)
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


@pytest.fixture
def harness():
    return unit.import_program()


def smoke_config(harness, name: str, out: Path, seed: int = 0):
    return harness.resolve_run_config(WORKLOADS[name].config_values(seed, True, out))


def test_tracer_wraps_every_binding_and_restores_it(harness):
    from spotrl import qfunction, spotq, trainer
    before = (trainer.masked_argmax, harness.evaluate, harness.dump_qfunction,
              trainer.instant_reward)
    with Tracer() as tracer:
        assert not tracer.missing
        assert trainer.masked_argmax is spotq.masked_argmax
        assert trainer.masked_argmax.__wrapped__ is before[0]
        assert harness.evaluate is trainer.evaluate
        assert harness.evaluate.__wrapped__ is before[1]
        assert harness.dump_qfunction is qfunction.dump_qfunction
        assert harness.dump_qfunction.__wrapped__ is before[2]
        assert trainer.instant_reward.__wrapped__ is before[3]
    assert (trainer.masked_argmax, harness.evaluate, harness.dump_qfunction,
            trainer.instant_reward) == before
    assert set(tracer.stats) == set(TARGETS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_artifacts_equal_untraced(harness, tmp_path, workload):
    rc = smoke_config(harness, workload, tmp_path / "run")
    plain = unit.run_unit(harness, rc)
    with Tracer() as tracer:
        traced = unit.run_unit(harness, rc, tracer)
    assert traced["digests"] == plain["digests"]
    assert {"qtable.txt", "trials.csv", "eval_trials.csv", "summary.json"} <= set(plain["digests"])
    assert tracer.calls("replay.train_step") == plain["updates"]
    assert tracer.calls("replay.push") == plain["actions"]


def test_recorded_smoke_digests_still_match(harness, tmp_path):
    recorded = json.loads(run.REFERENCE.read_text())["digests"]["smoke"]
    assert set(recorded) == set(WORKLOADS)
    for name, by_seed in recorded.items():
        for seed, expected in by_seed.items():
            rc = smoke_config(harness, name, tmp_path / name / seed, int(seed))
            assert unit.run_unit(harness, rc)["digests"] == expected, (name, seed)


def test_a_digest_mismatch_fails_the_unit(tmp_path):
    ok = run.Run("grid-replay", True, tmp_path, {}, 0.0)
    _, result = ok.unit(0)
    assert ok.failed == 0
    wrong = dict(result["digests"], **{"qtable.txt": "0" * 64})
    bad = run.Run("grid-replay", True, tmp_path, {"0": wrong}, 0.0)
    assert bad.unit(0) is None and bad.failed == 1 and bad.attempted == 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, lines = bench("grid-replay", trace=0, cwd=tmp_path,
                        script=tmp_path / "perfbench" / "run.py")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
