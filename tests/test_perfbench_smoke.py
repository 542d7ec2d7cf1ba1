"""The benchmark's schema check: every workload on tiny shapes, both modes.

A renamed phase, warning counter or public entry point that the benchmark
reads shows up here instead of in a full benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout.splitlines()


# One traced reduced-8k round on the smoke shapes; prints the per-layer
# metrics and the smoke configuration as the last line.
TRACED_ROUND = """
import json, sys
sys.path.insert(0, "perfbench")
import run
run._import_rkdl()
import workloads
result = run.run_workload("reduced-8k", seed=0, seconds=0.5, trace=True, shapes="smoke")
print(json.dumps({"metrics": result["metrics"], "correct": result["correct"],
                  "shapes": workloads.SMOKE, "methods": workloads.WORKLOAD_METHODS["reduced-8k"]}))
"""


def test_traced_reduced_round_sees_every_gram_gradient_and_linear_coding():
    # the trainers hold the products they reuse, yet every Gram refresh,
    # gradient step and linear coding is still one call through the module
    # bindings that the tracer wraps
    proc = subprocess.run([sys.executable, "-c", TRACED_ROUND], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"]
    assert out["methods"] == ["rkdl-d", "orkdl-d", "morkdl-d"]
    kd, dl = out["shapes"]["kernel_dl"], out["shapes"]["linear_dl"]
    assert kd["grad_steps"] > 0 and kd["learning_rate"] > 0 and kd["penalty"] > 0
    steps = kd["iters"] * kd["grad_steps"]    # per optimized method
    per_round = {
        # K_DD and K_YD at start-up for each method, and after each gradient step
        "kernels.gram.calls": 2 * 3 + 2 * 2 * steps,
        "kernels.dictionary_gradient.calls": 2 * steps,
        # the shared AK-SVD pretrain codes once per iteration, morkdl-d once per iteration
        "sparse_coding.omp_batch.calls": max(dl["iters"], 1) + kd["iters"],
    }
    got = {name: out["metrics"][name]["value"] for name in per_round}
    assert got == per_round
