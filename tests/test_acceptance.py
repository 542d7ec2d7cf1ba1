"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion lines.
The desk-scale experiments (criteria 4 and 5) take a few minutes combined.
"""

import json
import os
import time

import numpy as np

from rkdl.bench import ExperimentConfig, run_experiment
from rkdl.cli import main as cli_main
from rkdl.datasets import load_cifar10, load_idx, synth
from rkdl.kernel_dl import (
    KdlConfig,
    KernelDictionary,
    error_metric,
    kdl_train,
    morkdl_train,
    orkdl_train,
    rkdl_train,
)
from oracles import kernel_omp, kernel_vector_gradient, omp, swept
from rkdl.kernels import KernelSpec, dictionary_gradient, gram, self_kernel_diag
from rkdl.linear_dl import Dictionary, DLConfig, aksvd_train

LINEAR = KernelSpec("linear")

DESK_CONFIG = {
    "dataset": {"source": "synthetic", "m": 784, "n_signals": 1000, "n_components": 60,
                "sparsity": 5, "seed": 1234, "coeff_low": 1.0, "coeff_high": 3.0,
                "noise_sigma": 0.05},
    "methods": ["kdl", "rkdl-d", "orkdl-d", "morkdl-d"],
    "kernel": {"family": "rbf", "sigma": 10.0, "denom_factor": 1.0},
    "kernel_dl": {"n_atoms": 20, "sparsity": 4, "iters": 10, "grad_steps": 3,
                  "learning_rate": 5e-4, "penalty": 1.0},
    "linear_dl": {"n_atoms": 50, "sparsity": 5, "iters": 10},
    "rounds": 10,
    "base_seed": 0,
}


def trace_objective(Y, D, A, Z, spec):
    kyy = self_kernel_diag(Y, spec).sum()
    kyd = gram(Y, D, spec)
    kdd = gram(D, D, spec)
    t2 = np.einsum("la,al->", kyd @ A, Z)
    t3 = np.einsum("al,al->", Z, (A.T @ (kdd @ A)) @ Z)
    return kyy - 2.0 * t2 + t3


def central_difference(f, D, eps=1e-6):
    fd = np.zeros_like(D)
    for j in range(D.shape[1]):
        for i in range(D.shape[0]):
            Dp = D.copy(); Dp[i, j] += eps
            Dm = D.copy(); Dm[i, j] -= eps
            fd[i, j] = (f(Dp) - f(Dm)) / (2 * eps)
    return fd


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    specs = [KernelSpec("rbf", sigma=1.2, denom_factor=2.0),
             KernelSpec("rbf", sigma=2.5, denom_factor=1.0),
             KernelSpec("polynomial", alpha=0.6, beta=2),
             KernelSpec("polynomial", alpha=1.0, beta=3)]
    checked = 0
    worst = 0.0
    for trial in range(24):
        spec = specs[trial % len(specs)]
        m = int(rng.integers(3, 9))
        N = int(rng.integers(6, 21))
        n_d = int(rng.integers(2, 7))
        n_a = int(rng.integers(2, 5))
        Y = rng.standard_normal((m, N))
        D = rng.standard_normal((m, n_d))
        A = rng.standard_normal((n_d, n_a))
        Z = rng.standard_normal((n_a, N))
        if trial % 2 == 0:
            G = np.column_stack([kernel_vector_gradient(Y, D, A, Z, j, spec)
                                 for j in range(n_d)])
            fd = central_difference(lambda Dv: trace_objective(Y, Dv, A, Z, spec), D)
        else:
            lam = float(rng.uniform(0.3, 2.0))
            X = rng.standard_normal((n_d, N))
            G = dictionary_gradient(Y, D, A, Z, spec) - 2.0 * lam * (Y - D @ X) @ X.T
            fd = central_difference(
                lambda Dv: trace_objective(Y, Dv, A, Z, spec)
                + lam * np.sum((Y - Dv @ X) ** 2), D)
        rel = np.linalg.norm(G - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-5
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 20
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS gradient correctness: {checked} instances, "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_linear_kernel_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1)

    # kernel OMP vs plain OMP residual norms
    worst_resid = 0.0
    D = rng.standard_normal((8, 12))
    D /= np.linalg.norm(D, axis=0)
    k_dd = D.T @ D
    for _ in range(30):
        y = rng.standard_normal(8)
        sup, val = omp(D, y, 3)
        ksup, kval = kernel_omp(D.T @ y, float(y @ y), k_dd, np.eye(12), 3)
        x = np.zeros(12); x[sup] = val
        xk = np.zeros(12); xk[ksup] = kval
        diff = abs(np.linalg.norm(y - D @ x) - np.linalg.norm(y - D @ xk))
        worst_resid = max(worst_resid, diff)
        assert diff <= 1e-9

    # error metric vs explicit residual
    worst_metric = 0.0
    for _ in range(10):
        Y = rng.standard_normal((8, 15))
        Dv = rng.standard_normal((8, 5))
        A = rng.standard_normal((5, 4))
        Z = rng.standard_normal((4, 15))
        kdict = KernelDictionary(coefficients=A, vectors=Dictionary(Dv), kernel=LINEAR)
        explicit = np.linalg.norm(Y - Dv @ A @ Z) / np.sqrt(Y.size)
        diff = abs(error_metric(Y, kdict, Z) - explicit)
        worst_metric = max(worst_metric, diff)
        assert diff <= 1e-10

    # reduction identity: rkdl with D = Y reproduces kdl
    Y = rng.standard_normal((8, 100))
    cfg = KdlConfig(n_atoms=6, sparsity=3, iters=5, seed=17)
    _, _, full = kdl_train(Y, LINEAR, cfg)
    _, _, reduced = rkdl_train(Y, Dictionary(atoms=Y.copy()), LINEAR, cfg)
    worst_red = max(abs(a - b) for a, b in zip(full.errors, reduced.errors))
    assert worst_red <= 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\n[criterion 2] PASS linear-kernel oracles: residual diff {worst_resid:.1e}, "
          f"metric diff {worst_metric:.1e}, reduction diff {worst_red:.1e}, {elapsed:.1f}s")


def test_criterion_3_atom_sweep_monotonicity_and_stationarity():
    rng_master = np.random.default_rng(2)
    worst_increase = -np.inf
    for trial in range(60):
        rng = np.random.default_rng(int(rng_master.integers(0, 2**31)))
        m = int(rng.integers(5, 10))
        N = int(rng.integers(10, 30))
        n_d = int(rng.integers(3, min(m, 7)))
        n_a = int(rng.integers(2, 5))
        spec = [LINEAR, KernelSpec("rbf", sigma=2.0),
                KernelSpec("polynomial", alpha=0.5, beta=2)][trial % 3]
        Y = rng.standard_normal((m, N))
        D = rng.standard_normal((m, n_d))
        k_dd = gram(D, D, spec)
        k_yd = gram(Y, D, spec)
        A = rng.standard_normal((n_d, n_a))
        A /= np.sqrt(np.einsum("ij,ij->j", A, k_dd @ A))
        Z = np.zeros((n_a, N))
        for ell in range(N):
            sup = rng.choice(n_a, size=min(2, n_a), replace=False)
            Z[sup, ell] = rng.standard_normal(sup.size)
        before = trace_objective(Y, D, A, Z, spec)
        A2, Z2 = swept(k_dd, k_yd, A, Z)
        after = trace_objective(Y, D, A2, Z2, spec)
        worst_increase = max(worst_increase, after - before)
        assert after <= before + 1e-9
        # brute-force scale line search around the last updated atom
        used = [j for j in range(n_a) if Z2[j].any()]
        if used:
            last = max(used)
            for t in np.linspace(0.9, 1.1, 21):
                At = A2.copy()
                At[:, last] = t * A2[:, last]
                assert trace_objective(Y, D, At, Z2, spec) >= after - 1e-9
    print(f"\n[criterion 3] PASS sweep monotonicity on 60 instances, "
          f"worst objective change {worst_increase:.3e}")


def test_criterion_4_desk_scale_method_ordering():
    started = time.perf_counter()
    cfg = ExperimentConfig.from_dict(DESK_CONFIG)
    result = run_experiment(cfg)
    assert not result.any_failed
    means = {m: result.methods[m].errors[:, -1].mean() for m in cfg.methods}
    slack = 0.005 * means["kdl"]
    elapsed = time.perf_counter() - started
    assert means["morkdl-d"] <= means["orkdl-d"] + slack
    assert means["orkdl-d"] <= means["rkdl-d"] + slack
    assert means["rkdl-d"] <= means["kdl"] + slack
    assert elapsed < 600.0
    print(f"\n[criterion 4] PASS ordering at desk scale: "
          f"MORKDL {means['morkdl-d']:.5e} <= ORKDL {means['orkdl-d']:.5e} "
          f"<= RKDL {means['rkdl-d']:.5e} <= KDL {means['kdl']:.5e} "
          f"(slack {slack:.1e}), {elapsed:.0f}s")


def test_criterion_5_desk_scale_speedup():
    cfg = ExperimentConfig.from_dict({
        **DESK_CONFIG,
        "dataset": {**DESK_CONFIG["dataset"], "n_signals": 2000},
        "rounds": 1,
    })
    result = run_experiment(cfg)
    assert not result.any_failed
    kdl = np.mean(result.methods["kdl"].seconds)
    totals = {}
    for m in ("rkdl-d", "orkdl-d", "morkdl-d"):
        res = result.methods[m]
        totals[m] = np.mean(res.seconds) + np.mean(res.pretrain_seconds)
    assert totals["rkdl-d"] <= kdl / 3.0
    assert totals["orkdl-d"] < kdl
    assert totals["morkdl-d"] < kdl
    print(f"\n[criterion 5] PASS speedup at N=2000: KDL {kdl:.2f}s, "
          f"RKDL {totals['rkdl-d']:.2f}s (<= KDL/3 = {kdl / 3:.2f}s), "
          f"ORKDL {totals['orkdl-d']:.2f}s, MORKDL {totals['morkdl-d']:.2f}s "
          f"(totals include the shared linear-DL pretraining)")


def test_criterion_6_normalization_invariants():
    signals, _, _ = synth(24, 300, 16, 4, seed=11, coeff_low=1.0, coeff_high=3.0)
    Y = signals.values
    spec = KernelSpec("rbf", sigma=3.0, denom_factor=1.0)

    atom_norm_log = []

    def dl_callback(it, D, X):
        atom_norm_log.append(np.max(np.abs(np.linalg.norm(D, axis=0) - 1.0)))

    vectors, _ = aksvd_train(Y, DLConfig(n_atoms=12, sparsity=3, iters=8, seed=1),
                             callback=dl_callback)
    assert atom_norm_log and max(atom_norm_log) < 1e-10

    cfg = KdlConfig(n_atoms=6, sparsity=3, iters=6, seed=2, grad_steps=3,
                    learning_rate=1e-4, penalty=1.0, dl_sparsity=3)
    worst = 0.0
    count = 0
    log: list = []

    def kernel_callback(it, D, A, Z, k_dd):
        norms = np.einsum("ij,ij->j", A, k_dd @ A)
        log.append(np.max(np.abs(norms - 1.0)))

    for train in (lambda: kdl_train(Y, spec, cfg, callback=kernel_callback),
                  lambda: rkdl_train(Y, vectors, spec, cfg, callback=kernel_callback),
                  lambda: orkdl_train(Y, vectors, spec, cfg, callback=kernel_callback),
                  lambda: morkdl_train(Y, vectors, spec, cfg, callback=kernel_callback)):
        log.clear()
        train()
        assert len(log) == cfg.iters
        worst = max(worst, max(log))
        count += len(log)
        assert max(log) < 1e-8
    print(f"\n[criterion 6] PASS normalization: worst |a^T K a - 1| = {worst:.2e} "
          f"over {count} iterations across all four trainers; "
          f"linear atoms worst {max(atom_norm_log):.2e}")


def test_criterion_7_bench_determinism(tmp_path):
    cfg = {**DESK_CONFIG,
           "dataset": {**DESK_CONFIG["dataset"], "m": 64, "n_signals": 400},
           "kernel_dl": {**DESK_CONFIG["kernel_dl"], "iters": 5},
           "linear_dl": {**DESK_CONFIG["linear_dl"], "n_atoms": 20, "iters": 5},
           "rounds": 3}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc1 = cli_main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "a"), "--quiet"])
    rc2 = cli_main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--quiet"])
    assert rc1 == 0 and rc2 == 0
    a = (tmp_path / "a" / "errors.csv").read_bytes()
    b = (tmp_path / "b" / "errors.csv").read_bytes()
    assert a == b
    print(f"\n[criterion 7] PASS determinism: two bench runs produced "
          f"bit-identical errors.csv ({len(a)} bytes)")


def test_criterion_8_planted_recovery():
    signals, _, _ = synth(16, 400, 8, 2, seed=7)
    Y = signals.values
    errors = []

    def cb(it, D, X):
        errors.append(np.linalg.norm(Y - D @ X) / np.sqrt(Y.size))

    aksvd_train(Y, DLConfig(n_atoms=8, sparsity=2, iters=30, seed=0), callback=cb)
    reached = next((i + 1 for i, e in enumerate(errors) if e < 1e-6), None)
    assert reached is not None and reached <= 30
    print(f"\n[criterion 8] PASS planted recovery: error {errors[reached - 1]:.2e} "
          f"after {reached} iterations")


def _data_dir():
    return os.environ.get("RKDL_DATA", os.path.join(os.path.dirname(__file__), "..", "data"))


def test_criterion_9_loader_correctness(tmp_path):
    # structural checks on constructed files run unconditionally; the
    # official-corpus assertions engage when the files are present
    rng = np.random.default_rng(3)
    from test_datasets import write_cifar_batch, write_idx_images, write_idx_labels

    n = 1200
    images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labels.idx"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    histogram = np.bincount(labels, minlength=10)
    sm = load_idx(str(ip), str(lp), label_filter=5)
    assert sm.values.shape == (784, histogram[5])

    batches = []
    for b in range(5):
        nb = 1000
        lab = np.arange(nb) % 10
        pix = rng.integers(0, 256, size=(nb, 3072), dtype=np.uint8)
        p = tmp_path / f"data_batch_{b + 1}.bin"
        write_cifar_batch(p, lab, pix)
        batches.append(str(p))
    cm = load_cifar10(batches, label_filter=0)
    assert cm.values.shape == (1024, 500)

    messages = [f"constructed IDX label-5 count {histogram[5]} matches histogram; "
                f"constructed CIFAR label-0 gives (1024, 500)"]

    data = _data_dir()
    mnist_images = os.path.join(data, "train-images-idx3-ubyte")
    mnist_labels = os.path.join(data, "train-labels-idx1-ubyte")
    if os.path.exists(mnist_images) and os.path.exists(mnist_labels):
        sm = load_idx(mnist_images, mnist_labels, label_filter=5)
        from rkdl.datasets import _read_idx
        full_labels = _read_idx(mnist_labels, 2049)
        expected = int(np.sum(full_labels == 5))
        assert sm.values.shape == (784, expected)
        assert expected == 5421  # official train-set count for label 5
        messages.append(f"official MNIST label-5 count {expected}")
    else:
        messages.append("official MNIST files absent (set RKDL_DATA to enable)")

    cifar_batches = [os.path.join(data, "cifar-10-batches-bin", f"data_batch_{i}.bin")
                     for i in range(1, 6)]
    if all(os.path.exists(p) for p in cifar_batches):
        cm = load_cifar10(cifar_batches, label_filter=0)
        assert cm.values.shape == (1024, 5000)
        messages.append("official CIFAR-10 label-0 gives (1024, 5000)")
    else:
        messages.append("official CIFAR-10 batches absent (set RKDL_DATA to enable)")

    print(f"\n[criterion 9] PASS loaders: " + "; ".join(messages))
