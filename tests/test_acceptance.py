"""Acceptance gate: ten end-to-end criteria covering formula fidelity,
gradient correctness, search and metric oracles, sampling invariants,
learner benchmarks, pipeline quality floors, architecture counts, and
byte-identical CLI reruns.

Each criterion is one test, numbered in order. On success it prints a
`criterion NN PASS` line with the measured figures straight to the
terminal (bypassing capture); a failure surfaces as an ordinary pytest
failure for that criterion. The slowest criterion (08, network training)
runs in a few minutes on one CPU core; everything else is seconds.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from cluster_data import separable_clusters
from scalar_formulas import scalar_index, scalar_rdnbr, scalar_rbr
from test_autodiff import fd_check
from test_bamcd import expected_count
from test_threshold import brute_force_fit

from burnmap import autodiff as ad
from burnmap.bamcd import (
    build,
    mini_config,
    paperlike_config,
    parameter_count,
    stack_samples,
    train,
    trace_to_text,
)
from burnmap.cli import main
from burnmap.features import sample_pixels
from burnmap.forest import rf_fit, rf_predict
from burnmap.metrics import ConfusionCounts, accumulate, compute_metrics
from burnmap.mlp import mlp_fit, mlp_predict
from burnmap.rasters import ALL_BANDS, RasterPatch
from burnmap.runs import evaluate_network
from burnmap.spectral import (
    IndexKind,
    UNITEMPORAL,
    compute_index,
    delta_field,
)
from burnmap.synthetic import (
    SyntheticConfig,
    benchmark_config,
    generate_dataset,
    generate_scene,
)
from burnmap.threshold import evaluate_threshold, fit_threshold

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def announce(capfd):
    def _announce(number: int, text: str):
        with capfd.disabled():
            print(f"criterion {number:02d} PASS: {text}")

    return _announce


def splits(samples):
    by = {"train": [], "val": [], "test": []}
    for s in samples:
        by[s.split].append(s)
    return by["train"], by["val"], by["test"]


def fingerprint(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


def test_criterion_01_index_formula_oracles(announce):
    """All fifteen indices match an independent scalar re-implementation on
    1,000 random pixels, relative error < 1e-6, in under 5 seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(910)
    n = 1000

    def patch():
        return RasterPatch(
            ALL_BANDS, rng.uniform(0.01, 1.0, (len(ALL_BANDS), 1, n)).astype(np.float32)
        )

    def pixel(p, c):
        return {b.value: float(p.band(b)[0, c]) for b in ALL_BANDS}

    checked = 0
    single = patch()
    for kind in UNITEMPORAL:
        field = compute_index(kind, single)[0]
        expected = np.array([scalar_index(kind.value, pixel(single, c)) for c in range(n)])
        np.testing.assert_allclose(field, expected, rtol=1e-6, err_msg=kind.value)
        checked += 1
    pre, post = patch(), patch()
    for kind, scalar in ((IndexKind.RDNBR, scalar_rdnbr), (IndexKind.RBR, scalar_rbr)):
        field = delta_field(kind, pre, post)[0]
        expected = np.array([scalar(pixel(pre, c), pixel(post, c)) for c in range(n)])
        np.testing.assert_allclose(field, expected, rtol=1e-6, err_msg=kind.value)
        checked += 1
    assert checked == 15
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(1, f"15 indices vs scalar oracle on {n} pixels, rtol 1e-6 ({elapsed:.2f}s)")


def test_criterion_02_gradient_checks(announce):
    """Every operator and all four losses agree with central finite
    differences at 64-bit, relative error < 1e-4, in under 60 seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(920)
    x = rng.standard_normal((2, 3, 4, 4))
    gamma = rng.standard_normal(3) + 1.0
    beta = rng.standard_normal(3)
    rm, rv = rng.standard_normal(3) * 0.1, rng.uniform(0.5, 2.0, 3)
    yhat = rng.uniform(0.05, 0.95, (2, 3, 4, 4))
    y = (rng.uniform(size=(2, 3, 4, 4)) < 0.4).astype(np.float64)

    cases = [
        ("add", lambda a, b: ad.add(a, b), [x, rng.standard_normal((3, 1, 4))]),
        ("mul", lambda a, b: ad.mul(a, b), [x, rng.standard_normal((1, 3, 1, 1))]),
        ("maximum", ad.maximum, [x, rng.standard_normal((2, 3, 4, 4))]),
        ("matmul", ad.matmul, [rng.standard_normal((5, 3)), rng.standard_normal((3, 4))]),
        ("bias_add nchw", ad.bias_add, [x, rng.standard_normal(3)]),
        ("bias_add rows", ad.bias_add, [rng.standard_normal((5, 3)), rng.standard_normal(3)]),
        ("channel_scale", ad.channel_scale, [x, rng.standard_normal((2, 3))]),
        ("reshape", lambda t: ad.reshape(t, (2, 48)), [x]),
        ("concat", lambda u, v: ad.concat([u, v], axis=1),
         [rng.standard_normal((2, 2, 4, 4)), x]),
        ("relu", ad.relu, [x]),
        ("sigmoid", ad.sigmoid, [x]),
        ("conv2d s1 p1", lambda t, w: ad.conv2d(t, w, stride=1, padding=1),
         [rng.standard_normal((2, 3, 6, 6)), rng.standard_normal((4, 3, 3, 3))]),
        ("conv2d s2 p1", lambda t, w: ad.conv2d(t, w, stride=2, padding=1),
         [rng.standard_normal((2, 3, 6, 6)), rng.standard_normal((4, 3, 3, 3))]),
        ("conv2d 1x1", lambda t, w: ad.conv2d(t, w),
         [rng.standard_normal((2, 3, 6, 6)), rng.standard_normal((4, 3, 1, 1))]),
        ("batchnorm train",
         lambda t, g, b: ad.batchnorm(t, g, b, np.zeros(3), np.ones(3), training=True),
         [x, gamma, beta]),
        ("batchnorm eval",
         lambda t, g, b: ad.batchnorm(t, g, b, rm.copy(), rv.copy(), training=False),
         [x, gamma, beta]),
        ("global_avg_pool", ad.global_avg_pool, [x]),
        ("upsample2x", ad.upsample2x, [x]),
        ("loss bce", lambda t: ad.loss_bce(t, y), [yhat]),
        ("loss focal", lambda t: ad.loss_focal(t, y, alpha=0.25, gamma=2.0), [yhat]),
        ("loss dice", lambda t: ad.loss_dice(t, y), [yhat]),
        ("loss bce_dice", lambda t: ad.loss_bce_dice(t, y), [yhat]),
        ("batchnorm train relu",
         lambda t, g, b: ad.batchnorm(
             t, g, b, np.zeros(3), np.ones(3), training=True, relu=True),
         [x, gamma, beta]),
        ("batchnorm eval relu",
         lambda t, g, b: ad.batchnorm(
             t, g, b, rm.copy(), rv.copy(), training=False, relu=True),
         [x, gamma, beta]),
        ("batchnorm train shortcut relu",
         lambda t, g, b, s: ad.batchnorm(
             t, g, b, np.zeros(3), np.ones(3), training=True, shortcut=s, relu=True),
         [x, gamma, beta, rng.standard_normal((2, 3, 4, 4))]),
    ]
    worst = 0.0
    for name, op, arrays in cases:
        try:
            worst = max(worst, fd_check(op, arrays, rng, tol=1e-4))
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from exc
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(
        2, f"{len(cases)} operator/loss gradients vs finite differences, "
        f"worst rel err {worst:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_03_threshold_brute_force(announce):
    """Grid search equals an exhaustive rescan on 20 random datasets."""
    t0 = time.perf_counter()
    kinds = [IndexKind.NBR, IndexKind.MIRBI, IndexKind.RDNBR, IndexKind.NDVI, IndexKind.BAIS2]
    for trial in range(20):
        cfg = SyntheticConfig(
            patch_size=16, n_train=4, n_val=0, n_test=0, noise=0.03, water_prob=0.4
        )
        samples = [s for s in generate_dataset(cfg, seed=930 + trial) if s.split == "train"]
        kind = kinds[trial % len(kinds)]
        model = fit_threshold(kind, samples, steps=64)
        oracle_t, oracle_f1 = brute_force_fit(kind, samples, steps=64)
        assert model.threshold == oracle_t, (trial, kind)
        assert model.train_f1 == oracle_f1, (trial, kind)
    elapsed = time.perf_counter() - t0
    announce(3, f"20 datasets, exact threshold and F1 agreement ({elapsed:.1f}s)")


def test_criterion_04_metric_identities(announce):
    """F1 = 2 IoU/(1+IoU) to 1e-12 on random counts; the hand-worked case."""
    rng = np.random.default_rng(940)
    for _ in range(300):
        counts = ConfusionCounts(*(int(v) for v in rng.integers(0, 500, 4)))
        report = compute_metrics(counts)
        for side in (report.burnt, report.unburnt):
            assert abs(side.f1 - 2.0 * side.iou / (1.0 + side.iou)) < 1e-12

    hand = compute_metrics(ConfusionCounts(tp=3, fp=1, fn=2, tn=10)).burnt
    assert abs(hand.precision - 0.75) < 1e-12
    assert abs(hand.recall - 0.6) < 1e-12
    assert abs(hand.f1 - 2 / 3) < 1e-12
    assert abs(hand.iou - 0.5) < 1e-12
    announce(4, "F1/IoU identity on 300 random counts (1e-12); TP=3 FP=1 FN=2 hand case")


def test_criterion_05_sampling_invariants(announce):
    """Balanced pooled strata and the per-patch water quota: 100 seeded
    trials, zero violations."""
    t0 = time.perf_counter()
    for trial in range(100):
        cfg = SyntheticConfig(
            patch_size=24,
            n_train=4,
            n_val=0,
            n_test=0,
            water_prob=(0.0, 0.5, 1.0)[trial % 3],
            noise=0.01,
        )
        samples = [s for s in generate_dataset(cfg, seed=950 + trial) if s.split == "train"]
        stocks = [s.truth.positive_pixels() for s in samples if s.is_positive()]
        n = 2 * len(stocks) * min(min(stocks), 30)
        positions = sample_pixels(samples, n_pixels=n, seed=1950 + trial)

        labels = positions["label"]
        assert (labels == 1).sum() == n // 2, trial
        assert (labels == 0).sum() == n // 2, trial

        unburnt: dict[int, list] = {}
        for p in positions:
            if p["label"] == 0:
                unburnt.setdefault(p["sample"], []).append(p)
        for sample_i, chosen in unburnt.items():
            s = samples[sample_i]
            if s.water is None or not s.water.any():
                continue
            on_water = sum(int(s.water[p["row"], p["col"]]) for p in chosen)
            assert on_water / len(chosen) >= 0.10 - 1.0 / len(chosen), (trial, s.event_id)
    elapsed = time.perf_counter() - t0
    announce(5, f"100 trials: pooled N/2 balance and 10% water quota held ({elapsed:.1f}s)")


def test_criterion_06_classical_learners(announce):
    """MLP and RF both reach burnt F1 >= 0.95 on separable data; forest
    importances sum to 1 +- 1e-9; under two minutes."""
    t0 = time.perf_counter()
    x, y = separable_clusters(seed=960, n=400)
    xt, yt = separable_clusters(seed=961, n=200)

    forest = rf_fit(x, y, seed=962)
    rf_f1 = compute_metrics(
        accumulate((rf_predict(forest, xt) >= 0.5).astype(np.uint8).reshape(1, -1),
                   yt.reshape(1, -1))
    ).burnt.f1
    assert rf_f1 >= 0.95

    imp_error = abs(float(forest.feature_importances.sum()) - 1.0)
    assert imp_error <= 1e-9

    mlp = mlp_fit(x, y, seed=963, epochs=40)
    mlp_f1 = compute_metrics(
        accumulate((mlp_predict(mlp, xt) >= 0.5).astype(np.uint8).reshape(1, -1),
                   yt.reshape(1, -1))
    ).burnt.f1
    assert mlp_f1 >= 0.95

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    announce(
        6, f"RF F1 {rf_f1:.3f}, MLP F1 {mlp_f1:.3f}, importance sum off by "
        f"{imp_error:.1e} ({elapsed:.1f}s)"
    )


def test_criterion_07_index_baseline(announce):
    """The dNBR threshold pipeline: burnt F1 >= 0.99 noiseless, >= 0.90 at
    noise 0.02."""
    t0 = time.perf_counter()
    scores = {}
    for noise, floor in ((0.0, 0.99), (0.02, 0.90)):
        cfg = SyntheticConfig(noise=noise)  # 40/10/10 patches of 64x64
        train_s, _, test_s = splits(generate_dataset(cfg, seed=970))
        model = fit_threshold(IndexKind.NBR, train_s)
        _, report = evaluate_threshold(model, test_s)
        assert report.burnt.f1 >= floor, (noise, report.burnt.f1)
        scores[noise] = report.burnt.f1
    elapsed = time.perf_counter() - t0
    announce(
        7, f"dNBR burnt F1 {scores[0.0]:.4f} noiseless, {scores[0.02]:.4f} "
        f"at noise 0.02 ({elapsed:.1f}s)"
    )


def test_criterion_08_network_benchmark(announce):
    """Mini network on the standard benchmark: test burnt IoU >= 0.85, at
    least the dNBR oracle's IoU, trained in under 15 minutes, and the loss
    trace reproduces bitwise under the same seed."""
    data = generate_dataset(benchmark_config(noise=0.02), seed=77)
    train_s, val_s, test_s = splits(data)

    oracle = fit_threshold(IndexKind.NBR, train_s)
    _, oracle_report = evaluate_threshold(oracle, test_s)

    cfg = mini_config(seed=200)
    assert cfg.epochs <= 30
    t0 = time.perf_counter()
    stacks = [stack_samples(split, len(split), cfg) for split in (train_s, val_s)]
    model, trace = train(build(cfg), *stacks)
    t_train = time.perf_counter() - t0
    assert t_train < 900.0

    report = evaluate_network(model, test_s)
    assert report.burnt.iou >= 0.85
    assert report.burnt.iou >= oracle_report.burnt.iou

    _, retrace = train(build(cfg), *stacks)
    assert trace_to_text(retrace) == trace_to_text(trace)

    announce(
        8, f"mini IoU {report.burnt.iou:.4f} vs dNBR oracle "
        f"{oracle_report.burnt.iou:.4f}; {cfg.epochs} epochs in {t_train:.0f}s; "
        f"trace bitwise-reproducible"
    )


def test_criterion_09_architecture_counts(announce):
    """Built mini parameter count equals the closed-form oracle; the
    paper-like profile is compared against the ~83.7 M reference figure and
    the deviation is documented (not gated)."""
    mini = mini_config()
    built = parameter_count(build(mini))
    assert built == expected_count(mini)

    paperlike = expected_count(paperlike_config())
    reference = 83_700_000
    deviation = (paperlike - reference) / reference
    if abs(deviation) > 0.10:
        text = README.read_text(encoding="utf-8")
        assert "83.7" in text and "742.9" in text, (
            "paper-like count deviates >10% but README does not flag it"
        )
    announce(
        9, f"mini count {built:,} exact; paper-like {paperlike / 1e6:.1f}M vs "
        f"83.7M ({deviation:+.0%}, flagged in README)"
    )


def test_criterion_10_cli_determinism(announce, tmp_path):
    """Every CLI command rerun with the same config and seed writes
    byte-identical outputs."""
    t0 = time.perf_counter()

    def run(argv):
        assert main(argv) == 0

    def write_cfg(name, items):
        p = tmp_path / name
        p.write_text("".join(f"{k}={v}\n" for k, v in items.items()), encoding="utf-8")
        return str(p)

    synth_cfg = write_cfg(
        "synth.cfg",
        {"n_train": "4", "n_val": "1", "n_test": "1", "patch_size": "32", "noise": "0.01"},
    )

    pre, post, truth, water = generate_scene(
        SyntheticConfig(patch_size=24, noise=0.0), seed=55, height=48, width=48
    )
    scene = tmp_path / "scene.npz"
    np.savez(scene, bands=np.array([b.value for b in pre.bands]), pre=pre.data,
             post=post.data, truth=truth.labels, water=water)
    ingest_cfg = write_cfg("ingest.cfg", {"scene_train": str(scene), "patch_size": "24"})

    data = tmp_path / "data"
    run(["synth", "--config", synth_cfg, "--out", str(data), "--seed", "9"])
    manifest = str(data / "manifest.csv")
    index_cfg = write_cfg("index.cfg", {"manifest": manifest, "index": "NBR"})
    ml_cfg = write_cfg(
        "ml.cfg",
        {"manifest": manifest, "method": "rf", "n_pixels": "200", "rf_trees": "5"},
    )
    dl_cfg = write_cfg(
        "dl.cfg",
        {"manifest": manifest, "profile": "mini", "widths": "4,8", "blocks": "1,1",
         "stem_width": "4", "epochs": "1", "batch_size": "4"},
    )

    commands = {
        "synth": lambda out: run(["synth", "--config", synth_cfg, "--out", out, "--seed", "9"]),
        "ingest": lambda out: run(["ingest", "--config", ingest_cfg, "--out", out, "--seed", "9"]),
        "index-eval": lambda out: run(["index-eval", "--config", index_cfg, "--out", out, "--seed", "9"]),
        "ml-run": lambda out: run(["ml-run", "--config", ml_cfg, "--out", out, "--seed", "9"]),
        "dl-run": lambda out: run(["dl-run", "--config", dl_cfg, "--out", out, "--seed", "9"]),
        "report": lambda out: run(["report", str(tmp_path / "index-eval_a"), "--out", out]),
    }
    for name, invoke in commands.items():
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        invoke(str(a))
        invoke(str(b))
        fa, fb = fingerprint(a), fingerprint(b)
        assert fa and fa == fb, f"{name} rerun differs"
    elapsed = time.perf_counter() - t0
    announce(10, f"6 commands rerun byte-identically ({elapsed:.1f}s)")
