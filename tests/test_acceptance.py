"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one printed
pass/fail line per criterion alongside the pytest verdicts.
"""

import ast
import importlib
import itertools
import time
from dataclasses import replace
from pathlib import Path
from statistics import fmean

import numpy as np
import numpy.testing as npt
import pytest

from camfuse.fusion import (
    FusionConfig,
    FusionInputs,
    FusionToggles,
    fuse,
    init_weights,
    iter_params,
    VARIANTS,
)
from camfuse import fusion, tensor
from camfuse.gradcheck import check_fuse_gradients
from camfuse.metrics import mean_relative_accuracy, spbench_aggregate
from camfuse.pipeline import synth_tokens
from camfuse.serde import ContainerError, load_weights, save_weights
from camfuse.tensor import LinearMap, TokenTensor, softmax_rows

from helpers import DEMO_CONFIG, attend_rows
from oracles import ref_attention


def _ok(line):
    print(f"[PASS] {line}")


def random_config(rng, toggles=FusionToggles()):
    heads = int(rng.integers(1, 4))
    return FusionConfig(
        n_frames=int(rng.integers(1, 5)),
        m_visual=int(rng.integers(1, 6)),
        m_spatial=int(rng.integers(1, 7)),
        d_visual=int(rng.integers(1, 8)),
        d_spatial=int(rng.integers(1, 8)),
        d_attn=int(heads * rng.integers(1, 4)),
        n_heads=heads,
        toggles=toggles,
    )


def test_c01_shape_contract():
    """Fused output shape equals the visual stream shape, 100 random configs."""
    rng = np.random.default_rng(101)
    for trial in range(100):
        bits = tuple(bool(b) for b in rng.integers(0, 2, size=4))
        config = random_config(rng, FusionToggles(*bits))
        inputs = synth_tokens(config, trial)
        out = fuse(inputs, init_weights(config, trial), config)
        assert out.shape == inputs.visual.shape, (trial, config)
    _ok("criterion 1: shape contract holds on 100/100 randomized configs")


def test_c02_residual_identity():
    """Zero-initialized gate branch makes fusion an exact no-op."""
    rng = np.random.default_rng(202)
    for trial in range(10):
        config = random_config(rng)
        weights = init_weights(config, trial)
        weights = replace(weights, p_g1=LinearMap(
            np.zeros_like(weights.p_g1.weight), np.zeros_like(weights.p_g1.bias)))
        inputs = synth_tokens(config, trial + 1)
        out = fuse(inputs, weights, config)
        npt.assert_array_equal(out.data, inputs.visual.data)
    _ok("criterion 2: zero gate branch collapses to the visual stream exactly (10 random instances)")


def test_c03_gradient_correctness():
    """Analytic backward vs central differences extrapolated from h = 1e-5,
    dims <= 8, < 1e-5."""
    start = time.perf_counter()
    worst = 0.0
    cases = [
        FusionConfig(2, 3, 4, 6, 5, 4, 2),
        FusionConfig(1, 2, 3, 8, 7, 6, 3),
        FusionConfig(3, 2, 2, 4, 4, 8, 4),
    ]
    for i, config in enumerate(cases):
        inputs = synth_tokens(config, i)
        weights = init_weights(config, i + 10)
        results = check_fuse_gradients(inputs, weights, config, seed=i + 20)
        case_worst = max(results.values())
        assert case_worst < 1e-5, (config, results)
        worst = max(worst, case_worst)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _ok(f"criterion 3: gradients match finite differences, worst rel err "
        f"{worst:.2e} < 1e-5 in {elapsed:.1f}s")


def test_c04_spatial_permutation_invariance():
    """Within-frame permutations of spatial tokens leave the output unchanged."""
    rng = np.random.default_rng(404)
    config = FusionConfig(2, 3, 6, 5, 4, 4, 2)
    weights = init_weights(config, 0)
    inputs = synth_tokens(config, 1)
    base = fuse(inputs, weights, config).data
    worst = 0.0
    for _ in range(100):
        spatial = inputs.spatial.data.copy()
        for f in range(config.n_frames):
            spatial[f] = spatial[f][rng.permutation(config.m_spatial)]
        out = fuse(replace(inputs, spatial=TokenTensor(spatial)), weights, config).data
        worst = max(worst, float(np.max(np.abs(out - base))))
    assert worst < 1e-9
    _ok(f"criterion 4: spatial permutation invariance, max deviation {worst:.2e} "
        f"< 1e-9 over 100 trials")


def test_c05_frame_locality():
    """Perturbing frame j changes only frame j's output rows."""
    rng = np.random.default_rng(505)
    config = FusionConfig(4, 3, 4, 5, 4, 4, 2)
    weights = init_weights(config, 0)
    inputs = synth_tokens(config, 1)
    base = fuse(inputs, weights, config).data
    for trial in range(50):
        j = trial % config.n_frames
        visual = inputs.visual.data.copy()
        spatial = inputs.spatial.data.copy()
        camera = inputs.camera.data.copy()
        visual[j] += rng.standard_normal(visual[j].shape)
        spatial[j] += rng.standard_normal(spatial[j].shape)
        camera[j] += rng.standard_normal(camera[j].shape)
        out = fuse(FusionInputs(TokenTensor(visual), TokenTensor(spatial),
                                TokenTensor(camera)), weights, config).data
        others = [f for f in range(config.n_frames) if f != j]
        assert (out[others] == base[others]).all(), trial
        assert (out[j] != base[j]).any(), trial
    _ok("criterion 5: frame locality exact over 50 perturbation trials")


def test_c06_ablation_structure():
    """The four structural variants differ pairwise; removing every camera
    path makes the output exactly independent of the camera stream."""
    config = FusionConfig(2, 3, 4, 6, 5, 4, 2)
    weights = init_weights(config, 6)
    inputs = synth_tokens(config, 7)
    outs = {n: fuse(inputs, weights, replace(config, toggles=t)).data
            for n, t in VARIANTS.items()}
    min_diff = min(float(np.max(np.abs(outs[a] - outs[b])))
                   for a, b in itertools.combinations(VARIANTS, 2))
    assert min_diff > 0

    no_camera = FusionToggles(geo_bias=False, token_weight=True,
                              camera_memory=False, gate=False)
    cam_config = replace(config, toggles=no_camera)
    rng = np.random.default_rng(606)
    other = replace(inputs, camera=TokenTensor(rng.standard_normal(inputs.camera.shape)))
    a = fuse(inputs, weights, cam_config).data
    b = fuse(other, weights, cam_config).data
    assert a.tobytes() == b.tobytes()
    _ok(f"criterion 6: variant rows pairwise distinct (min max-diff {min_diff:.2e}); "
        f"output camera-independent with all camera paths off")


def test_c07_attention_oracle():
    """Single-head attention equals the loop oracle; attention rows sum to 1."""
    rng = np.random.default_rng(707)
    worst_value = 0.0
    worst_sum = 0.0
    for trial in range(20):
        n, mv, ms = (int(v) for v in rng.integers(1, 5, size=3))
        da = int(rng.integers(1, 6))
        config = FusionConfig(n, mv, ms, 3, 3, da, 1)
        q = rng.standard_normal((n, mv, da))
        k = rng.standard_normal((n, ms, da))
        v = rng.standard_normal((n, ms, da))
        c = rng.standard_normal((n, 1, da))
        out = np.stack([attend_rows(*frame, config) for frame in zip(q, k, v, c)])
        kmem = np.concatenate([c, k], axis=1)
        vmem = np.concatenate([c, v], axis=1)
        expected = ref_attention(q, kmem, vmem, 1)
        worst_value = max(worst_value, float(np.max(np.abs(out - expected))))
        for f in range(n):
            scores = (q[f] @ kmem[f].T) / np.sqrt(da)
            sums = softmax_rows(scores).sum(axis=-1)
            worst_sum = max(worst_sum, float(np.max(np.abs(sums - 1.0))))
    assert worst_value < 1e-12
    assert worst_sum < 1e-9
    _ok(f"criterion 7: h=1 attention matches the loop oracle (max dev "
        f"{worst_value:.2e} < 1e-12, 20 instances); rows sum to 1 ± {worst_sum:.0e}")


def test_c08_metric_formulas():
    """Numerical-accuracy sweep, two-level aggregation, and uniform averaging
    reproduce the published scoring conventions."""
    assert mean_relative_accuracy(7.0, 10.0) == 0.4

    si, mv, overall = spbench_aggregate(66.3, 53.2, 76.2, 70.5)
    assert abs(si - 59.75) < 1e-12
    assert abs(mv - 73.35) < 1e-12
    assert abs(overall - 66.55) < 1e-12
    # published per-subset averages (59.7 / 73.8 / 67.3) were computed from
    # unrounded subtask scores, so the rounded inputs land near, not on, them

    subtask_scores = [73.31, 61.37, 77.35, 74.20, 67.18, 88.38, 44.33, 70.55]
    average = fmean(subtask_scores)
    assert abs(average - 69.58) < 0.05
    _ok(f"criterion 8: MRA example scores 0.4; two-level aggregate (59.75, 73.35, "
        f"66.55); uniform 8-subtask mean {average:.4f} within 0.05 of 69.58")


def test_c09_geometry():
    """The demo shape rests on the paper's encoder inputs and frame plan: 14-pixel
    patches on 448x448 (InternViT) and 518x518 (VGGT) inputs, and 34 uniform
    probes per clip with the first and last dropped."""
    patch = 14
    assert (448 // patch) ** 2 == DEMO_CONFIG.m_visual == 1024
    assert (518 // patch) ** 2 == DEMO_CONFIG.m_spatial == 1369
    assert 34 - 2 == DEMO_CONFIG.n_frames
    _ok("criterion 9: 448/14 -> 1024 visual and 518/14 -> 1369 spatial tokens; "
        "34 probes - 2 dropped = 32 frames, as in the demo shape")


def test_c10_serialization(tmp_path):
    """Round trips are bit-identical; truncation fails cleanly."""
    config = FusionConfig(2, 3, 4, 6, 5, 4, 2)
    for seed in range(50):
        path = tmp_path / f"weights_{seed}.cft"
        weights = init_weights(config, seed)
        save_weights(weights, path)
        loaded = load_weights(path, config)
        for (name, a), (_, b) in zip(iter_params(weights), iter_params(loaded)):
            assert a.tobytes() == b.tobytes(), (seed, name)

    path = tmp_path / "weights_0.cft"
    raw = path.read_bytes()
    path.write_bytes(raw[:-33])
    with pytest.raises(ContainerError):
        load_weights(path, config)
    _ok("criterion 10: 50/50 weight sets round-trip bit-identically; "
        "truncated container raises a corruption error")


def test_c11_performance_smoke():
    """One fuse pass at the demo shape finishes inside 60 s."""
    inputs = synth_tokens(DEMO_CONFIG, 0)
    weights = init_weights(DEMO_CONFIG, 0)
    start = time.perf_counter()
    out = fuse(inputs, weights, DEMO_CONFIG)
    elapsed = time.perf_counter() - start
    assert out.shape == (32, 1024, 64)
    assert elapsed < 60.0
    rate = DEMO_CONFIG.n_frames * DEMO_CONFIG.m_visual / elapsed
    _ok(f"criterion 11: demo-shape fuse pass in {elapsed:.2f}s < 60s "
        f"({rate:,.0f} visual tokens/s)")


@pytest.mark.parametrize("module", ["tensor", "fusion", "gradcheck", "metrics", "pipeline",
                                    "serde"])
def test_every_exported_name_exists(module):
    """Each module's __all__ names only attributes the module defines."""
    mod = importlib.import_module(f"camfuse.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _tensor_names_used_elsewhere() -> set:
    """The names of `camfuse.tensor` that another camfuse module imports or
    reads off the module, found in each module's syntax tree, so that a
    mention in a docstring or a comment is not a use."""
    used = set()
    for path in Path(tensor.__file__).parent.glob("*.py"):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "camfuse.tensor"):
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "tensor"):
                used.add(node.attr)
    return used


@pytest.mark.parametrize("name", tensor.__all__)
def test_every_public_kernel_has_a_caller(name, monkeypatch):
    """Each name `camfuse.tensor` exports is used by another camfuse module
    or traced by the benchmark (bench/spans.py): a kernel that no caller
    needs is deleted, not kept public."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import spans

    traced = {path.split(".")[0] for module, path, *_ in spans.TARGETS.values()
              if module == "tensor"}
    assert name in _tensor_names_used_elsewhere() | traced, f"tensor.{name} has no caller"


def test_only_the_fold_reads_layer_norm_parameters():
    """Every `.gain` and `.shift` read in `camfuse.fusion` sits in `_fold_ln`
    or its transpose `_fold_ln_vjp`: both passes run the layer norms as
    `normalise` plus a GEMM against a folded weight, so no code rebuilds a
    layer norm's output from its parameters."""
    tree = ast.parse(Path(fusion.__file__).read_text(), fusion.__file__)
    folds = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name in ("_fold_ln", "_fold_ln_vjp")]
    assert folds
    allowed = {id(node) for fold in folds for node in ast.walk(fold)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("gain", "shift")]
    assert {id(node) for node in reads} & allowed, "the fold reads no layer-norm parameter"
    assert [f"line {node.lineno}: .{node.attr}" for node in reads if id(node) not in allowed] == []
