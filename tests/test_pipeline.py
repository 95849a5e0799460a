import numpy as np
import numpy.testing as npt
import pytest

from camfuse.fusion import FusionConfig
from camfuse.pipeline import (
    patch_tokens,
    plan_sampling,
    preprocess_geometry,
    synth_tokens,
)


CONFIG = FusionConfig(n_frames=3, m_visual=4, m_spatial=5,
                      d_visual=6, d_spatial=7, d_attn=4, n_heads=2)


class TestSampling:
    def test_exact_probe_count_clip(self):
        plan = plan_sampling(34)
        assert plan.sampled_indices == tuple(range(34))
        assert plan.kept_indices == tuple(range(1, 33))
        assert len(plan.kept_indices) == 32

    def test_long_clip(self):
        plan = plan_sampling(3400)
        assert plan.sampled_indices == tuple(range(0, 3400, 100))
        assert plan.kept_indices == tuple(range(100, 3300, 100))
        assert 0 not in plan.kept_indices and 3300 not in plan.kept_indices

    def test_short_clip_collapses_repeats(self):
        # floor(k*10/34) hits every index 0..9 with repeats; repeats collapse
        plan = plan_sampling(10)
        assert plan.sampled_indices == tuple(range(10))
        assert plan.kept_indices == tuple(range(1, 9))
        assert len(plan.kept_indices) == 8

    def test_empty_clip_rejected(self):
        with pytest.raises(ValueError):
            plan_sampling(0)

    @pytest.mark.parametrize("total", [34, 35, 50, 68, 100, 1000, 3400, 99991])
    def test_boundary_drop_always_keeps_32(self, total):
        plan = plan_sampling(total)
        assert len(plan.sampled_indices) == 34
        assert len(plan.kept_indices) == 32
        assert plan.sampled_indices[0] not in plan.kept_indices
        assert plan.sampled_indices[-1] not in plan.kept_indices
        assert all(a < b for a, b in zip(plan.sampled_indices, plan.sampled_indices[1:]))

    def test_tiny_clips_degrade_gracefully(self):
        assert plan_sampling(1).kept_indices == ()
        assert plan_sampling(2).kept_indices == ()
        assert plan_sampling(3).kept_indices == (1,)


class TestPatchTokens:
    def test_visual_grid(self):
        assert patch_tokens(448, 448, 14) == 1024

    def test_spatial_grid(self):
        assert patch_tokens(518, 518, 14) == 1369

    def test_floor_discards_remainder(self):
        assert patch_tokens(449, 448, 14) == 1024

    def test_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h, w = rng.integers(1, 600, size=2)
            p = int(rng.integers(1, 40))
            base = patch_tokens(int(h), int(w), p)
            assert patch_tokens(int(h) + 1, int(w), p) >= base
            assert patch_tokens(int(h), int(w) + 1, p) >= base
            assert patch_tokens(int(h), int(w), p + 1) <= base

    def test_rejects_degenerate_dims(self):
        with pytest.raises(ValueError):
            patch_tokens(0, 448, 14)


class TestPreprocessGeometry:
    def test_visual_target_is_fixed(self):
        visual, _ = preprocess_geometry(480, 640)
        assert (visual.target_h, visual.target_w) == (448, 448)
        npt.assert_allclose([visual.scale_y, visual.scale_x], [448 / 480, 448 / 640])

    def test_centered_margins(self):
        _, spatial = preprocess_geometry(480, 640)
        assert spatial.offset_y == spatial.offset_x == 35

    def test_canvas_accounts_for_content_and_margins(self):
        _, spatial = preprocess_geometry(123, 456)
        assert spatial.offset_y * 2 + spatial.content_h == spatial.canvas_h == 518
        assert spatial.offset_x * 2 + spatial.content_w == spatial.canvas_w == 518

    def test_zero_source_rejected(self):
        with pytest.raises(ValueError):
            preprocess_geometry(0, 10)


class TestSynthTokens:
    def test_deterministic(self):
        a = synth_tokens(CONFIG, 123)
        b = synth_tokens(CONFIG, 123)
        for name in ("visual", "spatial", "camera", "register"):
            assert getattr(a, name).data.tobytes() == getattr(b, name).data.tobytes()

    def test_seed_changes_streams(self):
        a = synth_tokens(CONFIG, 0)
        b = synth_tokens(CONFIG, 1)
        assert (a.visual.data != b.visual.data).any()

    def test_shapes(self):
        x = synth_tokens(CONFIG, 0)
        assert x.visual.shape == (3, 4, 6)
        assert x.spatial.shape == (3, 5, 7)
        assert x.camera.shape == (3, 1, 7)
        assert x.register.shape == (3, 4, 7)
