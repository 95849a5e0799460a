import numpy as np
import pytest

from camfuse.fusion import FusionConfig, stream_shapes
from camfuse.pipeline import synth_tokens


CONFIG = FusionConfig(n_frames=3, m_visual=4, m_spatial=5,
                      d_visual=6, d_spatial=7, d_attn=4, n_heads=2)

STREAMS = ("visual", "spatial", "camera", "register")


class TestSynthTokens:
    def test_deterministic(self):
        a = synth_tokens(CONFIG, 123)
        b = synth_tokens(CONFIG, 123)
        for name in STREAMS:
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

    @pytest.mark.parametrize("name", STREAMS)
    def test_seed_changes_each_stream(self, name):
        a = synth_tokens(CONFIG, 0)
        b = synth_tokens(CONFIG, 1)
        assert (getattr(a, name).data != getattr(b, name).data).any()

    @pytest.mark.parametrize("config", [
        CONFIG,
        FusionConfig(n_frames=1, m_visual=1, m_spatial=1,
                     d_visual=2, d_spatial=2, d_attn=2, n_heads=1),
        FusionConfig(n_frames=5, m_visual=9, m_spatial=16,
                     d_visual=12, d_spatial=10, d_attn=8, n_heads=4),
    ], ids=["small", "one-token", "wider"])
    def test_shapes_follow_stream_shapes(self, config):
        x = synth_tokens(config, 3)
        for name, shape in stream_shapes(config).items():
            assert getattr(x, name).shape == shape, name

    def test_draw_order_is_stream_shapes_order(self):
        """One generator feeds the streams in `stream_shapes` order, so a
        stream written with a seed can be redrawn from it."""
        rng = np.random.default_rng(42)
        x = synth_tokens(CONFIG, 42)
        for name, shape in stream_shapes(CONFIG).items():
            assert getattr(x, name).data.tobytes() == rng.standard_normal(shape).tobytes(), name

    def test_entries_are_standard_normal(self):
        config = FusionConfig(n_frames=4, m_visual=64, m_spatial=64,
                              d_visual=32, d_spatial=32, d_attn=8, n_heads=2)
        data = synth_tokens(config, 0).visual.data
        assert data.dtype == np.float64
        assert abs(data.mean()) < 0.05
        assert abs(data.std() - 1.0) < 0.05
