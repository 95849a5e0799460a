"""camfuse: camera-guided fusion of visual and spatial token streams.

A framework-free implementation of a per-frame cross-attention fusion
module in which the camera embedding actively steers how geometry-aware
spatial tokens are injected into visual tokens, plus the surrounding
tooling: analytic gradients checked against finite differences, seeded
synthetic token streams, benchmark scoring math, deterministic
serialization, and a CLI.
"""

__version__ = "0.1.0"
