"""camfuse: camera-guided fusion of visual and spatial token streams.

A framework-free implementation of a per-frame cross-attention fusion
module in which the camera embedding actively steers how geometry-aware
spatial tokens are injected into visual tokens, plus the surrounding
tooling: analytic gradients checked against finite differences, frame
sampling and preprocessing geometry, benchmark scoring math, deterministic
serialization, and a CLI.
"""

from .fusion import (
    ConfigError,
    FusionConfig,
    FusionInputs,
    FusionToggles,
    FusionWeights,
    VARIANTS,
    attend,
    fuse,
    fuse_backward,
    gate_and_fuse,
    geo_bias,
    init_weights,
    iter_params,
    param_count,
    param_shapes,
    project_qkvc,
    token_weights,
    weights_from_arrays,
)
from .gradcheck import check_fuse_gradients, finite_difference_grad, max_relative_error
from .metrics import (
    AnswerType,
    EvalRecord,
    RecordError,
    ScoringError,
    choice_accuracy,
    exact_match,
    mean_relative_accuracy,
    read_records,
    report,
    score_protocol,
    spbench_aggregate,
    write_records,
)
from .pipeline import (
    SamplingPlan,
    patch_tokens,
    plan_sampling,
    preprocess_geometry,
    synth_tokens,
)
from .serde import (
    ContainerError,
    load_config,
    load_container,
    load_token_streams,
    load_weights,
    save_config,
    save_container,
    save_token_streams,
    save_weights,
)
from .tensor import (
    DimensionError,
    LayerNormParams,
    LinearMap,
    TokenTensor,
    affine,
    affine_vjp,
    layer_norm,
    layer_norm_vjp,
    sigmoid,
    softmax_rows,
    swish,
    swish_vjp,
)

__version__ = "0.1.0"
