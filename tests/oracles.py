"""Independent reference implementations used as test oracles.

Everything here shares no code path with the package, so agreement is
meaningful. Most of it is written with explicit Python loops and scalar math
on purpose; keep shapes tiny when calling those. The whole-frame attention
kernel and its VJP are vectorised: they are the kernel the package ran before
it switched to query tiles, kept as the reference that the tiled kernel must
reproduce at any shape.
"""

import math

import numpy as np

from camfuse.tensor import LN_EPSILON


def ref_affine(x, weight, bias):
    """Triple-loop x @ weight + bias over the last axis of a 2-D or 3-D array."""
    x = np.asarray(x)
    lead = x.shape[:-1]
    nin, nout = weight.shape
    out = np.zeros(lead + (nout,))
    for idx in np.ndindex(*lead):
        for o in range(nout):
            acc = 0.0
            for i in range(nin):
                acc += float(x[idx][i]) * float(weight[i, o])
            if bias is not None:
                acc += float(bias[o])
            out[idx][o] = acc
    return out


def ref_layer_norm(x, gain, shift):
    x = np.asarray(x)
    lead = x.shape[:-1]
    width = x.shape[-1]
    out = np.zeros_like(x)
    for idx in np.ndindex(*lead):
        row = [float(v) for v in x[idx]]
        mu = sum(row) / width
        var = sum((v - mu) ** 2 for v in row) / width
        denom = math.sqrt(var + LN_EPSILON)
        for i in range(width):
            out[idx][i] = float(gain[i]) * (row[i] - mu) / denom + float(shift[i])
    return out


def ref_sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def two_branch_sigmoid(x):
    """Elementwise logistic function, one formula per sign of x.

    1 / (1 + exp(-x)) on the gathered x >= 0 and exp(x) / (1 + exp(x)) on the
    rest (NaN included), scattered back: the masked kernel the package ran
    before its branch-free one, kept as the reference it must match bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_swish(v):
    return v * ref_sigmoid(v)


def ref_softmax(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    total = sum(exps)
    return [e / total for e in exps]


def ref_attention(q, k, v, n_heads):
    """Loop-based frame-local multi-head attention.

    Heads are contiguous width slices; scale is 1/sqrt(head_dim).
    """
    q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
    n, mq, da = q.shape
    mk = k.shape[1]
    dh = da // n_heads
    scale = 1.0 / math.sqrt(dh)
    out = np.zeros((n, mq, da))
    for f in range(n):
        for h in range(n_heads):
            lo, hi = h * dh, (h + 1) * dh
            for a in range(mq):
                scores = []
                for b in range(mk):
                    dot = sum(float(q[f, a, lo + i]) * float(k[f, b, lo + i])
                              for i in range(dh))
                    scores.append(dot * scale)
                probs = ref_softmax(scores)
                for i in range(dh):
                    out[f, a, lo + i] = sum(probs[b] * float(v[f, b, lo + i])
                                            for b in range(mk))
    return out


def whole_frame_attention(q, k, v, n_heads):
    """Per frame, one [h, mq, mk] score block softmaxed as a whole.

    Returns (out, probs) with probs the [n, h, mq, mk] probability tensor.
    """
    n, mq, da = q.shape
    mk = k.shape[1]
    dh = da // n_heads
    scale = 1.0 / np.sqrt(dh)
    out = np.empty_like(q)
    probs = np.empty((n, n_heads, mq, mk))
    for i in range(n):
        qh = q[i].reshape(mq, n_heads, dh).transpose(1, 0, 2)  # [h, mq, dh]
        kh = k[i].reshape(mk, n_heads, dh).transpose(1, 0, 2)
        vh = v[i].reshape(mk, n_heads, dh).transpose(1, 0, 2)
        scores = (qh @ kh.transpose(0, 2, 1)) * scale          # [h, mq, mk]
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs[i] = e / e.sum(axis=-1, keepdims=True)
        out[i] = (probs[i] @ vh).transpose(1, 0, 2).reshape(mq, da)
    return out, probs


def whole_frame_attention_vjp(q, k, v, probs, n_heads, g_out):
    """Cotangents (gq, gk, gv) of whole_frame_attention from its saved probs."""
    n, mq, da = q.shape
    mk = k.shape[1]
    dh = da // n_heads
    scale = 1.0 / np.sqrt(dh)
    gq = np.empty_like(q)
    gk = np.empty_like(k)
    gv = np.empty_like(v)
    for i in range(n):
        qh = q[i].reshape(mq, n_heads, dh).transpose(1, 0, 2)
        kh = k[i].reshape(mk, n_heads, dh).transpose(1, 0, 2)
        vh = v[i].reshape(mk, n_heads, dh).transpose(1, 0, 2)
        goh = g_out[i].reshape(mq, n_heads, dh).transpose(1, 0, 2)
        p = probs[i]
        g_probs = goh @ vh.transpose(0, 2, 1)                  # [h, mq, mk]
        g_vh = p.transpose(0, 2, 1) @ goh                      # [h, mk, dh]
        g_scores = p * (g_probs - (g_probs * p).sum(axis=-1, keepdims=True))
        g_qh = (g_scores @ kh) * scale
        g_kh = (g_scores.transpose(0, 2, 1) @ qh) * scale
        gq[i] = g_qh.transpose(1, 0, 2).reshape(mq, da)
        gk[i] = g_kh.transpose(1, 0, 2).reshape(mk, da)
        gv[i] = g_vh.transpose(1, 0, 2).reshape(mk, da)
    return gq, gk, gv


def ref_fuse(inputs, weights, config):
    """Straight-line scalar reference of the whole fusion pipeline.

    Reads arrays out of the package's containers but performs every
    computation with the loop-based helpers above.
    """
    t = config.toggles
    xv = np.asarray(inputs.visual.data)
    xs = np.asarray(inputs.spatial.data)
    xc = np.asarray(inputs.camera.data)
    n, mv, dv = xv.shape
    ms = xs.shape[1]
    ds = xs.shape[2]
    da = config.d_attn

    w = weights
    q = ref_affine(ref_layer_norm(xv, w.ln_v.gain, w.ln_v.shift), w.p_q.weight, w.p_q.bias)
    lns = ref_layer_norm(xs, w.ln_s.gain, w.ln_s.shift)
    k = ref_affine(lns, w.p_k.weight, w.p_k.bias)
    v = ref_affine(lns, w.p_v.weight, w.p_v.bias)
    c = ref_affine(xc, w.p_c.weight, w.p_c.bias)

    if t.geo_bias:
        gin = np.zeros((n, ms, 2 * ds))
        for f in range(n):
            for m in range(ms):
                for i in range(ds):
                    gin[f, m, i] = xs[f, m, i]
                    gin[f, m, ds + i] = xc[f, 0, i]
        hidden = ref_affine(gin, w.geo_mlp[0].weight, w.geo_mlp[0].bias)
        for idx in np.ndindex(*hidden.shape):
            hidden[idx] = ref_swish(float(hidden[idx]))
        bias = ref_affine(hidden, w.geo_mlp[1].weight, w.geo_mlp[1].bias)
        k = k + bias
        v = v + bias

    if t.token_weight:
        th = ref_affine(xs, w.tw_mlp[0].weight, w.tw_mlp[0].bias)
        for idx in np.ndindex(*th.shape):
            th[idx] = ref_swish(float(th[idx]))
        tz = ref_affine(th, w.tw_mlp[1].weight, w.tw_mlp[1].bias)
        for f in range(n):
            for m in range(ms):
                weight = ref_sigmoid(float(tz[f, m, 0]))
                for i in range(da):
                    v[f, m, i] *= weight

    if t.camera_memory:
        kmem = np.zeros((n, ms + 1, da))
        vmem = np.zeros((n, ms + 1, da))
        for f in range(n):
            kmem[f, 0] = c[f, 0]
            vmem[f, 0] = c[f, 0]
            for m in range(ms):
                kmem[f, m + 1] = k[f, m]
                vmem[f, m + 1] = v[f, m]
    else:
        kmem, vmem = k, v

    fhat = ref_attention(q, kmem, vmem, config.n_heads)
    proj = ref_layer_norm(ref_affine(fhat, w.p_o.weight, w.p_o.bias), w.ln_o.gain, w.ln_o.shift)
    mapped = ref_affine(proj, w.p_l.weight, w.p_l.bias)

    out = np.zeros((n, mv, dv))
    if t.gate:
        for f in range(n):
            u = [sum(float(c[f, 0, a]) * float(w.p_g1.weight[a, i]) for a in range(da))
                 + float(w.p_g1.bias[i]) for i in range(dv)]
            vg = [sum(float(c[f, 0, a]) * float(w.p_g2.weight[a, i]) for a in range(da))
                  + float(w.p_g2.bias[i]) for i in range(dv)]
            gate = [ref_swish(u[i]) * vg[i] for i in range(dv)]
            for m in range(mv):
                for i in range(dv):
                    out[f, m, i] = mapped[f, m, i] * gate[i] + xv[f, m, i]
    else:
        for f in range(n):
            for m in range(mv):
                for i in range(dv):
                    out[f, m, i] = mapped[f, m, i] + xv[f, m, i]
    return out
