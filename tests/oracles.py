"""Independent naive-loop reference implementations.

Everything here is written as plain nested loops (or, for the scalar
functions, the defining formula applied pointwise) so that it shares no code
path with the vectorized kernels under test.  Comparisons run in float64,
where rounding noise sits far below the 1e-6 gate.
"""

import math

import numpy as np


def depthwise_conv_loops(x, weights, bias, kernel, dilation):
    n, c, h, w = x.shape
    pad = dilation * (kernel - 1) // 2
    out = np.zeros((n, c, h, w), dtype=x.dtype)
    for b_i in range(n):
        for c_i in range(c):
            for y in range(h):
                for x_i in range(w):
                    acc = bias[c_i]
                    for ky in range(kernel):
                        for kx in range(kernel):
                            sy = y + ky * dilation - pad
                            sx = x_i + kx * dilation - pad
                            if 0 <= sy < h and 0 <= sx < w:
                                acc += weights[c_i, ky, kx] * x[b_i, c_i, sy, sx]
                    out[b_i, c_i, y, x_i] = acc
    return out


def depthwise_conv_backward_loops(grad_out, x, weights, kernel, dilation):
    n, c, h, w = x.shape
    pad = dilation * (kernel - 1) // 2
    grad_x = np.zeros_like(x)
    grad_w = np.zeros_like(weights)
    grad_b = np.zeros(c, dtype=grad_out.dtype)
    for b_i in range(n):
        for c_i in range(c):
            for y in range(h):
                for x_i in range(w):
                    g = grad_out[b_i, c_i, y, x_i]
                    grad_b[c_i] += g
                    for ky in range(kernel):
                        for kx in range(kernel):
                            sy = y + ky * dilation - pad
                            sx = x_i + kx * dilation - pad
                            if 0 <= sy < h and 0 <= sx < w:
                                grad_w[c_i, ky, kx] += g * x[b_i, c_i, sy, sx]
                                grad_x[b_i, c_i, sy, sx] += g * weights[c_i, ky, kx]
    return grad_x, grad_w, grad_b


def conv2d_loops(x, weights, bias, stride, padding):
    n, c_in, h, w = x.shape
    c_out, _, k, _ = weights.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = np.zeros((n, c_out, oh, ow), dtype=x.dtype)
    for b_i in range(n):
        for o in range(c_out):
            for y in range(oh):
                for x_i in range(ow):
                    acc = bias[o]
                    for c_i in range(c_in):
                        for ky in range(k):
                            for kx in range(k):
                                sy = y * stride + ky - padding
                                sx = x_i * stride + kx - padding
                                if 0 <= sy < h and 0 <= sx < w:
                                    acc += weights[o, c_i, ky, kx] * x[b_i, c_i, sy, sx]
                    out[b_i, o, y, x_i] = acc
    return out


def pointwise_conv_loops(x, weights, bias):
    n, c_in, h, w = x.shape
    c_out = weights.shape[0]
    out = np.zeros((n, c_out, h, w), dtype=x.dtype)
    for b_i in range(n):
        for y in range(h):
            for x_i in range(w):
                for o in range(c_out):
                    acc = bias[o]
                    for c_i in range(c_in):
                        acc += weights[o, c_i] * x[b_i, c_i, y, x_i]
                    out[b_i, o, y, x_i] = acc
    return out


def conv2d_backward_loops(grad_out, x, weights, stride, padding):
    n, c_in, h, w = x.shape
    c_out, _, k, _ = weights.shape
    _, _, oh, ow = grad_out.shape
    grad_x = np.zeros_like(x)
    grad_w = np.zeros_like(weights)
    grad_b = np.zeros(c_out, dtype=grad_out.dtype)
    for b_i in range(n):
        for o in range(c_out):
            for y in range(oh):
                for x_i in range(ow):
                    g = grad_out[b_i, o, y, x_i]
                    grad_b[o] += g
                    for c_i in range(c_in):
                        for ky in range(k):
                            for kx in range(k):
                                sy = y * stride + ky - padding
                                sx = x_i * stride + kx - padding
                                if 0 <= sy < h and 0 <= sx < w:
                                    grad_w[o, c_i, ky, kx] += g * x[b_i, c_i, sy, sx]
                                    grad_x[b_i, c_i, sy, sx] += g * weights[o, c_i, ky, kx]
    return grad_x, grad_w, grad_b


def pointwise_conv_backward_loops(grad_out, x, weights):
    n, c_in, h, w = x.shape
    c_out = weights.shape[0]
    grad_x = np.zeros_like(x)
    grad_w = np.zeros_like(weights)
    grad_b = np.zeros(c_out, dtype=grad_out.dtype)
    for b_i in range(n):
        for y in range(h):
            for x_i in range(w):
                for o in range(c_out):
                    g = grad_out[b_i, o, y, x_i]
                    grad_b[o] += g
                    for c_i in range(c_in):
                        grad_w[o, c_i] += g * x[b_i, c_i, y, x_i]
                        grad_x[b_i, c_i, y, x_i] += g * weights[o, c_i]
    return grad_x, grad_w, grad_b


def channel_pool_loops(x, mode):
    n, c, h, w = x.shape
    out = np.zeros((n, 1, h, w), dtype=x.dtype)
    for b_i in range(n):
        for y in range(h):
            for x_i in range(w):
                vals = [x[b_i, c_i, y, x_i] for c_i in range(c)]
                out[b_i, 0, y, x_i] = (sum(vals) / c) if mode == "avg" else max(vals)
    return out


def sigmoid_ref(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def gelu_ref(x):
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def gelu_backward_ref(grad_out, x):
    """grad_out * gelu'(x) in float64, in the unfactored form
    0.5*(1 + t) + 0.5*x*(1 - t^2)*d_inner."""
    g = np.asarray(grad_out, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    s = np.sqrt(2.0 / np.pi)
    t = np.tanh(s * (x + 0.044715 * x**3))
    d_inner = s * (1.0 + 3.0 * 0.044715 * x**2)
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner)


def global_avg_pool_loops(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, 1, 1), dtype=x.dtype)
    for b_i in range(n):
        for c_i in range(c):
            out[b_i, c_i, 0, 0] = x[b_i, c_i].sum() / (h * w)
    return out


def affine_norm_loops(x, scale, shift, mean, var, eps):
    n, c, h, w = x.shape
    out = np.zeros_like(x)
    for c_i in range(c):
        inv = 1.0 / np.sqrt(var[c_i] + eps)
        out[:, c_i] = scale[c_i] * (x[:, c_i] - mean[c_i]) * inv + shift[c_i]
    return out


def _channel_values(x, c_i):
    n, _, h, w = x.shape
    return [float(x[b_i, c_i, y, x_i]) for b_i in range(n) for y in range(h) for x_i in range(w)]


def batch_norm_loops(x, scale, shift, eps):
    """Training-mode batch norm with the biased per-channel statistics of the
    batch, element by element; returns (y, mean, var)."""
    n, c, h, w = x.shape
    out = np.zeros_like(x)
    means, variances = np.zeros(c, dtype=x.dtype), np.zeros(c, dtype=x.dtype)
    for c_i in range(c):
        vals = _channel_values(x, c_i)
        mean = math.fsum(vals) / len(vals)
        var = math.fsum((v - mean) ** 2 for v in vals) / len(vals)
        means[c_i], variances[c_i] = mean, var
        inv_std = 1.0 / math.sqrt(var + eps)
        for b_i in range(n):
            for y in range(h):
                for x_i in range(w):
                    out[b_i, c_i, y, x_i] = scale[c_i] * (x[b_i, c_i, y, x_i] - mean) * inv_std + shift[c_i]
    return out, means, variances


def batch_norm_backward_loops(grad_out, x, scale, eps):
    """Gradients of ``batch_norm_loops`` w.r.t. x, scale and shift, by the
    chain rule taken one stage at a time (the normalized value, then the
    variance, then the mean) from the raw input."""
    n, c, h, w = x.shape
    m = n * h * w
    grad_x = np.zeros_like(x)
    grad_scale = np.zeros(c, dtype=x.dtype)
    grad_shift = np.zeros(c, dtype=x.dtype)
    for c_i in range(c):
        vals = _channel_values(x, c_i)
        g = _channel_values(grad_out, c_i)
        mean = math.fsum(vals) / m
        centered = [v - mean for v in vals]
        inv = 1.0 / math.sqrt(math.fsum(d * d for d in centered) / m + eps)
        d_hat = [gk * scale[c_i] for gk in g]
        grad_shift[c_i] = math.fsum(g)
        grad_scale[c_i] = math.fsum(gk * d * inv for gk, d in zip(g, centered))
        d_var = math.fsum(dh * d for dh, d in zip(d_hat, centered)) * -0.5 * inv**3
        d_mean = -inv * math.fsum(d_hat) - 2.0 * d_var * math.fsum(centered) / m
        k = 0
        for b_i in range(n):
            for y in range(h):
                for x_i in range(w):
                    grad_x[b_i, c_i, y, x_i] = (
                        d_hat[k] * inv + 2.0 * d_var * centered[k] / m + d_mean / m
                    )
                    k += 1
    return grad_x, grad_scale, grad_shift


def lsk_composition(x, params, pooling=("avg", "max")):
    """Straight-line re-implementation of the spatial selection pipeline,
    composed from the loop oracles above."""
    n_kernels = params.plan.n_kernels
    u = x
    mixed = []
    for dw, mix, spec in zip(params.dw, params.mix, params.plan.stages):
        u = depthwise_conv_loops(u, dw.weight, dw.bias, spec.kernel, spec.dilation)
        mixed.append(pointwise_conv_loops(u, mix.weight, mix.bias))
    cat = np.concatenate(mixed, axis=1)
    descriptors = [channel_pool_loops(cat, m) for m in pooling]
    pooled = np.concatenate(descriptors, axis=1)
    q = params.select.weight.shape[2]
    logits = conv2d_loops(pooled, params.select.weight, params.select.bias, 1, (q - 1) // 2)
    masks = sigmoid_ref(logits)
    weighted = np.zeros_like(mixed[0])
    for i in range(n_kernels):
        weighted = weighted + mixed[i] * masks[:, i : i + 1]
    fused = pointwise_conv_loops(weighted, params.fuse.weight, params.fuse.bias)
    return x * fused, masks


def _normalize_loops(values):
    lo, hi = min(values), max(values)
    return [1.0 if hi == lo else (v - lo) / (hi - lo) for v in values]


def analyze_images_loops(images):
    """The selection statistics of ``analysis.analyze_images``, element by
    element with exact sums (``math.fsum``) over float64 values.

    ``images`` is a list of (record, boxes); only ``record.rf``,
    ``record.masks``, ``box.vertices`` and ``box.category`` are read.
    Returns ({category: (r_c_raw, r_c_norm, image_count)},
    {category: {block_key: (delta_raw, delta_norm, delta_abs)}}).

    An image is eligible for a category when all its boxes carry that
    category and their total area is positive. R_c averages activation /
    total box area over the eligible images; a category with none is left
    out. The selection difference (two-kernel records only) averages the
    same eligible images per block.
    """

    def shoelace(v):
        twice = 0.0
        for i in range(4):
            x0, y0 = float(v[i][0]), float(v[i][1])
            x1, y1 = float(v[(i + 1) % 4][0]), float(v[(i + 1) % 4][1])
            twice += x0 * y1 - x1 * y0
        return abs(twice) / 2.0

    def elements(plane):
        return [float(value) for value in np.asarray(plane).ravel()]

    categories = sorted({b.category for _, boxes in images for b in boxes})
    rc, diffs = {}, {}
    for cat in categories:
        eligible = [
            (rec, boxes)
            for rec, boxes in images
            if boxes
            and all(b.category == cat for b in boxes)
            and sum(shoelace(b.vertices) for b in boxes) > 0.0
        ]
        ratios = []
        for rec, boxes in eligible:
            area = sum(shoelace(b.vertices) for b in boxes)
            terms = []
            for key in sorted(rec.masks):
                for n_idx, rf in enumerate(rec.rf):
                    terms.extend(float(rf) * v for v in elements(rec.masks[key][:, n_idx]))
            ratios.append(math.fsum(terms) / area)
        if not ratios:
            continue
        rc[cat] = [math.fsum(ratios) / len(ratios), None, len(ratios)]
        if len(eligible[0][0].rf) != 2:
            continue
        keys = sorted(eligible[0][0].masks)
        signed, absolute = [], []
        for key in keys:
            per_image_signed, per_image_abs = [], []
            for rec, _ in eligible:
                m = rec.masks[key]
                d = [b - a for a, b in zip(elements(m[:, 0]), elements(m[:, 1]))]
                per_image_signed.append(math.fsum(d) / len(d))
                per_image_abs.append(math.fsum(abs(v) for v in d) / len(d))
            signed.append(math.fsum(per_image_signed) / len(eligible))
            absolute.append(math.fsum(per_image_abs) / len(eligible))
        diffs[cat] = {
            key: (s, norm, a) for key, s, norm, a in zip(keys, signed, _normalize_loops(signed), absolute)
        }
    for cat, norm in zip(rc, _normalize_loops([v[0] for v in rc.values()]) if rc else []):
        rc[cat][1] = norm
    return {cat: tuple(v) for cat, v in rc.items()}, diffs
