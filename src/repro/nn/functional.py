"""Stateless numerical kernels used by the layers.

Everything here is vectorised NumPy (per the HPC guides: no per-sample
Python loops on hot paths).  Convolution and pooling are implemented with
the classic im2col/col2im lowering so the inner loop is a single BLAS
``matmul``; the only Python-level loops iterate over the *kernel* extent
(e.g. 5×5 = 25 iterations), never over samples or pixels.

Array layout convention: images are ``(N, C, H, W)`` float arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_output_size",
    "pad_nchw",
    "sliding_windows",
    "im2col",
    "col2im",
    "mask_select",
    "softmax",
    "log_softmax",
    "one_hot",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output extent of a convolution/pooling along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def pad_nchw(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two spatial axes of an ``(N, C, H, W)`` batch."""
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def sliding_windows(
    x_padded: np.ndarray, kernel_h: int, kernel_w: int, stride: int
) -> np.ndarray:
    """Zero-copy view of all convolution windows.

    Returns a read-only view of shape ``(N, C, OH, OW, KH, KW)`` built with
    stride tricks — no data is materialised until a downstream reshape.
    """
    n, c, h, w = x_padded.shape
    out_h = (h - kernel_h) // stride + 1
    out_w = (w - kernel_w) // stride + 1
    s_n, s_c, s_h, s_w = x_padded.strides
    shape = (n, c, out_h, out_w, kernel_h, kernel_w)
    strides = (s_n, s_c, s_h * stride, s_w * stride, s_h, s_w)
    return np.lib.stride_tricks.as_strided(
        x_padded, shape=shape, strides=strides, writeable=False
    )


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Lower convolution input to a 2-D matrix of flattened windows.

    Returns ``(cols, (out_h, out_w))`` where ``cols`` has shape
    ``(N * OH * OW, C * KH * KW)``; row ``n*OH*OW + i*OW + j`` holds the
    window of sample ``n`` centred at output position ``(i, j)``.
    ``out`` lets callers reuse a scratch buffer of exactly that shape
    for the one materialising copy (row-tiled convolution does).
    """
    x_padded = pad_nchw(x, padding)
    windows = sliding_windows(x_padded, kernel_h, kernel_w, stride)
    n, c, out_h, out_w = windows.shape[:4]
    # (N, OH, OW, C, KH, KW) then flatten — this is the one materialising copy.
    source = windows.transpose(0, 2, 3, 1, 4, 5)
    if out is None:
        cols = source.reshape(n * out_h * out_w, c * kernel_h * kernel_w)
        return cols, (out_h, out_w)
    expected = (n * out_h * out_w, c * kernel_h * kernel_w)
    if out.shape != expected:
        raise ValueError(f"out has shape {out.shape}, expected {expected}")
    np.copyto(
        out.reshape(n, out_h, out_w, c, kernel_h, kernel_w), source
    )
    return out, (out_h, out_w)


def col2im(
    dcols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add window gradients back.

    ``dcols`` has the shape produced by :func:`im2col`.  Overlapping
    windows accumulate, which is exactly the convolution input gradient.
    """
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kernel_h) // stride + 1
    out_w = (w + 2 * padding - kernel_w) // stride + 1
    dwin = dcols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(
        0, 3, 4, 5, 1, 2
    )  # (N, C, KH, KW, OH, OW)
    dx_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=dcols.dtype)
    for i in range(kernel_h):
        i_stop = i + stride * out_h
        for j in range(kernel_w):
            j_stop = j + stride * out_w
            dx_padded[:, :, i:i_stop:stride, j:j_stop:stride] += dwin[:, :, i, j]
    if padding == 0:
        return dx_padded
    return dx_padded[:, :, padding : padding + h, padding : padding + w]


def mask_select(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``values`` where ``mask`` is set, ``+0`` elsewhere (the ReLU kernel).

    Bit-identical to ``np.where(mask, values, 0)`` on every input —
    ``-0.0``, NaN, ±inf and subnormals included, in the same memory
    layout — but for float dtypes it multiplies the same-width integer
    view by the bool mask instead: an unmasked element keeps its exact
    bits and a masked one becomes all-zero bits, i.e. ``+0.0``.  That
    is an order of magnitude faster than ``np.where`` with a scalar
    operand.  Other dtypes take ``np.where`` itself.
    """
    if values.dtype.kind != "f" or values.dtype.itemsize not in (2, 4, 8):
        return np.where(mask, values, 0)
    bits = np.dtype(f"i{values.dtype.itemsize}")
    return (values.view(bits) * mask).view(values.dtype)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, n_classes: int, dtype: np.dtype | type = np.float32) -> np.ndarray:
    """Encode integer ``labels`` (shape ``(N,)``) as an ``(N, C)`` matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.shape[0], n_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1
    return out
