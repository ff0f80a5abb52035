"""The ReLU kernel's bit-exact select against the ``np.where`` oracle.

``ReLU`` and ``BatchedActivation("relu")`` select through
:func:`repro.nn.functional.mask_select`, an integer-view multiply; it
must give the bytes ``np.where(mask, x, 0)`` gives on every input —
``-0.0`` (→ ``+0.0``), NaN (→ ``0`` forward, kept where the mask passes
a gradient), ±inf and subnormals — in both float widths and in the
NHWC-strided layout ``Conv2d`` returns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.batched import BatchedActivation
from repro.nn.functional import mask_select
from repro.nn.layers import ReLU

from helpers import where_select


def _special(dtype: np.dtype) -> list[float]:
    info = np.finfo(dtype)
    tiny = float(info.smallest_subnormal)
    return [0.0, -0.0, np.nan, np.inf, -np.inf, tiny, -tiny, float(info.max), -float(info.max)]


@st.composite
def tensors(draw) -> tuple[np.ndarray, np.ndarray]:
    """An input and an upstream gradient of one dtype, shape and layout."""
    dtype = np.dtype(draw(st.sampled_from([np.float32, np.float64])))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=4, max_size=4)))
    elements = st.one_of(
        st.sampled_from(_special(dtype)),
        st.floats(width=8 * dtype.itemsize, allow_nan=True, allow_infinity=True),
    )
    pair = []
    for _ in range(2):
        # Transposed: an NHWC buffer viewed as NCHW, the layout Conv2d
        # returns.  Drawn per array, since in training a C-contiguous
        # gradient meets the mask of a transposed input.
        if draw(st.booleans()):
            nhwc = (shape[0], shape[2], shape[3], shape[1])
            pair.append(draw(arrays(dtype, nhwc, elements=elements)).transpose(0, 3, 1, 2))
        else:
            pair.append(draw(arrays(dtype, shape, elements=elements)))
    return pair[0], pair[1]


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(tensors())
def test_relu_forward_backward_match_where(pair):
    x, grad = pair
    layer = ReLU()
    mask = x > 0
    _assert_same_bits(layer.forward(x), where_select(x, mask))
    _assert_same_bits(layer.backward(grad), where_select(grad, mask))


@settings(max_examples=150, deadline=None)
@given(tensors())
def test_batched_relu_forward_backward_match_where(pair):
    x, grad = pair
    layer = BatchedActivation("relu")
    mask = x > 0
    _assert_same_bits(layer.forward(x), where_select(x, mask))
    _assert_same_bits(layer.backward(grad), where_select(grad, mask))


@pytest.mark.parametrize("dtype", [np.float16, np.int32, np.int64, np.uint8])
def test_other_dtypes_match_where(dtype):
    values = np.array([[3, 0, 5], [7, 1, 2]], dtype=dtype)
    mask = np.array([[True, False, True], [False, True, False]])
    _assert_same_bits(mask_select(values, mask), where_select(values, mask))
