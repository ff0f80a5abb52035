"""Layer catalogue."""

from repro.nn.layers.activation import LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import GroupNorm
from repro.nn.layers.pool import AvgPool2d, MaxPool2d

__all__ = [
    "LeakyReLU",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Conv2d",
    "Dropout",
    "Flatten",
    "Linear",
    "GroupNorm",
    "AvgPool2d",
    "MaxPool2d",
]
