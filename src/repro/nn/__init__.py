"""From-scratch NumPy deep-learning substrate.

Implements everything the FedClust reproduction needs from a deep-learning
framework: a module tree with manual backpropagation, im2col convolutions,
pooling, group norm, dropout, the cross-entropy loss, SGD-family
optimisers (including the FedProx proximal variant), weight initialisers,
a model zoo (LeNet-5, MLP, VGG-style nets, a tiny ResNet), and the flat
parameter plane that federated aggregation runs on.
"""

from repro.nn import batched, functional, init, state, state_flat
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    GroupNorm,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.loss import CrossEntropyLoss, Loss
from repro.nn.models import (
    Residual,
    available_models,
    build_model,
    cnn_small,
    final_linear_name,
    lenet5,
    minivgg,
    mlp,
    parameterized_layers,
    resnet_tiny,
    vgg16_style,
)
from repro.nn.module import Module, Sequential
from repro.nn.state_flat import (
    StateLayout,
    pack_state,
    unpack_keys,
    unpack_state,
)
from repro.nn.optim import SGD, Optimizer, ProximalSGD
from repro.nn.parameter import Parameter

__all__ = [
    "batched",
    "functional",
    "init",
    "state",
    "state_flat",
    "StateLayout",
    "pack_state",
    "unpack_keys",
    "unpack_state",
    "AvgPool2d",
    "Conv2d",
    "Dropout",
    "Flatten",
    "LeakyReLU",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "CrossEntropyLoss",
    "Loss",
    "available_models",
    "build_model",
    "cnn_small",
    "final_linear_name",
    "lenet5",
    "minivgg",
    "mlp",
    "parameterized_layers",
    "vgg16_style",
    "Module",
    "Sequential",
    "SGD",
    "Optimizer",
    "ProximalSGD",
    "Parameter",
    "GroupNorm",
    "Residual",
    "resnet_tiny",
]
