"""Shared test utilities: numerical gradient checking, a cophenetic-distance
oracle, the ReLU-select oracle, event-log views, the FedAvg rule over
state dicts, and the dict-path oracles the packed kernels are checked
against (per-key weighted average, cohort packing, per-client
evaluation loop).

The gradient checker is the backbone of the ``repro.nn`` test suite:
every layer's analytic backward pass is compared against central-
difference numerical gradients on float64 inputs.  To keep the suite
fast, a random subset of coordinates is probed per tensor (enough to
catch any indexing/transposition bug, which corrupts most coordinates).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.fl.aggregation import _normalized_weights, packed_weighted_average
from repro.fl.evaluation import evaluate_model
from repro.nn.module import Module
from repro.nn.state_flat import StateLayout, pack_state, unpack_state


def loss_for(module: Module, x: np.ndarray, probe: np.ndarray) -> float:
    """Scalar projection loss ``sum(forward(x) * probe)``.

    A fixed random projection makes the upstream gradient of the output
    exactly ``probe``, so ``module.backward(probe)`` should produce the
    analytic gradients of this loss.
    """
    return float((module.forward(x) * probe).sum())


def numerical_grad_entries(
    f,
    array: np.ndarray,
    indices: list[tuple[int, ...]],
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference derivative of ``f()`` w.r.t. chosen entries of
    ``array`` (mutated in place and restored)."""
    out = np.zeros(len(indices))
    for n, idx in enumerate(indices):
        original = array[idx]
        array[idx] = original + eps
        f_plus = f()
        array[idx] = original - eps
        f_minus = f()
        array[idx] = original
        out[n] = (f_plus - f_minus) / (2 * eps)
    return out


def sample_indices(
    shape: tuple[int, ...], rng: np.random.Generator, max_entries: int = 24
) -> list[tuple[int, ...]]:
    """Up to ``max_entries`` distinct coordinates of an array shape."""
    total = int(np.prod(shape))
    count = min(max_entries, total)
    flat = rng.choice(total, size=count, replace=False)
    return [tuple(int(v) for v in np.unravel_index(i, shape)) for i in flat]


def check_module_gradients(
    module: Module,
    x: np.ndarray,
    rng: np.random.Generator,
    rtol: float = 1e-4,
    atol: float = 1e-6,
    check_input: bool = True,
) -> None:
    """Assert analytic == numerical gradients for a module.

    ``x`` must be float64 (and the module's parameters should be too) so
    the central differences are accurate.
    """
    assert x.dtype == np.float64, "gradient checks need float64 inputs"
    out = module.forward(x)
    probe = rng.standard_normal(out.shape)

    module.zero_grad()
    module.forward(x)  # fresh cache for the checked backward
    grad_input = module.backward(probe.copy())
    assert grad_input.shape == x.shape

    def f() -> float:
        return loss_for(module, x, probe)

    if check_input:
        idx = sample_indices(x.shape, rng)
        numeric = numerical_grad_entries(f, x, idx)
        analytic = np.array([grad_input[i] for i in idx])
        np.testing.assert_allclose(
            analytic, numeric, rtol=rtol, atol=atol,
            err_msg=f"input gradient mismatch for {type(module).__name__}",
        )

    for name, param in module.named_parameters():
        idx = sample_indices(param.data.shape, rng)
        numeric = numerical_grad_entries(f, param.data, idx)
        analytic = np.array([param.grad[i] for i in idx])
        np.testing.assert_allclose(
            analytic, numeric, rtol=rtol, atol=atol,
            err_msg=f"parameter gradient mismatch for {name}",
        )


def where_select(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Reference ReLU select: ``values`` where ``mask``, else ``0``.

    The oracle for :func:`repro.nn.functional.mask_select`, which must
    match it bit for bit on every input.
    """
    return np.where(mask, values, 0)


def to_float64(module: Module) -> Module:
    """Cast every parameter of a module to float64 in place."""
    for param in module.parameters():
        param.data = param.data.astype(np.float64)
        param.grad = np.zeros_like(param.data)
    return module


def by_round(events, kind: str) -> list[tuple[int, list]]:
    """One kind of an engine event log, grouped into ``(round, [...])``.

    Consecutive ``kind`` events of the same round form one group, in log
    order; items are client ids, or ``(client id, reason)`` pairs for
    ``"quarantine"`` events.  The view the round engine's tests assert
    on (``[(2, [0]), (3, [4])]`` — client 0 departed in round 2, ...).
    """
    grouped: list[tuple[int, list]] = []
    for event in events:
        if event.kind != kind:
            continue
        item = (event.client, event.reason) if kind == "quarantine" else event.client
        if grouped and grouped[-1][0] == event.round:
            grouped[-1][1].append(item)
        else:
            grouped.append((event.round, [item]))
    return grouped


def counts_by_round(events) -> dict[int, dict[str, int]]:
    """Event counts per kind, keyed by the round that logged them.

    Retry epochs (``round + 1_000_000 × attempt``) count toward their
    base round, as the round's :class:`repro.fl.history.RoundRecord`
    does.
    """
    counts: dict[int, dict[str, int]] = {}
    for event in events:
        kinds = counts.setdefault(event.round % 1_000_000, {})
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    return counts


def cophenetic_matrix(linkage_matrix: np.ndarray) -> np.ndarray:
    """Square matrix of cophenetic distances (the merge height joining i, j).

    The oracle that checks a linkage matrix's tree structure against
    ``scipy.cluster.hierarchy.cophenet``.
    """
    z = np.asarray(linkage_matrix)
    n = z.shape[0] + 1
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    out = np.zeros((n, n))
    for step in range(n - 1):
        a, b = int(z[step, 0]), int(z[step, 1])
        left, right = members.pop(a), members.pop(b)
        li = np.array(left)[:, None]
        ri = np.array(right)[None, :]
        out[li, ri] = z[step, 2]
        out[ri.T, li.T] = z[step, 2]
        members[n + step] = left + right
    return out


def packed_average(states, weights):
    """The FedAvg rule over state dicts through the packed kernel: pack
    the cohort, one :func:`packed_weighted_average` GEMV, unpack."""
    matrix, layout = pack_states(states)
    return unpack_state(packed_weighted_average(matrix, weights), layout)


# ----------------------------------------------------------------------
# Dict-path oracles for the packed kernels
# ----------------------------------------------------------------------
def check_same_keys(states: Sequence[Mapping[str, np.ndarray]]) -> list[str]:
    """Require all states to share an identical key sequence; return it."""
    if not states:
        raise ValueError("need at least one state dict")
    keys = list(states[0].keys())
    for i, s in enumerate(states[1:], start=1):
        if list(s.keys()) != keys:
            raise KeyError(
                f"state {i} keys differ from state 0: "
                f"{sorted(set(s) ^ set(keys))}"
            )
    return keys


def state_zeros_like(state: Mapping[str, np.ndarray]) -> "OrderedDict[str, np.ndarray]":
    """Zero-filled state with the same keys/shapes/dtypes."""
    return OrderedDict((k, np.zeros_like(v)) for k, v in state.items())


def state_axpy(
    acc: dict[str, np.ndarray], state: Mapping[str, np.ndarray], factor: float
) -> None:
    """In-place ``acc += factor * state`` (the aggregation inner loop)."""
    for k, v in state.items():
        acc[k] += factor * v


def weighted_average_dict(
    states: Sequence[Mapping[str, np.ndarray]],
    weights: Sequence[float],
) -> "OrderedDict[str, np.ndarray]":
    """Reference per-key implementation of the FedAvg rule.

    The pre-flat-plane kernel: a Python loop of per-key AXPYs with a
    float64 accumulator, cast back to the parameter dtype at the end.
    Kept as the baseline that benchmarks and numerical cross-checks
    compare the packed kernel against.
    """
    check_same_keys(list(states))
    w = _normalized_weights(weights, len(states))

    acc = state_zeros_like(states[0])
    # Accumulate in float64 for stability, cast back to parameter dtype.
    acc64 = OrderedDict((k, v.astype(np.float64)) for k, v in acc.items())
    for state, weight in zip(states, w):
        state_axpy(acc64, state, weight)
    return OrderedDict(
        (k, acc64[k].astype(states[0][k].dtype)) for k in acc64
    )


def pack_states(
    states: Sequence[Mapping[str, np.ndarray]],
    layout: StateLayout | None = None,
) -> tuple[np.ndarray, StateLayout]:
    """Pack a cohort of states into one ``(n_clients, n_params)`` matrix.

    Row ``i`` is client ``i``'s packed state.  The matrix is float64 and
    C-contiguous — the direct operand of
    :func:`repro.fl.aggregation.packed_weighted_average` and
    :func:`repro.core.weights.packed_weight_matrix`.
    """
    states = list(states)
    if not states:
        raise ValueError("need at least one state to pack")
    if layout is None:
        layout = StateLayout.from_state(states[0])
    matrix = np.empty((len(states), layout.n_params), dtype=np.float64)
    for i, state in enumerate(states):
        pack_state(state, layout, out=matrix[i])
    return matrix, layout


def mean_local_accuracy(
    model: Module,
    client_states: Sequence[Mapping[str, np.ndarray]],
    client_testsets: Sequence[ArrayDataset],
    batch_size: int = 512,
) -> tuple[float, np.ndarray]:
    """Mean (and per-client vector) of local test accuracies.

    ``client_states[i]`` is the state dict serving client ``i`` —
    algorithms pass the global state for every client, or each client's
    cluster model.  ``model`` is a scratch instance reused across clients.

    Reference implementation (one load + one batch loop per client);
    production call sites go through :mod:`repro.fl.eval_flat`, which is
    bit-identical on accuracies and ~k/n the server-side work.
    """
    if len(client_states) != len(client_testsets):
        raise ValueError(
            f"{len(client_states)} states but {len(client_testsets)} test sets"
        )
    accs = np.zeros(len(client_states))
    for i, (state, testset) in enumerate(zip(client_states, client_testsets)):
        model.load_state_dict(state)
        accs[i] = evaluate_model(model, testset, batch_size=batch_size).accuracy
    return float(accs.mean()), accs
