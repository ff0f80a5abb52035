"""Experiment drivers: presets, Table-I harness plumbing, Fig-1/Fig-2 probes.

These tests run the drivers at a micro scale (not the bench scale) so the
suite stays fast while still executing every driver end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.ablations import run_communication_study
from repro.experiments.fig1 import PAPER_LAYERS, format_fig1, run_fig1
from repro.experiments.fig2 import format_fig2, run_fig2
from repro.experiments.presets import (
    SCALES,
    ExperimentScale,
    algorithm_kwargs,
    get_scale,
)
from repro.experiments.table1 import PAPER_TABLE1, format_table1, run_table1
from repro.fl.config import TrainConfig

#: Micro scale used only by this test module.
MICRO = ExperimentScale(
    name="micro",
    n_clients=6,
    n_samples=900,
    n_rounds=3,
    seeds=(0,),
    train=TrainConfig(local_epochs=1, batch_size=32, lr=0.05, momentum=0.9),
    eval_every=3,
    fig1_local_steps=10,
)


class TestPresets:
    def test_scales_exist(self):
        assert set(SCALES) == {"quick", "bench", "paper"}

    def test_get_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "bench")
        assert get_scale().name == "bench"
        monkeypatch.delenv("REPRO_SCALE")
        assert get_scale().name == "quick"
        with pytest.raises(ValueError, match="unknown scale"):
            get_scale("huge")

    def test_algorithm_kwargs_cover_table1(self):
        for method in ("fedavg", "fedprox", "cfl", "ifca", "pacfl", "fedclust"):
            kwargs = algorithm_kwargs(method, SCALES["quick"])
            assert isinstance(kwargs, dict)

    def test_paper_numbers_complete(self):
        for method in ("fedavg", "fedprox", "cfl", "ifca", "pacfl", "fedclust"):
            for ds in ("cifar10", "fmnist", "svhn"):
                assert (method, ds) in PAPER_TABLE1


@pytest.mark.slow
class TestTable1Driver:
    def test_two_method_run(self):
        result = run_table1(
            datasets=("fmnist",), methods=("fedavg", "fedclust"), scale=MICRO
        )
        cell = result.cell("fedclust", "fmnist")
        assert len(cell.accuracies) == 1
        assert 0.0 <= cell.mean <= 1.0
        assert result.winner("fmnist") in ("fedavg", "fedclust")
        text = format_table1(result)
        assert "fedclust" in text and "fmnist (paper)" in text

    def test_format_without_paper_column(self):
        result = run_table1(datasets=("fmnist",), methods=("fedavg",), scale=MICRO)
        text = format_table1(result, with_paper=False)
        assert "paper" not in text


@pytest.mark.slow
class TestFig1Driver:
    def test_probe_layers_and_separability(self):
        result = run_fig1(
            dataset="fmnist",
            n_clients=6,
            model_name="cnn_small",
            layer_indices=(1, 4),
            scale=MICRO,
        )
        assert set(result.distance_matrices) == {1, 4}
        for matrix in result.distance_matrices.values():
            assert matrix.shape == (6, 6)
        # Classifier layer (index 4 of cnn_small) beats the first conv.
        assert result.separability[4] > result.separability[1]
        assert result.best_layer() == 4
        text = format_fig1(result)
        assert "separability" in text.lower()

    def test_paper_layer_table(self):
        assert [i for i, _ in PAPER_LAYERS] == [1, 7, 14, 16]

    def test_bad_layer_index_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            run_fig1(
                dataset="fmnist",
                n_clients=4,
                model_name="cnn_small",
                layer_indices=(99,),
                scale=MICRO,
            )


@pytest.mark.slow
class TestFig2Driver:
    def test_workflow_trace(self):
        result = run_fig2(dataset="fmnist", scale=MICRO)
        assert [s.number for s in result.steps] == [1, 2, 3, 4, 5, 6]
        assert 0 < result.partial_upload_fraction < 1
        assert result.newcomer_assigned_cluster >= 0
        assert np.isfinite(result.newcomer_acc_with_cluster)
        text = format_fig2(result)
        assert "①" in text and "⑥" in text


@pytest.mark.slow
class TestAblationDrivers:
    def test_communication_study(self):
        result = run_communication_study(
            methods=("fedavg", "fedclust"), scale=MICRO, target_accuracy=0.2
        )
        fedavg = result.row_of("fedavg")
        fedclust = result.row_of("fedclust")
        assert fedavg["clustering_upload"] == 0
        assert fedclust["clustering_upload"] > 0
        assert "C1" in result.format()
