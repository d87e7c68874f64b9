"""Tests for the single-machine and distributed full-batch trainers."""

import sys
import threading
import weakref

import numpy as np
import pytest

from repro import nn
from repro.core import SARConfig
from repro.datasets import make_sbm_dataset, ogbn_mag_mini
from repro.graph.mfg import MFGPipeline
from repro.sample import NeighborSamplingConfig
from repro.store import DenseStore
from repro.training import DistributedTrainer, FullBatchTrainer, TrainingConfig
from repro.utils.seed import set_seed


@pytest.fixture
def learnable_dataset():
    return make_sbm_dataset(
        name="trainer-test", num_nodes=240, num_classes=4, feature_dim=16,
        p_in=0.12, p_out=0.01, noise=1.5, train_frac=0.5, val_frac=0.2,
        test_frac=0.3, seed=2,
    )


class _RowSpy:
    """Counts the layer-0 row blocks gathered for sampled batches, and how
    many of them are alive, now and at most.  It watches both routes rows
    can take: ``MFGPipeline.gather_inputs`` (the trainer gathering at use)
    and ``DenseStore.gather`` (a loader pre-gathering after
    ``set_features``)."""

    def __init__(self, monkeypatch):
        self._lock = threading.Lock()
        self.alive = self.peak_alive = self.gathers = 0
        for cls, name in ((MFGPipeline, "gather_inputs"), (DenseStore, "gather")):
            monkeypatch.setattr(cls, name, self._spying(getattr(cls, name)))

    def _spying(self, gather):
        def spied(owner, arg):
            rows = gather(owner, arg)
            if arg is not None:  # DenseStore.gather(None) is the matrix itself
                with self._lock:
                    self.gathers += 1
                    self.alive += 1
                    self.peak_alive = max(self.peak_alive, self.alive)
                weakref.finalize(rows, self._dropped)
            return rows
        return spied

    def _dropped(self):
        with self._lock:
            self.alive -= 1


def _sage_factory(num_classes):
    return lambda in_f: nn.GraphSageNet(in_f, 32, num_classes, dropout=0.2)


class TestFullBatchTrainer:
    def test_loss_decreases_and_accuracy_beats_chance(self, learnable_dataset):
        set_seed(0)
        model = nn.GraphSageNet(learnable_dataset.feature_dim, 32,
                                learnable_dataset.num_classes, dropout=0.2)
        config = TrainingConfig(num_epochs=20, lr=0.01, eval_every=0)
        result = FullBatchTrainer(model, learnable_dataset, config).train()
        losses = result.losses()
        assert losses[-1] < losses[0]
        assert result.final_test_accuracy > 1.5 / learnable_dataset.num_classes
        assert result.num_epochs == 20

    def test_eval_every_populates_curve(self, learnable_dataset):
        set_seed(0)
        model = nn.GraphSageNet(learnable_dataset.feature_dim, 16,
                                learnable_dataset.num_classes)
        config = TrainingConfig(num_epochs=6, eval_every=2)
        result = FullBatchTrainer(model, learnable_dataset, config).train()
        assert len(result.accuracy_curve()) == 3

    def test_label_augmentation_changes_input_width(self, learnable_dataset):
        set_seed(0)
        config = TrainingConfig(num_epochs=3, label_augmentation=True, eval_every=0)
        in_features = learnable_dataset.feature_dim + learnable_dataset.num_classes
        model = nn.GraphSageNet(in_features, 16, learnable_dataset.num_classes)
        result = FullBatchTrainer(model, learnable_dataset, config).train()
        assert np.isfinite(result.records[-1].loss)

    def test_correct_and_smooth_reported(self, learnable_dataset):
        set_seed(0)
        model = nn.GraphSageNet(learnable_dataset.feature_dim, 16,
                                learnable_dataset.num_classes)
        config = TrainingConfig(num_epochs=5, correct_and_smooth=True, eval_every=0)
        result = FullBatchTrainer(model, learnable_dataset, config).train()
        assert result.cs_accuracies is not None
        assert "test" in result.cs_accuracies

    def test_one_batch_of_input_rows_and_none_through_the_backward(self, learnable_dataset,
                                                                   monkeypatch):
        spy = _RowSpy(monkeypatch)
        sampler = NeighborSamplingConfig(fanouts=(3, 3), batch_size=16, num_workers=1)
        config = TrainingConfig(num_epochs=2, eval_every=0, sampler=sampler)
        model = nn.GraphSageNet(learnable_dataset.feature_dim, 16,
                                learnable_dataset.num_classes, num_layers=2)
        trainer = FullBatchTrainer(model, learnable_dataset, config)
        alive_at_backward = []
        step = trainer._step

        def spied_step(loss, count):
            alive_at_backward.append(spy.alive)
            step(loss, count)

        monkeypatch.setattr(trainer, "_step", spied_step)
        trainer.train()
        batches = 2 * len(trainer.sample_loader)
        assert spy.gathers == len(alive_at_backward) == batches
        assert spy.peak_alive == 1
        assert alive_at_backward == [0] * batches

    def test_invalid_schedule_raises(self, learnable_dataset):
        model = nn.GraphSageNet(learnable_dataset.feature_dim, 8,
                                learnable_dataset.num_classes)
        with pytest.raises(ValueError, match="lr_schedule"):
            FullBatchTrainer(model, learnable_dataset,
                             TrainingConfig(num_epochs=1, lr_schedule="bogus"))


#: sampler settings no trainer can run on a 2-layer model -> the field the message names
BAD_SAMPLERS = {
    "batch_size": (dict(sampler=NeighborSamplingConfig(fanouts=(2, 2), batch_size=0)),
                   "sampler.batch_size"),
    "fanout_value": (dict(sampler=NeighborSamplingConfig(fanouts=(2, -2))),
                     r"sampler.fanouts\[1\]"),
    "fanout_type": (dict(sampler=NeighborSamplingConfig(fanouts=(2.5, 2))),
                    r"sampler.fanouts\[0\] must be an integer"),
    "sampler_num_workers": (dict(sampler=NeighborSamplingConfig(fanouts=(2, 2), num_workers=-1)),
                            "sampler.num_workers"),
    "max_resident_batches": (dict(sampler=NeighborSamplingConfig(fanouts=(2, 2),
                                                                 max_resident_batches=0)),
                             "sampler.max_resident_batches"),
}

#: configs no distributed run can execute -> a fragment of the message saying why
BAD_DISTRIBUTED_CONFIGS = {
    "eval_inference": (dict(eval_inference="bogus"), "eval_inference"),
    "lr_schedule": (dict(lr_schedule="bogus"), "lr_schedule"),
    "num_epochs": (dict(num_epochs=0), "num_epochs"),
    "lr": (dict(lr=0.0), "lr must be > 0"),
    "weight_decay": (dict(weight_decay=-1.0), "weight_decay"),
    "eval_every": (dict(eval_every=-1), "eval_every"),
    "fanout_depth": (dict(sampler=NeighborSamplingConfig(fanouts=(2, 2, 2))), "conv layers"),
    "eval_batch_size": (dict(eval_batch_size=0), "eval_batch_size"),
    **BAD_SAMPLERS,
}


class TestConfigValidatedAtConstruction:
    """A config that cannot run is a plain ``ValueError`` from the constructor:
    no epoch is trained, nothing is partitioned, no cluster is spawned."""

    @pytest.mark.parametrize("case", sorted(set(BAD_DISTRIBUTED_CONFIGS) - set(BAD_SAMPLERS)))
    def test_full_batch_trainer_rejects_bad_config(self, learnable_dataset, case):
        overrides, message = BAD_DISTRIBUTED_CONFIGS[case]
        model = nn.GraphSageNet(learnable_dataset.feature_dim, 8,
                                learnable_dataset.num_classes, num_layers=2)
        with pytest.raises(ValueError, match=message):
            FullBatchTrainer(model, learnable_dataset, TrainingConfig(**overrides))

    def test_full_batch_trainer_rejects_sampler_without_model_depth(self, learnable_dataset):
        """A model exposing no ``num_layers`` gives the sampler no fan-out count."""
        model = nn.Linear(learnable_dataset.feature_dim, learnable_dataset.num_classes)
        sampler = NeighborSamplingConfig(fanouts=(2, 2))
        with pytest.raises(ValueError, match="model exposing num_layers"):
            FullBatchTrainer(model, learnable_dataset, TrainingConfig(sampler=sampler))

    @pytest.mark.parametrize("case", sorted(BAD_SAMPLERS))
    def test_full_batch_trainer_rejects_bad_sampler(self, learnable_dataset, case):
        overrides, message = BAD_SAMPLERS[case]
        model = nn.GraphSageNet(learnable_dataset.feature_dim, 8,
                                learnable_dataset.num_classes, num_layers=2)
        with pytest.raises(ValueError, match=message):
            FullBatchTrainer(model, learnable_dataset, TrainingConfig(**overrides))

    @pytest.mark.parametrize("case", sorted(BAD_DISTRIBUTED_CONFIGS))
    def test_distributed_trainer(self, learnable_dataset, case, monkeypatch):
        overrides, message = BAD_DISTRIBUTED_CONFIGS[case]

        def no_partitioning(*args, **kwargs):
            raise AssertionError("partitioned the graph under an invalid config")

        monkeypatch.setattr("repro.training.trainer.partition_graph", no_partitioning)
        with pytest.raises(ValueError, match=message):
            DistributedTrainer(
                learnable_dataset,
                lambda dim: nn.GraphSageNet(dim, 8, learnable_dataset.num_classes,
                                            num_layers=2),
                num_workers=2, config=TrainingConfig(**overrides),
            )


@pytest.mark.slow
class TestDistributedTrainer:
    @pytest.mark.parametrize("mode", ["sar", "dp"])
    def test_distributed_matches_single_machine_exactly(self, learnable_dataset, mode):
        """Paper §2: 'The results of training are exactly the same regardless of
        the number of machines.'  With dropout and label augmentation disabled,
        the distributed loss curve must match single-machine training."""
        dataset = learnable_dataset
        config = TrainingConfig(num_epochs=4, lr=0.01, eval_every=4, lr_schedule="none")

        set_seed(77)
        reference_state = nn.GraphSageNet(dataset.feature_dim, 16, dataset.num_classes,
                                          dropout=0.0).state_dict()

        def factory(in_f):
            model = nn.GraphSageNet(in_f, 16, dataset.num_classes, dropout=0.0)
            model.load_state_dict(reference_state)
            return model

        set_seed(0)
        single = FullBatchTrainer(factory(dataset.feature_dim), dataset, config).train()
        set_seed(0)
        distributed = DistributedTrainer(
            dataset, factory, num_workers=3, sar_config=SARConfig(mode=mode),
            config=config,
        ).run()
        np.testing.assert_allclose(distributed.training.losses(), single.losses(),
                                   rtol=1e-4, atol=1e-5)
        # Accuracy is a discrete metric: float32 summation-order differences can
        # flip a borderline node, so allow a small tolerance.
        assert abs(distributed.training.final_test_accuracy
                   - single.final_test_accuracy) < 0.03

    def test_gat_sar_trains_and_uses_less_memory_than_dp(self, learnable_dataset):
        dataset = learnable_dataset
        config = TrainingConfig(num_epochs=2, eval_every=0)

        set_seed(5)
        reference_state = nn.GATNet(dataset.feature_dim, 8, dataset.num_classes,
                                    num_heads=2, dropout=0.0).state_dict()

        def factory(in_f):
            model = nn.GATNet(in_f, 8, dataset.num_classes, num_heads=2, dropout=0.0)
            model.load_state_dict(reference_state)
            return model

        results = {}
        for mode in ("sar", "dp"):
            set_seed(0)
            results[mode] = DistributedTrainer(
                dataset, factory, num_workers=4, sar_config=SARConfig(mode=mode),
                config=config,
            ).run()
        assert max(results["sar"].cluster.peak_memory_mb) < \
            max(results["dp"].cluster.peak_memory_mb)
        # Identical numerics regardless of mode.
        np.testing.assert_allclose(results["sar"].training.losses(),
                                   results["dp"].training.losses(), rtol=1e-4, atol=1e-5)

    def test_memory_per_worker_decreases_with_more_workers(self, learnable_dataset):
        dataset = learnable_dataset
        config = TrainingConfig(num_epochs=1, eval_every=0)
        factory = _sage_factory(dataset.num_classes)
        peaks = {}
        for workers in (2, 4):
            set_seed(0)
            run = DistributedTrainer(dataset, factory, num_workers=workers,
                                     config=config).run()
            peaks[workers] = max(run.cluster.peak_memory_mb)
        assert peaks[4] < peaks[2]

    def test_label_augmentation_and_cs_run_distributed(self, learnable_dataset):
        dataset = learnable_dataset
        config = TrainingConfig(num_epochs=3, eval_every=0, label_augmentation=True,
                                correct_and_smooth=True)
        set_seed(0)
        run = DistributedTrainer(dataset, _sage_factory(dataset.num_classes),
                                 num_workers=3, config=config).run()
        assert run.training.cs_accuracies is not None
        assert np.isfinite(run.training.final_test_accuracy)

    def test_assemble_global_predictions(self, learnable_dataset):
        dataset = learnable_dataset
        config = TrainingConfig(num_epochs=1, eval_every=0)
        trainer = DistributedTrainer(dataset, _sage_factory(dataset.num_classes),
                                     num_workers=3, config=config)
        run = trainer.run()
        predictions = trainer.assemble_global_predictions(run)
        assert predictions.shape == (dataset.num_nodes, dataset.num_classes)

    def test_same_seed_gives_identical_losses(self, learnable_dataset):
        # Regression: every rank used to build its model concurrently from the
        # library-wide generator, so rank 0's (broadcast) initial weights
        # depended on thread interleaving.  A tiny switch interval makes the
        # interleaving vary from run to run.
        dataset = learnable_dataset
        config = TrainingConfig(num_epochs=3, lr=0.05, eval_every=0)

        def factory(in_f):
            return nn.GraphSageNet(in_f, 16, dataset.num_classes, dropout=0.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = []
            for _ in range(4):
                set_seed(5)
                run = DistributedTrainer(dataset, factory, num_workers=2, config=config).run()
                runs.append(run.training.losses())
        finally:
            sys.setswitchinterval(interval)
        assert len(runs[0]) == 3
        assert all(losses == runs[0] for losses in runs[1:])

    def test_rgcn_on_heterogeneous_dataset(self):
        dataset = ogbn_mag_mini(scale=0.15)
        config = TrainingConfig(num_epochs=2, eval_every=2)

        def factory(in_f):
            set_seed(3)
            return nn.RGCNNet(in_f, 16, dataset.num_classes,
                              dataset.graph.relation_names, num_bases=2,
                              dropout=0.0)

        set_seed(0)
        run = DistributedTrainer(dataset, factory, num_workers=3, config=config).run()
        assert np.isfinite(run.training.final_test_accuracy)
        assert run.training.final_test_accuracy >= 0.0

    def test_rgcn_correct_and_smooth_matches_single_machine(self):
        """Distributed R-GCN training ends in Correct & Smooth over every
        relation's grid — the graph one machine smooths over is the dataset's
        homogeneous union of the relations — and scores what one machine does."""
        dataset = ogbn_mag_mini(scale=0.2)
        relations = dataset.graph.relation_names
        config = TrainingConfig(num_epochs=20, eval_every=0, correct_and_smooth=True)
        set_seed(7)
        reference_state = nn.RGCNNet(dataset.feature_dim, 16, dataset.num_classes, relations,
                                     num_layers=2, dropout=0.0).state_dict()

        def factory(in_f):
            model = nn.RGCNNet(in_f, 16, dataset.num_classes, relations,
                               num_layers=2, dropout=0.0)
            model.load_state_dict(reference_state)
            return model

        single = FullBatchTrainer(factory(dataset.feature_dim), dataset, config).train()
        distributed = DistributedTrainer(dataset, factory, num_workers=2, config=config).run()
        np.testing.assert_allclose(distributed.training.losses(), single.losses(),
                                   rtol=1e-4, atol=1e-5)
        assert distributed.training.final_accuracies == single.final_accuracies
        assert distributed.training.cs_accuracies == single.cs_accuracies
        assert single.cs_accuracies["test"] < 1.0  # not saturated: the equality has teeth
