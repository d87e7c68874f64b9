"""The layer epilogue against the unfused chain it replaced.

:func:`~repro.nn.norm.layer_epilogue` runs BatchNorm → ReLU / ELU → dropout
as one node.  The oracle is that chain as separate nodes
(``tests/reference_kernels.py``: ``BatchNormReference``, ``F.relu`` /
``F.elu``, ``F.dropout``).  Outputs, every parameter and input gradient and
the running statistics must match bit for bit, signed zeros included — on
the op itself, on every model, in train and eval mode, on one machine and
under SAR and domain parallelism at world 2 — at dropout 0 and 0.5 (the
benchmark workloads train at dropout 0, so only these tests reach the packed
dropout mask).
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_kernels import unfused, unfused_epilogue
from repro.core.config import DOMAIN_PARALLEL, SAR
from repro.core.dist_graph import DistributedGraph
from repro.datasets import make_hetero_sbm_dataset
from repro.distributed.cluster import run_distributed
from repro.nn.models import GATNet, GraphSageNet, RGCNNet
from repro.nn.norm import DistributedBatchNorm, Epilogue, layer_epilogue
from repro.tensor import Tensor, no_grad
from repro.training.trainer import DistributedTrainer
from repro.utils.seed import derive_rng, thread_rng

KINDS = ["sage-mean", "sage-max", "gat", "gat-fused", "rgcn"]


def assert_bits(actual, expected):
    """Equal values and equal signs of zero (``assert_array_equal`` takes
    ``-0.0 == 0.0``)."""
    if expected is None:
        assert actual is None
        return
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def assert_passes_equal(fused, reference):
    for got, want in zip(fused, reference):
        if isinstance(want, dict):
            assert got.keys() == want.keys()
            for key in want:
                assert_bits(got[key], want[key])
        else:
            assert_bits(got, want)


def _adversarial(rows, cols, seed=0):
    """Rows with exact zeros, ``-0.0``, negative values and a constant column."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols)).astype(np.float32)
    x[::4] = 0.0
    x[1::7] = -0.0
    x[:, 0] = 1.5
    x[2::5, 1:3] *= -3.0
    return x


# --------------------------------------------------------------------------- #
# the op
# --------------------------------------------------------------------------- #
def _op_pass(epilogue, x_data, norm, activation, p, upstream):
    x = Tensor(x_data.copy(), requires_grad=True)
    with thread_rng(np.random.default_rng(3)):
        out = epilogue(x, norm, activation, p)
    out.backward(upstream)
    grads = {} if norm is None else {"gamma": norm.gamma.grad, "beta": norm.beta.grad}
    stats = {} if norm is None else {"mean": norm.running_mean.copy(),
                                      "var": norm.running_var.copy()}
    return out.data, x.grad, grads, stats


@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("activation", [None, "relu", "elu"])
@pytest.mark.parametrize("norm", [None, "train", "eval"])
def test_op_matches_the_unfused_chain(norm, activation, p):
    x = _adversarial(37, 6)
    upstream = np.random.default_rng(1).standard_normal(x.shape).astype(np.float32)
    upstream[::3] = 0.0
    passes = []
    for epilogue in (layer_epilogue, unfused_epilogue):
        module = None
        if norm is not None:
            module = DistributedBatchNorm(6)
            module.gamma.data[:] = np.linspace(-1.0, 2.0, 6, dtype=np.float32)
            module.beta.data[:] = np.linspace(0.5, -0.5, 6, dtype=np.float32)
            module.set_buffer("running_mean", np.linspace(-0.2, 0.3, 6, dtype=np.float32))
            module.train(norm == "train")
        passes.append(_op_pass(epilogue, x, module, activation, p, upstream))
    assert_passes_equal(*passes)
    if activation == "relu" and norm is None:  # -0.0 and negative inputs give -0.0
        assert np.signbit(passes[0][0][x < 0]).all()


@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("activation", ["relu", "elu"])
def test_op_saves_no_activation(activation, p):
    x = Tensor(_adversarial(40, 8), requires_grad=True)
    norm = DistributedBatchNorm(8)
    fn = Epilogue()
    fn.run(x, norm.gamma, norm.beta, eps=norm.eps, activation=activation, p=p)
    arrays = [item for item in fn.saved if isinstance(item, np.ndarray)]
    # The input itself, O(F) vectors and, at p > 0, the keep-mask at one bit
    # per entry.
    assert [a for a in arrays if a.size > 8] == [x.data] + (
        [] if p == 0 else [a for a in arrays if a.dtype == np.uint8])
    if p > 0:
        assert sum(a.dtype == np.uint8 for a in arrays) == 1
        assert next(a for a in arrays if a.dtype == np.uint8).size == x.data.size // 8


def test_relu_without_norm_keeps_only_its_sign_bits():
    x = Tensor(_adversarial(40, 8), requires_grad=True)
    fn = Epilogue()
    fn.run(x, activation="relu")
    arrays = [item for item in fn.saved if isinstance(item, np.ndarray)]
    assert [a.nbytes for a in arrays] == [x.data.size // 8]


# --------------------------------------------------------------------------- #
# every model, one machine
# --------------------------------------------------------------------------- #
def _hetero():
    return make_hetero_sbm_dataset(
        name="epilogue", num_nodes=60, num_classes=3, feature_dim=6,
        relation_specs={"a": {"p_in": 0.2, "p_out": 0.02},
                        "b": {"p_in": 0.1, "p_out": 0.05}}, seed=0,
    )


def _model(kind, dataset, dropout, use_batch_norm=True):
    dim, classes = dataset.feature_dim, dataset.num_classes
    if kind.startswith("sage"):
        return GraphSageNet(dim, 16, classes, num_layers=3, dropout=dropout,
                            use_batch_norm=use_batch_norm, aggregator=kind.split("-")[1])
    if kind.startswith("gat"):
        return GATNet(dim, 4, classes, num_layers=3, num_heads=2, dropout=dropout,
                      use_batch_norm=use_batch_norm, fused=kind == "gat-fused")
    return RGCNNet(dim, 16, classes, dataset.graph.relation_names, num_layers=3,
                   dropout=dropout, use_batch_norm=use_batch_norm)


def _model_pass(model, graph, features, rng, train, grad=True):
    """Output, input gradient, parameter gradients and running statistics."""
    model.train(train)
    model.zero_grad()
    x = Tensor(features.copy(), requires_grad=grad)
    with thread_rng(rng):
        out = model(graph, x)
    if grad:
        upstream = np.random.default_rng(2).standard_normal(out.shape).astype(out.dtype)
        upstream[::3] = 0.0
        out.backward(upstream)
    grads = {name: param.grad for name, param in model.named_parameters()}
    stats = {name: value for name, value in model.state_dict().items() if "running" in name}
    return out.data, x.grad, grads, stats


def _features(dataset):
    features = dataset.features.copy()
    features[::4] = 0.0
    features[1::5] *= -1.0
    return features


@pytest.mark.parametrize("use_batch_norm", [True, False])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("kind", KINDS)
def test_models_match_the_unfused_chain(small_dataset, kind, dropout, use_batch_norm):
    dataset = _hetero() if kind == "rgcn" else small_dataset
    features = _features(dataset)
    model = _model(kind, dataset, dropout, use_batch_norm)
    reference = unfused(_model(kind, dataset, dropout, use_batch_norm))
    reference.load_state_dict(model.state_dict())
    for train in (True, True, False):  # two steps' running statistics, then eval
        passes = [_model_pass(m, dataset.graph, features, np.random.default_rng(4), train)
                  for m in (model, reference)]
        assert_passes_equal(*passes)


# --------------------------------------------------------------------------- #
# SAR and domain parallelism at world 2 (thread ranks)
# --------------------------------------------------------------------------- #
def _rank_passes(rank, comm, shard, *, kind, dataset, dropout, state, sar_config):
    graph = DistributedGraph(shard, comm, sar_config)
    features = shard.node_data["feat"]
    results = []
    for make in (lambda model: model, unfused):
        model = make(_model(kind, dataset, dropout))
        model.load_state_dict(state)
        model.set_comm(comm)
        passes = []
        for train in (True, False):
            graph.begin_step()
            if train:
                passes.append(_model_pass(model, graph, features, derive_rng(9, rank), True))
            else:
                with no_grad():
                    passes.append(_model_pass(model, graph, features, derive_rng(9, rank),
                                              False, grad=False))
        results.append(passes)
    return results


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("sar_config", [SAR, DOMAIN_PARALLEL], ids=["sar", "dp"])
@pytest.mark.parametrize("kind", KINDS)
def test_distributed_models_match_the_unfused_chain(small_dataset, kind, sar_config, dropout):
    dataset = _hetero() if kind == "rgcn" else small_dataset
    trainer = DistributedTrainer(dataset, lambda dim: _model(kind, dataset, dropout), 2,
                                 sar_config=sar_config)
    state = _model(kind, dataset, dropout).state_dict()
    result = run_distributed(_rank_passes, 2, worker_args=trainer.shards, timeout_s=120,
                             kind=kind, dataset=dataset, dropout=dropout, state=state,
                             sar_config=sar_config)
    for fused, reference in result.results:
        for got, want in zip(fused, reference):
            assert_passes_equal(got, want)
