"""The layer epilogue against the unfused chain it replaced.

:func:`~repro.nn.norm.layer_epilogue` runs BatchNorm → ReLU / ELU → dropout
as one node.  The oracle is that chain as separate nodes
(``tests/reference_kernels.py``: ``BatchNormReference``, ``relu`` /
``elu``, ``dropout``).  Outputs, every parameter and input gradient and
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
from repro.graph import build_mfg_pipeline
from repro.nn.models import GATNet, GraphSageNet, RGCNNet
from repro.nn.norm import DistributedBatchNorm, Epilogue, layer_epilogue
from repro.tensor import Tensor, check_gradients, no_grad
from repro.tensor import functional as F
from repro.tensor.tensor import Function
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


def test_elu_matches_the_select_bit_for_bit():
    """The ELU epilogue's forward and backward equal ``np.where(x > 0, ...)``
    exactly, signed zeros, infinities and subnormals included."""
    rng = np.random.default_rng(0)
    dtype = np.float32
    info = np.finfo(dtype)
    special = [0.0, -0.0, np.inf, -np.inf, info.smallest_subnormal,
               -info.smallest_subnormal, info.tiny / 4, -info.tiny / 4, info.max, -info.max]
    x_data = np.concatenate([special, rng.standard_normal(500)]).astype(dtype)
    grad = np.concatenate([[1.0, -1.0, -0.0, 0.0, np.inf, -1.0, 2.0, -2.0, 1.0, -0.0],
                           rng.standard_normal(500)]).astype(dtype)
    x = Tensor(x_data, requires_grad=True, dtype=dtype)
    out = layer_epilogue(x, None, "elu")
    out.backward(grad)
    mask = x_data > 0
    neg = np.exp(np.minimum(x_data, 0.0)) - 1.0
    for got, want in ((out.data, np.where(mask, x_data, neg)),
                      (x.grad, np.where(mask, grad, grad * (neg + 1.0)))):
        assert got.dtype == want.dtype == dtype
        assert_bits(got, want)


# --------------------------------------------------------------------------- #
# what the op computes: activations, dropout and gradients
# --------------------------------------------------------------------------- #
def _away_from_zero(rows, cols, seed=0):
    """Inputs no central difference straddles ReLU's or ELU's kink with."""
    x = np.random.default_rng(seed).standard_normal((rows, cols)).astype(np.float32)
    x[np.abs(x) < 0.05] = 0.3
    return x


def _norm(mode, num_features):
    """``None``, or a BatchNorm in train / eval mode with non-trivial parameters."""
    if mode is None:
        return None
    module = DistributedBatchNorm(num_features)
    module.gamma.data[:] = np.linspace(0.5, 1.5, num_features, dtype=np.float32)
    module.beta.data[:] = np.linspace(-0.3, 0.3, num_features, dtype=np.float32)
    module.set_buffer("running_mean", np.linspace(-0.2, 0.3, num_features, dtype=np.float32))
    module.set_buffer("running_var", np.linspace(0.5, 2.0, num_features, dtype=np.float32))
    module.train(mode == "train")
    return module


def test_relu_is_the_positive_part():
    x = Tensor(np.array([-1.0, 0.0, 2.0, -3.5, 0.25], dtype=np.float32))
    np.testing.assert_array_equal(layer_epilogue(x, None, "relu").data,
                                  [0.0, 0.0, 2.0, 0.0, 0.25])


def test_relu_gradient_is_zero_at_and_below_zero():
    x = Tensor(np.array([-2.0, -0.0, 0.0, 3.0], dtype=np.float32), requires_grad=True)
    layer_epilogue(x, None, "relu").backward(np.ones(4, dtype=np.float32))
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 1.0])


def test_elu_is_continuous_at_zero():
    out = layer_epilogue(Tensor(np.array([-1e-4, 1e-4], dtype=np.float32)), None, "elu").data
    assert abs(out[0] - out[1]) < 1e-3


def test_elu_saturates_at_minus_one():
    out = layer_epilogue(Tensor(np.array([-50.0, -1.0], dtype=np.float32)), None, "elu").data
    assert np.isclose(out[0], -1.0, atol=1e-6)
    assert np.isclose(out[1], np.exp(-1.0) - 1.0, rtol=1e-6)


@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("activation", [None, "relu", "elu"])
@pytest.mark.parametrize("norm", [None, "train", "eval"])
def test_gradients_match_finite_differences(norm, activation, p):
    """The op's own backward against central differences of its forward,
    for the input and, under batch statistics, for ``gamma`` and ``beta``
    (the dropout mask is redrawn from one seed on every evaluation)."""
    x = Tensor(_away_from_zero(12, 4), requires_grad=True)
    module = _norm(norm, 4)
    weights = Tensor(np.random.default_rng(5).standard_normal((12, 4)).astype(np.float32))

    def loss():
        with thread_rng(np.random.default_rng(7)):
            return (layer_epilogue(x, module, activation, p) * weights).sum()

    wrt = [x] + ([module.gamma, module.beta] if norm == "train" else [])
    check_gradients(loss, wrt)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_dropout_keeps_one_minus_p_and_scales_by_its_inverse(p):
    x = Tensor(np.ones((2000, 10), dtype=np.float32))
    with thread_rng(np.random.default_rng(0)):
        out = layer_epilogue(x, None, None, p).data
    kept = out[out != 0]
    np.testing.assert_allclose(kept, np.float32(1.0) / np.float32(1.0 - p), rtol=1e-6)
    assert abs((out != 0).mean() - (1.0 - p)) < 0.02


@pytest.mark.parametrize("activation", [None, "relu", "elu"])
def test_dropout_backward_uses_the_forward_mask(activation):
    x = Tensor(np.ones((50, 4), dtype=np.float32), requires_grad=True)
    with thread_rng(np.random.default_rng(3)):
        out = layer_epilogue(x, None, activation, 0.5)
    out.backward(np.ones_like(out.data))
    np.testing.assert_array_equal(x.grad != 0, out.data != 0)
    np.testing.assert_array_equal(x.grad[x.grad != 0], 2.0)


def test_zero_probability_is_the_identity_and_draws_nothing():
    x = Tensor(_adversarial(20, 5))
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    with thread_rng(rng):
        out = layer_epilogue(x, None, None, 0.0)
    assert_bits(out.data, x.data)
    assert rng.bit_generator.state == state


def test_dropout_mask_comes_from_the_thread_rng():
    x = Tensor(np.ones((40, 6), dtype=np.float32))
    outs = []
    for seed in (1, 1, 2):
        with thread_rng(np.random.default_rng(seed)):
            outs.append(layer_epilogue(x, None, "relu", 0.5).data)
    np.testing.assert_array_equal(outs[0], outs[1])
    assert not np.array_equal(outs[0], outs[2])


@pytest.mark.parametrize("dropout", [-0.1, 1.5])
def test_models_reject_a_dropout_outside_the_unit_interval(small_dataset, dropout):
    with pytest.raises(ValueError, match="dropout probability"):
        _model("sage-mean", small_dataset, dropout)


@pytest.mark.parametrize("kind", ["sage-mean", "gat", "rgcn"])
def test_models_reject_a_dropout_of_one(kind):
    with pytest.raises(ValueError, match="dropout probability must be below 1"):
        _model(kind, _hetero(), 1.0)
    assert _model(kind, _hetero(), 0.999).dropout == 0.999


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


def _tag_nodes_by_layer(model, monkeypatch):
    """Tag every autograd node with where the forward created it:
    ``("conv", i)`` inside conv layer ``i``, ``("after", i)`` once it returned."""
    where = [("before",)]
    run = Function.run

    def tagged_run(fn, *args, **kwargs):
        fn.created_at = where[0]
        return run(fn, *args, **kwargs)

    monkeypatch.setattr(Function, "run", tagged_run)
    for index, conv in enumerate(model.convs):
        def forward(graph, x, index=index, inner=conv.forward):
            where[0] = ("conv", index)
            out = inner(graph, x)
            where[0] = ("after", index)
            return out
        monkeypatch.setattr(conv, "forward", forward)


def _graph_nodes(loss):
    """Every ``Function`` of ``loss``'s autograd graph."""
    nodes, stack = {}, [loss._ctx]
    while stack:
        node = stack.pop()
        if isinstance(node, Function) and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(parent for parent in node.parents if parent is not None)
    return list(nodes.values())


@pytest.mark.parametrize("on_mfg", [False, True], ids=["graph", "mfg"])
@pytest.mark.parametrize("kind", ["sage-mean", "sage-max", "gat", "gat-fused"])
def test_a_training_step_runs_one_epilogue_node_between_convs(small_dataset, monkeypatch,
                                                              kind, on_mfg):
    """In a training step's autograd graph, the only node between two conv
    layers is one :class:`Epilogue`: its input is the earlier conv's output
    and it is the only node of the earlier layers the next conv reads.  An
    unfused chain (separate norm, activation or dropout nodes) fails this."""
    dataset = small_dataset
    model = _model(kind, dataset, dropout=0.5).train()
    _tag_nodes_by_layer(model, monkeypatch)
    seeds = dataset.train_indices()
    graph = dataset.graph
    features = dataset.features
    if on_mfg:
        graph = build_mfg_pipeline(graph, seeds, model.num_layers)
        features = graph.gather_inputs(features)
    with thread_rng(np.random.default_rng(0)):
        logits = model(graph, Tensor(features))
    if not on_mfg:
        logits = logits[seeds]
    loss = F.cross_entropy(logits, dataset.labels[seeds])
    nodes = _graph_nodes(loss)
    for index in range(model.num_layers - 1):
        between = [node for node in nodes if node.created_at == ("after", index)]
        assert [type(node) for node in between] == [Epilogue]
        epilogue = between[0]
        assert epilogue.parents[0].created_at == ("conv", index)
        read = {id(parent) for node in nodes if node.created_at == ("conv", index + 1)
                for parent in node.parents
                if isinstance(parent, Function) and parent.created_at != ("conv", index + 1)}
        assert read == {id(epilogue)}
    loss.backward()
    assert all(param.grad is not None for param in model.parameters())


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
