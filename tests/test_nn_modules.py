"""Tests for Module/Parameter mechanics and the basic layers (Linear, Dropout, BN)."""

import numpy as np
import pytest

from repro import nn
from repro.distributed import run_distributed
from repro.tensor import Tensor, check_gradients
from repro.utils.seed import set_seed


class TestModuleMechanics:
    def test_parameter_registration_order_is_deterministic(self):
        set_seed(0)
        m1 = nn.GraphSageNet(8, 16, 3)
        set_seed(0)
        m2 = nn.GraphSageNet(8, 16, 3)
        names1 = [n for n, _ in m1.named_parameters()]
        names2 = [n for n, _ in m2.named_parameters()]
        assert names1 == names2
        assert len(names1) == len(set(names1))

    def test_parameters_recursive(self):
        layer = nn.Linear(4, 3)
        assert len(layer.parameters()) == 2
        model = nn.ModuleList([nn.Linear(4, 3), nn.Dropout(0.5), nn.Linear(3, 2)])
        assert len(model.parameters()) == 4

    def test_state_dict_roundtrip(self):
        set_seed(1)
        src = nn.GATNet(6, 4, 3, num_heads=2)
        set_seed(2)
        dst = nn.GATNet(6, 4, 3, num_heads=2)
        dst.load_state_dict(src.state_dict())
        for (name_a, a), (name_b, b) in zip(src.named_parameters(), dst.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(a.data, b.data)

    def test_load_state_dict_missing_key_raises(self):
        model = nn.Linear(3, 2)
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_load_state_dict_shape_mismatch_raises(self):
        model = nn.Linear(3, 2)
        state = model.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_train_eval_propagates(self):
        model = nn.GraphSageNet(4, 8, 2)
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        model = nn.Linear(3, 2)
        x = Tensor(np.ones((4, 3), dtype=np.float32))
        model(x).sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_num_parameters(self):
        model = nn.Linear(3, 2)
        assert model.num_parameters() == 3 * 2 + 2

    def test_module_list(self):
        layers = nn.ModuleList([nn.Linear(3, 4), nn.Linear(4, 2)])
        assert len(layers) == 2
        assert len(layers.parameters()) == 4
        assert layers[0].out_features == 4
        x = Tensor(np.ones((5, 3), dtype=np.float32))
        for layer in layers:
            x = layer(x)
        assert x.shape == (5, 2)
        with pytest.raises(RuntimeError):
            layers(Tensor(np.ones((1, 3))))


class TestLinear:
    def test_forward_matches_numpy(self, rng):
        layer = nn.Linear(4, 3)
        x = rng.standard_normal((6, 4)).astype(np.float32)
        out = layer(Tensor(x))
        np.testing.assert_allclose(out.data, x @ layer.weight.data + layer.bias.data,
                                   rtol=1e-5)

    def test_no_bias(self):
        layer = nn.Linear(4, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients(self, rng):
        layer = nn.Linear(3, 2)
        x = Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: (layer(x) ** 2).mean(), [x] + layer.parameters())

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 3)


class TestDropoutModule:
    def test_respects_training_flag(self, rng):
        layer = nn.Dropout(0.5)
        x = Tensor(rng.standard_normal((100, 10)).astype(np.float32))
        layer.eval()
        np.testing.assert_array_equal(layer(x).data, x.data)
        layer.train()
        assert (layer(x).data == 0).any()


class TestBatchNorm:
    def test_normalizes_training_batch(self, rng):
        bn = nn.DistributedBatchNorm(6)
        x = Tensor((3.0 * rng.standard_normal((200, 6)) + 5.0).astype(np.float32))
        out = bn(x).data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_used_in_eval(self, rng):
        bn = nn.DistributedBatchNorm(4, momentum=0.5)
        x = Tensor((2.0 + rng.standard_normal((100, 4))).astype(np.float32))
        for _ in range(20):
            bn(x)
        bn.eval()
        out = bn(x).data
        # eval-mode output should be close to the train-mode normalization
        assert abs(out.mean()) < 0.5

    def test_gradients(self, rng):
        bn = nn.DistributedBatchNorm(3)
        x = Tensor(rng.standard_normal((12, 3)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: (bn(x) ** 2).mean(), [x, bn.gamma, bn.beta],
                        atol=2e-2, rtol=2e-2)

    def test_feature_dim_mismatch_raises(self, rng):
        bn = nn.DistributedBatchNorm(3)
        with pytest.raises(ValueError):
            bn(Tensor(rng.standard_normal((5, 4)).astype(np.float32)))

    def test_distributed_matches_single_machine(self, rng):
        """Global statistics across workers must equal single-machine statistics."""
        full = rng.standard_normal((40, 5)).astype(np.float32) * 2.0 + 1.0
        reference = nn.DistributedBatchNorm(5)
        expected = reference(Tensor(full)).data

        def worker(rank, comm):
            bn = nn.DistributedBatchNorm(5, comm=comm)
            local = full[rank * 20:(rank + 1) * 20]
            out = bn(Tensor(local))
            comm.barrier()
            return out.data

        result = run_distributed(worker, 2)
        stacked = np.concatenate(result.results, axis=0)
        np.testing.assert_allclose(stacked, expected, atol=1e-4)

    def test_distributed_backward_matches_single_machine(self, rng):
        full = rng.standard_normal((30, 4)).astype(np.float32)
        reference = nn.DistributedBatchNorm(4)
        x_ref = Tensor(full, requires_grad=True)
        (reference(x_ref) ** 2).sum().backward()

        def worker(rank, comm):
            bn = nn.DistributedBatchNorm(4, comm=comm)
            bn.load_state_dict(reference.state_dict())
            x = Tensor(full[rank * 15:(rank + 1) * 15], requires_grad=True)
            (bn(x) ** 2).sum().backward()
            comm.barrier()
            return x.grad, bn.gamma.grad

        result = run_distributed(worker, 2)
        grads = np.concatenate([r[0] for r in result.results], axis=0)
        np.testing.assert_allclose(grads, x_ref.grad, atol=1e-4)
        gamma_grad = result.results[0][1] + result.results[1][1]
        np.testing.assert_allclose(gamma_grad, reference.gamma.grad, atol=1e-3)

    def test_saves_only_the_input_and_column_vectors(self, rng):
        bn = nn.DistributedBatchNorm(8)
        x = Tensor(rng.standard_normal((50, 8)).astype(np.float32), requires_grad=True)
        out = bn(x)
        saved = [item for item in out._ctx.saved if isinstance(item, np.ndarray)]
        assert any(np.shares_memory(item, x.data) for item in saved)
        others = [item for item in saved if not np.shares_memory(item, x.data)]
        assert all(item.size <= bn.num_features for item in others)

    def test_shared_grad_out_is_not_overwritten(self, rng):
        """``Add.backward`` hands one array to both parents: BatchNorm's
        backward must leave it intact for the other consumer."""
        data = rng.standard_normal((20, 4)).astype(np.float32)
        weight = rng.standard_normal(4).astype(np.float32)
        grad = rng.standard_normal((20, 4)).astype(np.float32)
        bn = nn.DistributedBatchNorm(4)

        def x_grad(fn):
            x = Tensor(data, requires_grad=True)
            fn(x).backward(grad)
            return x.grad

        both = x_grad(lambda x: bn(x) + x * Tensor(weight))
        separately = x_grad(bn) + x_grad(lambda x: x * Tensor(weight))
        np.testing.assert_allclose(both, separately, rtol=1e-6, atol=1e-6)


def _batchnorm_float64(x, gamma, beta, grad, eps=1e-5):
    """Batch norm and its input / parameter gradients, in float64 throughout."""
    x, grad = x.astype(np.float64), grad.astype(np.float64)
    inv_std = 1.0 / np.sqrt(x.var(axis=0) + eps)
    x_hat = (x - x.mean(axis=0)) * inv_std
    dx_hat = grad * gamma
    dx = inv_std * (dx_hat - dx_hat.mean(axis=0) - x_hat * (dx_hat * x_hat).mean(axis=0))
    return gamma * x_hat + beta, dx, (grad * x_hat).sum(axis=0), grad.sum(axis=0)


class TestBatchNormLargeOffset:
    """Inputs ``offset + 0.1 · noise``: the variance must come from the float64
    mean, or it is off by far more than the variance itself.  What remains is
    float32's resolution of ``x`` relative to its spread, ``eps · offset / std``."""

    STD = 0.1

    def _inputs(self, offset, rows=60, features=5):
        rng = np.random.default_rng(int(offset) + 3)
        x = (offset + self.STD * rng.standard_normal((rows, features))).astype(np.float32)
        grad = rng.standard_normal((rows, features)).astype(np.float32)
        gamma = rng.uniform(0.5, 2.0, features).astype(np.float32)
        beta = rng.standard_normal(features).astype(np.float32)
        return x, grad, gamma, beta

    def _check(self, offset, out, dx, dgamma, dbeta, x, grad, gamma, beta):
        ref_out, ref_dx, ref_dgamma, ref_dbeta = _batchnorm_float64(x, gamma, beta, grad)
        resolution = np.finfo(np.float32).eps * (offset + 1.0) / self.STD
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=4 * resolution * gamma.max())
        np.testing.assert_allclose(dx, ref_dx, rtol=0, atol=resolution * np.abs(ref_dx).max())
        np.testing.assert_allclose(dgamma, ref_dgamma, rtol=0,
                                   atol=resolution * np.abs(ref_dgamma).max())
        np.testing.assert_allclose(dbeta, ref_dbeta, rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e4])
    def test_single_machine(self, offset):
        x, grad, gamma, beta = self._inputs(offset)
        bn = nn.DistributedBatchNorm(x.shape[1])
        bn.gamma.data[:], bn.beta.data[:] = gamma, beta
        xt = Tensor(x, requires_grad=True)
        out = bn(xt)
        out.backward(grad)
        self._check(offset, out.data, xt.grad, bn.gamma.grad, bn.beta.grad, x, grad, gamma, beta)

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e4])
    @pytest.mark.parametrize("bounds", [(0, 30, 60), (0, 25, 25, 60)],
                             ids=["world2", "world3_empty_shard"])
    def test_distributed(self, offset, bounds):
        x, grad, gamma, beta = self._inputs(offset)
        world = len(bounds) - 1

        def worker(rank, comm):
            rows = slice(bounds[rank], bounds[rank + 1])
            bn = nn.DistributedBatchNorm(x.shape[1], comm=comm)
            bn.gamma.data[:], bn.beta.data[:] = gamma, beta
            xt = Tensor(x[rows], requires_grad=True)
            out = bn(xt)
            out.backward(grad[rows])
            comm.barrier()
            return out.data, xt.grad, bn.gamma.grad, bn.beta.grad

        results = run_distributed(worker, world).results
        out = np.concatenate([r[0] for r in results])
        dx = np.concatenate([r[1] for r in results])
        # Parameter gradients are per-worker sums; the trainer syncs them.
        dgamma = np.sum([r[2] for r in results], axis=0)
        dbeta = np.sum([r[3] for r in results], axis=0)
        self._check(offset, out, dx, dgamma, dbeta, x, grad, gamma, beta)
