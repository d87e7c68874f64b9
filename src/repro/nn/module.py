"""Module / Parameter abstractions (the ``torch.nn.Module`` substitute).

Modules auto-register parameters and sub-modules assigned as attributes,
support recursive parameter collection, train/eval switching, and state
dicts.  The distributed trainer relies on :meth:`Module.parameters` returning
parameters in a *deterministic* order on every worker so that the
gradient-synchronization allreduce lines up across ranks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is a trainable model parameter (always requires grad)."""

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # attribute registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        else:
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. BatchNorm running stats)."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a registered buffer in place (keeps the attribute in sync)."""
        if name not in self._buffers:
            raise KeyError(f"Unknown buffer {name!r}")
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------ #
    # parameter access
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        """All parameters in deterministic (registration) order."""
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> List["Module"]:
        return [m for _, m in self.named_modules()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------ #
    # train / eval
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", bool(mode))
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------ #
    # state dict
    # ------------------------------------------------------------------ #
    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self._parameters.items():
            state[f"{prefix}{name}"] = param.data.copy()
        for name, value in self._buffers.items():
            state[f"{prefix}{name}"] = np.asarray(value).copy()
        for mod_name, module in self._modules.items():
            state.update(module.state_dict(prefix=f"{prefix}{mod_name}."))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], prefix: str = "") -> None:
        for name, param in self._parameters.items():
            key = f"{prefix}{name}"
            if key not in state:
                raise KeyError(f"Missing parameter {key!r} in state dict")
            value = np.asarray(state[key], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"Shape mismatch for {key!r}: expected {param.data.shape}, got {value.shape}"
                )
            param.data[...] = value
        for name in self._buffers:
            key = f"{prefix}{name}"
            if key in state:
                self.set_buffer(name, state[key])
        for mod_name, module in self._modules.items():
            module.load_state_dict(state, prefix=f"{prefix}{mod_name}.")

    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child = ", ".join(self._modules.keys())
        return f"{type(self).__name__}({child})"


class ModuleList(Module):
    """A list of sub-modules registered in order."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        object.__setattr__(self, str(index), module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, *args, **kwargs):  # pragma: no cover - container only
        raise RuntimeError("ModuleList is a container and cannot be called directly")

