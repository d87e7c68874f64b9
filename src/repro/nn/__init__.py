"""Neural-network layers and models (the DGL-layers substitute)."""

from repro.nn.module import Module, Parameter, ModuleList
from repro.nn.linear import Linear
from repro.nn.dropout import Dropout
from repro.nn.norm import DistributedBatchNorm
from repro.nn.sage import SageConv
from repro.nn.gat import GATConv
from repro.nn.gat_fused import FusedGATConv
from repro.nn.rgcn import RelGraphConv
from repro.nn.models import GraphSageNet, GATNet, RGCNNet

__all__ = [
    "Module",
    "Parameter",
    "ModuleList",
    "Linear",
    "Dropout",
    "DistributedBatchNorm",
    "SageConv",
    "GATConv",
    "FusedGATConv",
    "RelGraphConv",
    "GraphSageNet",
    "GATNet",
    "RGCNNet",
]
