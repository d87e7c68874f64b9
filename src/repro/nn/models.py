"""End-to-end GNN models used in the paper's evaluation.

All three networks follow the paper's experimental setup (Section 4.2 and
Appendix A): three layers, batch normalization and dropout between layers,
and a plain classification head.  The same model object runs on a
single-machine :class:`~repro.graph.graph.Graph` (homogeneous or relational)
or on a distributed graph handle — only the graph argument changes, mirroring how
the SAR library reuses unmodified DGL model code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.graph.mfg import MFGPipeline
from repro.nn.gat import GATConv
from repro.nn.gat_fused import FusedGATConv
from repro.nn.module import Module, ModuleList
from repro.nn.norm import DistributedBatchNorm, layer_epilogue
from repro.nn.rgcn import RelGraphConv
from repro.nn.sage import SageConv
from repro.tensor.tensor import Tensor
from repro.utils.validation import check_positive_int, check_probability


class _DeepGNN(Module):
    """Shared skeleton: conv layers with (BatchNorm → activation → Dropout) in between.

    That inter-layer chain is one :func:`~repro.nn.norm.layer_epilogue` node
    per layer boundary: ``activation`` is ``"relu"`` or ``"elu"``, and
    ``dropout`` the probability it applies in training mode.
    """

    def __init__(self, convs: List[Module], norm_dims: List[int], dropout: float,
                 use_batch_norm: bool, activation: str):
        super().__init__()
        self.convs = ModuleList(convs)
        self.use_batch_norm = use_batch_norm
        self.norms = ModuleList(
            [DistributedBatchNorm(dim) for dim in norm_dims] if use_batch_norm else []
        )
        self.dropout = check_probability(dropout, "dropout probability")
        if self.dropout == 1.0:
            # Inverted dropout scales the kept activations by 1 / (1 - p).
            raise ValueError("dropout probability must be below 1: at 1 no activation is kept")
        self.activation = activation

    def set_comm(self, comm) -> None:
        """Attach a communicator to every distributed BatchNorm layer."""
        for norm in self.norms:
            norm.set_comm(comm)

    @property
    def num_layers(self) -> int:
        return len(self.convs)

    def forward_layer(self, index: int, graph, x: Tensor) -> Tensor:
        """Apply conv layer ``index`` plus its trailing inter-layer transforms.

        This is the single-layer hook the layer-wise inference engine
        (:class:`repro.sample.inference.LayerWiseInference`) builds on: it
        computes exactly what the full :meth:`forward` computes for one layer
        — the conv itself followed by (BatchNorm → activation → Dropout) on
        every layer but the last — given only that layer's input features.

        Parameters
        ----------
        index:
            Conv layer to apply, ``0 <= index < num_layers``.
        graph:
            Anything the conv layers accept: a full
            :class:`~repro.graph.graph.Graph`, one compacted
            :class:`~repro.graph.mfg.MFGBlock` of it, or a distributed graph
            handle.
        x:
            ``(num_src_rows, in_features)`` input features of this layer (for
            a block, the block's source rows; otherwise one row per node).

        Returns
        -------
        Tensor
            ``(num_dst_rows, out_features)`` layer outputs.  In ``eval()``
            mode every inter-layer transform is a per-row map (BatchNorm uses
            its running statistics, Dropout is the identity), so computing
            rows batch-by-batch yields bit-identical results to one full pass.
        """
        if not 0 <= index < len(self.convs):
            raise IndexError(
                f"model has {len(self.convs)} conv layers, asked for layer {index}"
            )
        x = self.convs[index](graph, x)
        if index < len(self.convs) - 1:
            norm = self.norms[index] if self.use_batch_norm else None
            x = layer_epilogue(x, norm, self.activation,
                               self.dropout if self.training else 0.0)
        return x

    def forward(self, graph, x: Tensor) -> Tensor:
        """Apply the stack on a graph, a distributed handle, or an MFG pipeline.

        With an :class:`~repro.graph.mfg.MFGPipeline` each conv layer runs on
        its compacted block: ``x`` holds the pipeline's ``input_nodes`` rows
        and the output holds only the seed rows (``output_nodes``); the
        between-layer norm/activation/dropout apply to the (shrinking)
        restricted row sets.
        """
        pipeline = graph if isinstance(graph, MFGPipeline) else None
        if pipeline is not None and pipeline.num_layers != len(self.convs):
            raise ValueError(
                f"MFG pipeline has {pipeline.num_layers} layer blocks but the "
                f"model has {len(self.convs)} conv layers"
            )
        for index in range(len(self.convs)):
            layer_graph = pipeline.layer_block(index) if pipeline is not None else graph
            x = self.forward_layer(index, layer_graph, x)
        return x


class GraphSageNet(_DeepGNN):
    """Multi-layer GraphSage classifier (3 layers, hidden size 256 in the paper).

    ``aggregator`` selects the neighbour aggregation of every layer:
    ``"mean"`` (the paper's case-1 configuration) or ``"max"`` pooling (a
    case-2 configuration — distributed training re-fetches remote features
    during the backward pass, like GAT/R-GCN).
    """

    def __init__(self, in_features: int, hidden_features: int, num_classes: int,
                 num_layers: int = 3, dropout: float = 0.5, use_batch_norm: bool = True,
                 aggregator: str = "mean"):
        num_layers = check_positive_int(num_layers, "num_layers")
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
        convs = [
            SageConv(dims[i], dims[i + 1], aggregator=aggregator)
            for i in range(num_layers)
        ]
        super().__init__(convs, dims[1:num_layers], dropout, use_batch_norm, "relu")
        self.in_features = in_features
        self.hidden_features = hidden_features
        self.num_classes = num_classes


class GATNet(_DeepGNN):
    """Multi-layer GAT classifier (3 layers, 4 heads, hidden size 128 in the paper).

    ``fused=True`` builds the network from :class:`FusedGATConv` layers (the
    paper's SAR+FAK configuration); the parameters and outputs are identical
    to the standard layers, only the kernel implementation differs.
    """

    def __init__(self, in_features: int, hidden_per_head: int, num_classes: int,
                 num_layers: int = 3, num_heads: int = 4, dropout: float = 0.5,
                 use_batch_norm: bool = True, fused: bool = False):
        num_layers = check_positive_int(num_layers, "num_layers")
        conv_cls = FusedGATConv if fused else GATConv
        convs: List[Module] = []
        norm_dims: List[int] = []
        width = hidden_per_head * num_heads
        for index in range(num_layers):
            layer_in = in_features if index == 0 else width
            if index == num_layers - 1:
                convs.append(conv_cls(layer_in, num_classes, num_heads=1))
            else:
                convs.append(conv_cls(layer_in, hidden_per_head, num_heads=num_heads))
                norm_dims.append(width)
        super().__init__(convs, norm_dims, dropout, use_batch_norm, "elu")
        self.in_features = in_features
        self.hidden_per_head = hidden_per_head
        self.num_heads = num_heads
        self.num_classes = num_classes
        self.fused = fused


class RGCNNet(_DeepGNN):
    """Multi-layer R-GCN classifier for heterogeneous graphs (Appendix A)."""

    def __init__(self, in_features: int, hidden_features: int, num_classes: int,
                 relation_names: Sequence[str], num_layers: int = 3,
                 num_bases: Optional[int] = 2, dropout: float = 0.5,
                 use_batch_norm: bool = True):
        num_layers = check_positive_int(num_layers, "num_layers")
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
        convs = [
            RelGraphConv(dims[i], dims[i + 1], relation_names, num_bases=num_bases)
            for i in range(num_layers)
        ]
        super().__init__(convs, dims[1:num_layers], dropout, use_batch_norm, "relu")
        self.in_features = in_features
        self.hidden_features = hidden_features
        self.num_classes = num_classes
        self.relation_names = list(relation_names)
