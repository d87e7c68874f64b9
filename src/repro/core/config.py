"""Configuration of the distributed training engine.

The paper compares three execution modes for domain-parallel full-batch
training; :class:`SARConfig` selects between them:

* ``"dp"`` — vanilla domain-parallel training: remote (halo) features fetched
  during the forward pass are kept alive as part of the computational graph
  (together with per-edge intermediates such as attention coefficients) until
  the backward pass consumes them.
* ``"sar"`` — Sequential Aggregation and Rematerialization: remote features
  are fetched one partition at a time, aggregated incrementally, and
  discarded immediately; during the backward pass the needed pieces of the
  computational graph are rematerialized (re-fetching remote features only
  for case-2 aggregators such as GAT / R-GCN).

The fused-attention-kernel choice (SAR+FAK) is orthogonal and selected by
building the model from :class:`~repro.nn.gat_fused.FusedGATConv` layers.

``prefetch=True`` enables the practical optimization of §3.4: the engine
issues the next remote block's fetch on a background thread while the current
block is being aggregated, overlapping communication with compute.  This
raises the bound on resident partitions from 2 to 3 — the local partition
plus at most two remote halo blocks (the one computing and the one in
flight), i.e. memory scales as 3/N instead of 2/N.
"""

from __future__ import annotations

from dataclasses import dataclass

_VALID_MODES = ("dp", "sar")


@dataclass(frozen=True)
class SARConfig:
    """Execution-mode configuration shared by all distributed aggregation ops."""

    mode: str = "sar"
    #: Overlap the next block's halo fetch (and case-2 backward re-fetch)
    #: with the current block's compute on a background thread; keeps at most
    #: two remote blocks resident instead of one (§3.4).
    prefetch: bool = False

    def __post_init__(self):
        if self.mode not in _VALID_MODES:
            raise ValueError(f"mode must be one of {_VALID_MODES}, got {self.mode!r}")

    @property
    def is_sar(self) -> bool:
        return self.mode == "sar"

    @property
    def is_domain_parallel(self) -> bool:
        return self.mode == "dp"


#: Convenience instances used throughout examples, tests, and benchmarks.
SAR = SARConfig(mode="sar")
SAR_PREFETCH = SARConfig(mode="sar", prefetch=True)
DOMAIN_PARALLEL = SARConfig(mode="dp")
