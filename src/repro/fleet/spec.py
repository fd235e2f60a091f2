"""Fleet composition: heterogeneous replica classes with a cost model.

A :class:`ReplicaClass` is "one way to build a replica" — GPU model,
serving knobs, dollar cost per hour, and how long a fresh instance
takes to boot.  A :class:`FleetSpec` is the menu of classes the
autoscaler may provision from; it scales up cheapest-class-first and
retires priciest-first, so a heterogeneous fleet drifts toward the
cheapest mix that still meets the load.

Every class lowers to a :class:`~repro.analysis.deploy_model.DeploymentSpec`
(:meth:`ReplicaClass.deployment_spec`), which the A-family lint sweep
feeds through the existing M/T/K/O/D deployment rules — a fleet built
from classes that would OOM or violate sharding is rejected before a
single simulated dollar is spent.

Prices are pinned constants (USD per GPU-hour, on-demand cloud rental
ballpark circa the paper's testbeds).  They are inputs to a
deterministic cost model, not market data: what matters is that the
relative order (RTX4090 < A6000 < A100 < H100) is right and every run
prices identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..analysis.deploy_model import DeploymentSpec

__all__ = [
    "GPU_COST_PER_HOUR",
    "ReplicaClass",
    "FleetSpec",
    "builtin_fleet_specs",
]

#: USD per GPU-hour.  Pinned: the cost model must replay byte-identically.
GPU_COST_PER_HOUR: Dict[str, float] = {
    "RTX3090": 0.22,
    "RTX4090": 0.44,
    "A6000": 0.79,
    "A100_SXM": 1.89,
    "H100_PCIE": 2.49,
}


@dataclass(frozen=True)
class ReplicaClass:
    """One provisionable replica flavour."""

    name: str
    gpu: str = "RTX4090"
    model: str = "opt-13b"
    framework: str = "spinfer"
    max_batch: int = 4
    kv_cap_tokens: Optional[int] = 8192
    #: Override the pinned per-GPU price (None = table lookup).
    cost_per_hour: Optional[float] = None
    #: Boot time of a fresh instance — the scale-up lag the planner
    #: charges against reactive policies.
    provision_s: float = 0.4
    #: Hard ceiling on simultaneous replicas of this class.
    max_replicas: int = 6
    #: Shape assumed when validating the class as a deployment.
    prompt_len: int = 256
    output_len: int = 64

    def __post_init__(self) -> None:
        if self.max_batch <= 0 or self.max_replicas <= 0:
            raise ValueError("max_batch and max_replicas must be positive")
        if self.provision_s < 0:
            raise ValueError("provision time cannot be negative")
        if self.cost_per_hour is None and self.gpu not in GPU_COST_PER_HOUR:
            raise KeyError(
                f"no pinned price for GPU {self.gpu!r}; "
                f"set cost_per_hour explicitly"
            )
        if self.cost_per_hour is not None and self.cost_per_hour <= 0:
            raise ValueError("cost_per_hour must be positive")

    @property
    def hourly_cost(self) -> float:
        if self.cost_per_hour is not None:
            return self.cost_per_hour
        return GPU_COST_PER_HOUR[self.gpu]

    def deployment_spec(self) -> DeploymentSpec:
        """The class as a single-GPU deployment, for M/T/K/O/D lint."""
        return DeploymentSpec(
            model=self.model,
            framework=self.framework,
            gpu=self.gpu,
            num_gpus=1,
            batch_size=self.max_batch,
            prompt_len=self.prompt_len,
            output_len=self.output_len,
        )


@dataclass(frozen=True)
class FleetSpec:
    """The menu of replica classes one fleet may provision from."""

    name: str
    classes: Tuple[ReplicaClass, ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("a fleet needs at least one replica class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError("replica class names must be unique")

    def by_cost(self) -> Tuple[ReplicaClass, ...]:
        """Classes cheapest-first (name breaks price ties) — the
        scale-up provisioning order."""
        return tuple(
            sorted(self.classes, key=lambda c: (c.hourly_cost, c.name))
        )


def builtin_fleet_specs() -> Dict[str, FleetSpec]:
    """Pinned fleets used by ``repro fleet``, the bench and the lint
    sweep.  ``consumer-mix`` mirrors the paper's two testbeds: cheap
    PCIe RTX4090 boxes as the elastic tier, NVLinked A6000s as the
    pricier overflow tier."""
    rtx4090 = ReplicaClass(name="rtx4090", gpu="RTX4090")
    a6000 = ReplicaClass(name="a6000", gpu="A6000", max_replicas=4)
    return {
        "consumer-mix": FleetSpec(
            name="consumer-mix", classes=(rtx4090, a6000)
        ),
        "rtx4090-only": FleetSpec(name="rtx4090-only", classes=(rtx4090,)),
    }
