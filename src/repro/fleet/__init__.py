"""``repro.fleet`` — fleet-scale capacity planning and autoscaling.

The composition rung above single-pool serving: deterministic traffic
curves (:mod:`~repro.fleet.traffic`), priced heterogeneous replica
classes (:mod:`~repro.fleet.spec`), pure scaling policies with broken
fixtures (:mod:`~repro.fleet.autoscaler`), the event-driven elastic
simulator (:mod:`~repro.fleet.simulator`), and the cost-vs-goodput
capacity planner behind ``repro fleet`` (:mod:`~repro.fleet.planner`).
"""
