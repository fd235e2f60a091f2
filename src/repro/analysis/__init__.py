"""Static analysis of the kernel-engineering layers (``repro lint``).

Turns the paper's instruction-sequence and format invariants into
machine-checked properties that run without executing anything:

* :mod:`~repro.analysis.warp_lint` — dataflow lint, bank-conflict and
  bounds prediction, cycle lower bound, and the SMBD one-POPC rule over
  :class:`~repro.gpu.warp_sim.WarpProgram` (rules ``W001``–``W009``);
* :mod:`~repro.analysis.pipeline_lint` — double-buffer race detection
  over :class:`~repro.gpu.pipeline.PipelineTrace` (``P001``–``P005``);
* :mod:`~repro.analysis.format_lint` — TCA-BME / Tiled-CSL / CSR
  structural validation (``F001``–``F005``);
* :mod:`~repro.analysis.plan_lint` — deployment-plan verification:
  memory budgets (``M001``–``M006``), tensor-parallel sharding
  (``T001``–``T005``), KV-cache plans and allocators
  (``K001``–``K005``), offload feasibility (``O001``–``O004``) and
  disaggregated configurations (``D001``–``D004``);
* :mod:`~repro.analysis.fault_lint` — recovery-policy sanity and
  fault-run conservation audits (``R001``–``R005``);
* :mod:`~repro.analysis.integrity_lint` — integrity-policy sanity
  (unverified tags, unreachable or hair-trigger quarantine, free
  verification) and SDC-run ledger audits (``C001``–``C005``);
* :mod:`~repro.analysis.fleet_lint` — autoscaling-policy sanity
  (flapping, kill-on-scale-down, unbounded ceilings, dropped KV) and
  fleet-run conservation audits (``A001``–``A005``);
* :mod:`~repro.analysis.server_lint` — streaming-server admission
  policies, session-prefix ownership and token-stream ordering
  (``Q001``–``Q004``);
* :mod:`~repro.analysis.source_lint` — determinism hazards in this
  repo's own Python source: ambient RNG, wall-clock reads, iteration
  order over unordered collections (``S001``–``S006``);
* :mod:`~repro.analysis.schedule_lint` — schedule-race detection by
  dual replay of event-loop runs under a reversed insertion tie-break
  (``H002``).

``check_all_builtin_programs`` sweeps every program, schedule and
container the repo constructs; ``check_all_builtin_deployments`` sweeps
every deployment artifact and translation-validates the planner;
``check_source`` lints the source tree; ``check_builtin_schedules``
replays every builtin scenario both ways.  Every module registers its
rules into the shared :data:`~repro.analysis.findings.FAMILIES` /
:data:`~repro.analysis.findings.RULES` tables at import
(``repro lint --list-rules`` prints the combined catalogue).  See
docs/ANALYSIS.md for the rule catalogue with minimal failing examples.
"""

from .abstract import AbstractResult, interpret, static_cycle_lower_bound
from .builtin import (
    builtin_formats,
    builtin_pipeline_traces,
    builtin_warp_programs,
    check_all_builtin_programs,
)
from .dataflow import DefUse
from .deploy_model import (
    DeploymentSpec,
    KVCachePlan,
    effective_sparsity,
    kv_plan_for_spec,
    spec_kv_budget_bytes,
    spec_kv_bytes_per_token,
    spec_memory,
)
from .fault_lint import (
    check_builtin_fault_artifacts,
    lint_fault_outcome,
    lint_recovery_policy,
)
from .fleet_lint import (
    check_builtin_fleet_artifacts,
    lint_autoscaler_policy,
    lint_fleet_outcome,
    lint_fleet_spec,
)
from .findings import (
    FAMILIES,
    RULES,
    Finding,
    Report,
    Rule,
    RuleFamily,
    Severity,
    ensure_all_registered,
    reconcile_expected,
    rule_table,
)
from .format_lint import lint_csr, lint_format, lint_tca_bme, lint_tiled_csl
from .integrity_lint import (
    check_builtin_integrity_artifacts,
    lint_integrity_outcome,
    lint_integrity_policy,
)
from .pipeline_lint import lint_pipeline_trace
from .plan_lint import (
    builtin_deployment_specs,
    builtin_runtime_traces,
    check_all_builtin_deployments,
    lint_deployment,
    lint_deployment_plan,
    lint_disaggregated,
    lint_kv_allocator,
    lint_kv_plan,
    lint_offload_plan,
    lint_runtime_trace,
)
from .server_lint import (
    check_builtin_server_artifacts,
    lint_prefix_ownership,
    lint_server_policy,
    lint_token_stream,
)
from .schedule_lint import (
    builtin_schedule_scenarios,
    check_builtin_schedules,
    dual_replay,
)
from .source_lint import (
    check_source,
    check_source_fixtures,
    check_source_tree,
    lint_source_file,
    lint_source_text,
)
from .warp_lint import cross_check_with_simulator, lint_warp_program

__all__ = [
    "AbstractResult",
    "DefUse",
    "DeploymentSpec",
    "FAMILIES",
    "Finding",
    "KVCachePlan",
    "Report",
    "Rule",
    "RuleFamily",
    "RULES",
    "Severity",
    "builtin_deployment_specs",
    "builtin_formats",
    "builtin_runtime_traces",
    "builtin_pipeline_traces",
    "builtin_schedule_scenarios",
    "builtin_warp_programs",
    "check_all_builtin_deployments",
    "check_all_builtin_programs",
    "check_builtin_fault_artifacts",
    "check_builtin_fleet_artifacts",
    "check_builtin_integrity_artifacts",
    "check_builtin_schedules",
    "check_builtin_server_artifacts",
    "check_source",
    "check_source_fixtures",
    "check_source_tree",
    "cross_check_with_simulator",
    "dual_replay",
    "effective_sparsity",
    "ensure_all_registered",
    "interpret",
    "kv_plan_for_spec",
    "lint_autoscaler_policy",
    "lint_csr",
    "lint_deployment",
    "lint_deployment_plan",
    "lint_disaggregated",
    "lint_fault_outcome",
    "lint_fleet_outcome",
    "lint_fleet_spec",
    "lint_format",
    "lint_integrity_outcome",
    "lint_integrity_policy",
    "lint_kv_allocator",
    "lint_kv_plan",
    "lint_offload_plan",
    "lint_pipeline_trace",
    "lint_prefix_ownership",
    "lint_recovery_policy",
    "lint_runtime_trace",
    "lint_server_policy",
    "lint_source_file",
    "lint_source_text",
    "lint_tca_bme",
    "lint_tiled_csl",
    "lint_token_stream",
    "lint_warp_program",
    "reconcile_expected",
    "rule_table",
    "spec_kv_budget_bytes",
    "spec_kv_bytes_per_token",
    "spec_memory",
    "static_cycle_lower_bound",
]
