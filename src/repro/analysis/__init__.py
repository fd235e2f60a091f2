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
* :mod:`~repro.analysis.integrity_lint` — served-despite-detection
  (``C002``) and SDC-run ledger audits (``C005``);
* :mod:`~repro.analysis.fleet_lint` — fleet-run lifecycle audits
  (``A005``);
* :mod:`~repro.analysis.server_lint` — session-prefix ownership
  (``Q002``);
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
