"""planvet: deterministic policy-compliance verification for incident-response plans.

The package fixes an evaluation object — canonical incident packages, a
closed action catalog, a typed rule set, and a deterministic repair engine —
then verifies proposed plans against it, pairs them with analyst baselines,
and reproduces corpus-level statistics from run data.
"""

__version__ = "0.1.0"

from .catalog import (  # noqa: F401
    ActionCatalog,
    ActionEntry,
    PolicyRule,
    ScopePredicate,
    ValidatedPolicy,
    load_catalog,
    load_policy,
    load_policy_rules,
    scope_matches,
    validate_policy,
)
from .corpus import (  # noqa: F401
    ApprovalEvidence,
    Corpus,
    IncidentPackage,
    TaskRecord,
    TelemetryEvent,
    baseline_plan,
    load_corpus,
)
from .engine import (  # noqa: F401
    MODE_DEFER,
    MODE_REMOVE,
    EnforcementResult,
    ViolationRecord,
    enforce,
    enforce_actions,
    enforce_modes,
    is_fixed_point,
)
from .mapping import (  # noqa: F401
    MappingRule,
    MappingResult,
    load_mapping_rules,
    map_corpus,
    map_tasks,
    mapping_coverage,
)
from .metrics import (  # noqa: F401
    CellSummary,
    ContrastResult,
    RunOutcome,
    StabilityReport,
    aggregate,
    cohens_h,
    holm_adjust,
    mcnemar_exact,
    paired_contrast,
    run_outcome,
    stability_report,
    wilson_interval,
)
from .plans import (  # noqa: F401
    ProposedPlan,
    iter_proposals,
    load_proposals,
    parse_proposal,
)
