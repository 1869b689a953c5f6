"""Evidential intelligence analysis: conflict-based clustering of uncertain
reports, graded membership, posteriors over the number of events, track-graph
analysis, and rho-interval decision support."""

from .cluster import (
    DomainPrior,
    EvidenceCorpus,
    MetaConflictReport,
    Partition,
    Report,
    SearchConfig,
    cluster_conflict,
    domain_conflict,
    exhaustive_search,
    make_partition,
    metaconflict,
    partition_search,
)
from .decide import (
    DecisionMaker,
    RhoSegmentation,
    UtilityBpa,
    UtilityIntervalChoice,
    expected_interval,
    game_preferences,
    rho_segmentation,
    sequential_play,
)
from .ds import (
    Frame,
    MassFunction,
    TotalConflictError,
    ValidationError,
    combine_dempster,
    make_mass,
    vacuous,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    StageError,
    run_pipeline,
)
from .posterior import (
    CountingBpa,
    counting_bpa,
    posterior_distribution,
    subset_support,
)
from .scenario import ScenarioConfig, generate_scenario
from .specify import (
    NEW_BLOCK,
    MembershipSpecification,
    specify_corpus,
)
from .tracks import (
    TrackGraph,
    TrackVertex,
    best_path_dp,
    dot_export,
    kinematic_edge_mass,
    kinematic_graph,
    path_support,
    track_conflict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
