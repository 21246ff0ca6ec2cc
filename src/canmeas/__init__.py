"""Canonical measures on metric graphs and their degenerations.

The package computes the canonical (tree-weighted) measure of a metric
graph in three independent formulations, decomposes layered graphs into
graded minors, follows measures and period matrices along degenerating
families, and ships a CLI plus seeded self tests on top of it all.
Everything outside the period module is exact rational arithmetic.
"""

from .degeneration import (
    CROSS_LAYER,
    WITHIN_LAYER,
    ConvergenceDiagnostics,
    ConvergenceFailure,
    ConvergenceReport,
    LengthFamily,
    ProbeReport,
    all_tree_limits,
    check_convergence,
    continuity_probe,
    layered_tree_weight,
    limit_foster,
    omega_infinity,
)
from .documents import (
    GraphDocument,
    dump_report,
    exact_field,
    float_field,
    load_document,
    measure_section,
    parse_document,
    parse_rational,
    render_table,
)
from .errors import (
    BasisError,
    CanmeasError,
    DisconnectedGraph,
    DocumentError,
    FamilyError,
    InvalidGraph,
    LayeringError,
    MissingSection,
    NotPositiveDefinite,
    InvalidTestFunction,
    UnknownEdge,
    UnknownVertex,
)
from .families import ScaleFunction, geometric_grid, parse_scale, ratio_limit
from .graphs import (
    AugmentedGraph,
    CycleVector,
    canonical_spanning_forest,
    connected_components,
    cycle_basis,
    fundamental_cycles,
    graph_genus,
    is_connected,
    is_stable,
    spanning_trees,
    total_genus,
)
from .kirchhoff import effective_resistance, tree_count
from .layerings import (
    AdmissibleBasis,
    GradedMinorReport,
    OrderedPartition,
    admissible_cycle_basis,
    graded_minors,
    layered_spanning_trees,
    refines,
    to_filtration,
)
from .measures import (
    EdgeMeasure,
    MetricGraph,
    NormalizedTestFunction,
    TropicalCurve,
    foster_by_matrix,
    foster_by_projection,
    foster_by_trees,
    gram_matrices,
    integrate,
    mass_digits,
    tropical_canonical_measure,
)
from .periods import (
    BlockScaleProfile,
    GradedLimitReport,
    InverseLemmaReport,
    ModelPeriodFamily,
    MonodromySet,
    NoiseSpec,
    assemble_base,
    graded_inverse_limits,
    layered_period_family,
    model_period,
    monodromy_from_basis,
    schur_block_inverse,
    verify_inverse_lemma,
)

__version__ = "0.1.0"
