"""Rank-2 proximal Cantor systems presented as two-vertex graph coverings.

The package builds covering specifications level by level, expands circuit
words exactly, computes occurrence-gap structure from the level maps alone
(so circuits of astronomical length need no expansion), classifies the
invariant-measure simplex, renders array pictures around finite seeds,
searches for proximality/separation witnesses, translates to ordered
Bratteli diagrams, and checks the substitution model of the base family.
"""
from __future__ import annotations

from .bratteli import (
    Edge,
    FinitePath,
    OrderedBratteliDiagram,
    covering_to_diagram,
    diagram_from_json,
    diagram_to_covering,
    diagram_to_dot,
    diagram_to_json,
    maximal_path,
    minimal_path,
    path_from_position,
    path_to_seed,
    position_of_path,
    resolve_path,
    validate_diagram,
    vershik_successor,
)
from .covering import (
    CAP_ENV_VAR,
    DEFAULT_EXPANSION_CAP,
    CoveringSpec,
    FamilyInfo,
    LevelMap,
    RestrictedLevelMap,
    ValidationReport,
    circuit_length,
    compose_word,
    expansion_cap,
    level_map,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
    symbol_count,
    telescope,
    validate,
    winding_product,
)
from .dynamics import (
    ArrayBlock,
    ArrayRow,
    ComplexityRow,
    ForbiddenWindowReport,
    LanguageResult,
    LiYorkeWitness,
    MixingWindowReport,
    PointSeed,
    ResidueReport,
    SeparationReport,
    array_block,
    complexity_profile,
    forbidden_window_report,
    language,
    level1_separation_check,
    li_yorke_witness,
    mixing_window_check,
    position_of_seed,
    render_array_text,
    residue_obstruction,
    seed_from_position,
    stable_point,
    unstable_point,
    validate_seed,
)
from .errors import (
    ExpansionTooLarge,
    MissingStageMetadata,
    NotRank2Proximal,
    NotReducedForm,
    ProxRank2Error,
    RestrictedFormRequired,
    TruncatedMaximal,
    UsageError,
    WindowUndetermined,
)
from .expansion import (
    CircuitWord,
    CumulativeRuns,
    GapSet,
    GapStructureReport,
    VertexWalk,
    cumulative_runs,
    d_word,
    e_run_margins,
    expand_circuit_word,
    expand_vertex_walk,
    gap_set,
    gap_structure_report,
    realized_gap_table,
    time_word,
    walk_windows,
)
from .families import (
    TAG_CUSTOM,
    TAG_MIXING,
    TAG_NOT_WEAKMIX,
    TAG_SUBSTITUTION,
    TAG_WEAKMIX_NOT_MIX,
    FamilyRecord,
    extend_family,
    gen_family,
    gen_mixing_family,
    gen_not_weakmix_family,
    gen_substitution_family,
    gen_uniquely_ergodic_family,
    gen_weakmix_not_mix_family,
    recognize,
)
from .measures import (
    ErgodicityReport,
    ErgodicityRow,
    LoopSeries,
    MeasureVector,
    SimplexPoint,
    classify_ergodicity,
    one_minus_r,
    push_measure_down,
    r_product,
    r_value,
    vertex_measure,
    xi_project,
)
from .substitution import (
    ALPHA,
    BETA,
    TAU,
    BridgeReport,
    FactorLanguage,
    LanguageComparison,
    Substitution,
    apply_word,
    commute_check,
    compose,
    conjugation_identity,
    factor_language,
    iterate,
    languages_equal,
    substitution_bridge,
)

__version__ = "0.1.0"

import types as _types

__all__ = [
    name
    for name, obj in list(globals().items())
    if not name.startswith("_")
    and not isinstance(obj, _types.ModuleType)
    and name != "annotations"
]
