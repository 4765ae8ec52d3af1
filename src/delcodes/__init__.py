"""Binary deletion-correcting codes via deletion-distance graphs.

Construct, verify, and analyze codes that survive a fixed number of symbol
deletions: explicit single-deletion constructions, per-weight-layer
refinements, greedy and exact independent-set search, and clique / cycle
witnesses for coloring lower bounds.
"""

from .bitstring import (
    BitString,
    MAX_LENGTH,
    common_substrings,
    confusable_set,
    delete_all,
    deletion_distance,
    insert_all,
    insert_all_weighted,
    lcs_length,
    weight,
)
from .counting import (
    EncodingError,
    InsertionEncoding,
    decode,
    encode,
    f_s_bound,
    f_s_value,
    f_s_value_multinomial,
    insertion_count,
    weighted_insertion_count,
)
from .graph import (
    BudgetExceededError,
    CapacityError,
    CliqueWitness,
    ConfusabilityGraph,
    GraphParams,
    build_graph,
    degree_stats,
    exact_mis,
    greedy_mis,
    imperfectness_witness,
    induced_cycle,
    layer_avg_degree_bound,
    segment_clique,
    substring_clique,
    verify_clique,
    verify_coloring,
    verify_independent,
)
from .codes import (
    Code,
    Coloring,
    best_segment_clique,
    chromatic_certificate,
    chromatic_lower_bound,
    constant_weight_guarantee,
    constant_weight_guarantee_asymptotic,
    find_conflict,
    greedy_layer_solver,
    layer_code,
    layer_color_solver,
    levenshtein_lower_bound,
    make_code,
    make_exact_layer_solver,
    modified_vt_weight,
    penalty_ratio,
    read_code_file,
    two_stage_coloring,
    verify_code,
    vt_code,
    vt_weight,
    weight_partition_code,
    weight_partition_size_bound,
    write_code_file,
)

__version__ = "0.1.0"
