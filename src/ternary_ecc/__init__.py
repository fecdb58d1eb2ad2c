"""Channel coding toolkit for the non-symmetric ternary channel and its q-ary relatives."""

from .bounds import sphere_packing_bound, sphere_volume_exact, sphere_volume_min
from .channel import (
    CapacityResult,
    ChannelSpec,
    capacity,
    capacity_numeric,
    capacity_sweep,
    mutual_information,
    transition_matrix,
    transition_prob,
    transmit,
)
from .codec import (
    BlockTrace,
    DecodeTrace,
    MessageStream,
    StreamCodec,
    strip_padding,
)
from .construct import (
    ConstructionPlan,
    SupportMap,
    build_code,
    construction_size,
    lift_erasure_word,
    lower_to_erasure_word,
    scatter_into_support,
)
from .core import (
    Code,
    CodeFormatError,
    ErasureDecodeError,
    WeightEnumerator,
    Word,
    all_words,
    hamming_distance,
    hamming_weight,
    load_code,
    save_code,
    weight_enumerator,
)
from .decode import DecodeResult, SimReport, decode_da, decode_ml, simulate
from .metric import (
    INF,
    AgreementProfile,
    LikelihoodBounds,
    agreement_profile,
    correction_capability,
    dist_a,
    dist_b,
    dist_ml,
    likelihood_bounds,
    min_dist_b,
    pmax,
)
from .search import (
    BudgetExceededError,
    CliqueResult,
    SearchGraph,
    build_restricted_graph,
    build_unrestricted_graph,
    exact_clique,
    greedy_clique,
    optimal_binary_code,
    optimal_binary_code_size,
    search_code,
)

__version__ = "0.1.0"
