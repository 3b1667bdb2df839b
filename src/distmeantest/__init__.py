"""Communication-bounded distributed testing of a Gaussian mean.

Users each hold identity-covariance Gaussian samples and may send only a few
bits; a referee must distinguish mean zero from means of norm at least
epsilon.  The package provides the shared rotation machinery (blockwise
randomized Hadamard transforms driven by a metered four-wise independent
seed), the referee's binary product-distribution mean test, five protocols
for homogeneous and heterogeneous populations, and a Monte Carlo harness
with exact bit accounting.
"""

from .binary_test import (
    ACCEPT,
    REJECT,
    BpmtMoments,
    bpmt_decide,
    bpmt_decide_threshold,
    bpmt_moments_oracle,
    collision_statistic,
    collision_statistic_counts,
)
from .brht import (
    BrhtSpec,
    CompressionProbeResult,
    RETENTION_FACTOR,
    brht_apply,
    compression_probe,
    is_pow2,
    next_pow2,
    pow2_floor,
    sample_brht,
)
from .errors import (
    BudgetExhaustedError,
    CalibrationFailedError,
    DegenerateInputError,
    DimensionError,
    InfeasiblePartitionError,
    InsufficientPopulationError,
    MeanTestError,
    ParameterError,
)
from .hadamard import fwht, fwht_inplace, hadamard_matrix
from .harness import (
    MEAN_MODES,
    PROTOCOL_NAMES,
    AuditReport,
    BatchResult,
    CalibrationResult,
    Candidate,
    ErrorEstimate,
    MeanSpec,
    PopulationConfig,
    TrialRecord,
    UserRuns,
    bpmt_error_rates,
    budget_audit,
    calibrate,
    calibrate_bpmt,
    estimate_error,
    gen_gaussian_samples,
    make_mean,
    run_batch,
    run_trial,
    write_records_csv,
)
from .protocols import (
    Decision,
    Layout,
    REPETITIONS,
    Transcript,
    UserSpec,
    aggregate_block,
    greedy_partition,
    hetero_comm_protocol,
    hetero_pair_weight,
    hetero_samples_protocol,
    hetero_share,
    hetero_threshold,
    limited_coin_protocol,
    mix_and_match_protocol,
    private_coin_layout,
    private_coin_protocol,
    sign_flip_prob,
    sign_quantize,
)
from .randomness import PublicSeed, RademacherBlockSigns, fourwise_rademacher

__version__ = "0.1.0"
