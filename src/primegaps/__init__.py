"""Prime-gap analysis toolkit.

Sieve-backed scans of prime gaps and prime-counting fluctuations:
Selberg-style sums S1/S2, the gap-ratio bound g_n < c log^2 p_n, the
monotonicity of the gap-deficit sum, derivative conditions on the
normalized fluctuations b(x) and k(x), classical pi(x) bounds, and a
triple-logarithm fit of k(x) that extrapolates the sign-change point of
pi(x) - Li(x).
"""

from .analytic import (
    Constants,
    bprime_threshold,
    dusart_bounds,
    kprime_threshold,
    li,
    li_ascending,
    monotonicity_threshold,
    skewes_log10,
    skewes_mean_kprime,
    smooth_s1,
    smooth_s2,
)
from .errors import (
    DomainError,
    InsufficientDataError,
    PrimeGapsError,
    RangeLimitError,
    ResourceLimitError,
    SingularFitError,
)
from .fit import FitResult, bin_average_k, fit_from_data, fit_skewes, sample_fluctuations
from .fluct import (
    BBoundResult,
    DeltaScanResult,
    DerivScanResult,
    DusartResult,
    FluctuationSample,
    ScanReport,
    SchoenfeldResult,
    bbound_scan,
    cg_scan,
    deriv_scan,
    dusart_scan,
    fluctuation_at,
    schoenfeld_scan,
)
from .selberg import (
    LemmaScanResult,
    PartialSumResult,
    SelbergSums,
    lemma_scan,
    partial_sum_scan,
    s1,
    s2,
    selberg_residual_scan,
    theta,
)
from .sieve import (
    PrimeData,
    PrimeStream,
    nth_prime,
    prime_count,
    primes_up_to,
)

__version__ = "0.1.0"

__all__ = [
    "BBoundResult",
    "Constants",
    "DeltaScanResult",
    "DerivScanResult",
    "DomainError",
    "DusartResult",
    "FitResult",
    "FluctuationSample",
    "InsufficientDataError",
    "LemmaScanResult",
    "PartialSumResult",
    "PrimeData",
    "PrimeStream",
    "PrimeGapsError",
    "RangeLimitError",
    "ResourceLimitError",
    "ScanReport",
    "SchoenfeldResult",
    "SelbergSums",
    "SingularFitError",
    "bbound_scan",
    "bin_average_k",
    "bprime_threshold",
    "cg_scan",
    "deriv_scan",
    "dusart_bounds",
    "dusart_scan",
    "fit_from_data",
    "fit_skewes",
    "fluctuation_at",
    "kprime_threshold",
    "lemma_scan",
    "li",
    "li_ascending",
    "monotonicity_threshold",
    "nth_prime",
    "partial_sum_scan",
    "prime_count",
    "primes_up_to",
    "s1",
    "s2",
    "sample_fluctuations",
    "schoenfeld_scan",
    "selberg_residual_scan",
    "skewes_log10",
    "skewes_mean_kprime",
    "smooth_s1",
    "smooth_s2",
    "theta",
]
