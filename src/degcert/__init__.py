"""degcert: prime-power divisibility certificates for curve degrees on very
general hypersurfaces, plus the number theory that measures how common the
qualifying degrees are (Dickman densities, prime-power counts, reciprocal
prime sums, sieve experiments)."""

from .arith import (
    FactoredInteger,
    PrimeSumResult,
    euler_phi,
    factorize,
    is_prime,
    largest_prime_power,
    mertens_sum,
    prime_count,
    prime_power_count,
)
from .certify import (
    Certificate,
    Mode,
    PrimePowerCertificate,
    RationalExampleReport,
    VerificationReport,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    condition_holds,
    decompose,
    enumerate_qualifying,
    smallest_qualifying,
    verify_certificate,
    verify_rational_example,
)
from .density import (
    DensityMode,
    DensityReport,
    IhcReport,
    convergence_diagnostics,
    empirical_density,
    ihc_fraction,
)
from .dickman import DickmanTable, rho, rho_table, theoretical_density
from .errors import CapacityError, DecompositionError, DegcertError, ParameterError

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Certificate",
    "DecompositionError",
    "DegcertError",
    "DensityMode",
    "DensityReport",
    "DickmanTable",
    "FactoredInteger",
    "IhcReport",
    "Mode",
    "ParameterError",
    "PrimePowerCertificate",
    "PrimeSumResult",
    "RationalExampleReport",
    "VerificationReport",
    "build_certificate",
    "certificate_from_json",
    "certificate_to_json",
    "condition_holds",
    "convergence_diagnostics",
    "decompose",
    "empirical_density",
    "enumerate_qualifying",
    "euler_phi",
    "factorize",
    "ihc_fraction",
    "is_prime",
    "largest_prime_power",
    "mertens_sum",
    "prime_count",
    "prime_power_count",
    "rho",
    "rho_table",
    "smallest_qualifying",
    "theoretical_density",
    "verify_certificate",
    "verify_rational_example",
]
