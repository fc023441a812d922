"""degcert: prime-power divisibility certificates for curve degrees on very
general hypersurfaces, plus the number theory that measures how common the
qualifying degrees are (Dickman densities, prime-power counts, reciprocal
prime sums, sieve experiments)."""

__version__ = "0.1.0"
