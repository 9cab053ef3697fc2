"""Mathematical substrates used by the topology constructions.

This subpackage is self-contained (no dependency on the rest of
:mod:`repro`) and provides:

- :mod:`repro.maths.primes` -- primality testing, factorisation, and
  prime-power decomposition,
- :mod:`repro.maths.galois` -- finite-field arithmetic ``GF(p^n)`` with
  primitive-element search (required by the Slim Fly / MMS construction),
- :mod:`repro.maths.mols` -- Mutually Orthogonal Latin Squares (required by
  the ``k``-ML3B construction of the Orthogonal Fat-Tree),
- :mod:`repro.maths.moore` -- the Moore bound for the degree/diameter
  problem.
"""

from repro._lazy import lazy_exports

#: Every public name and the submodule that defines it, imported when
#: the name is first read (see :mod:`repro._lazy`).
_EXPORTS = {
    "GaloisField": ".galois",
    "latin_square": ".mols",
    "mols_prime": ".mols",
    "are_orthogonal": ".mols",
    "is_latin_square": ".mols",
    "moore_bound": ".moore",
    "is_prime": ".primes",
    "is_prime_power": ".primes",
    "factorize": ".primes",
    "prime_power_decomposition": ".primes",
    "primes_up_to": ".primes",
    "next_prime": ".primes",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
