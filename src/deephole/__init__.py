"""Deep holes of affine and projective Reed-Solomon codes over small finite fields.

The package is organised as follows:

- ``gf``           exact arithmetic in GF(p^m), element enumeration, discrete logs,
                   numpy lookup tables
- ``linalg``       Gaussian elimination and rank over GF(q)
- ``poly``         univariate polynomial algebra over GF(q), array evaluation,
                   the monic-irreducible sieve
- ``codes``        affine RS(D,k) and projective PRS(q+1,k) codes, syndromes,
                   exact error distances and covering radii
- ``families``     the explicit deep-hole families and their coset identities
- ``classify``     full enumeration of deep cosets at redundancy 3 and 4, the
                   irreducible-quadratic hypergraph, coverage experiments
- ``numbertheory`` subset-sum counts, zero-sum-free sets, distribution of
                   irreducible cubics in residue classes
- ``table``        report row tables held as integer columns, JSON by template
- ``cli``          command-line harness with JSON/CSV reports
"""

from deephole.gf import GF, make_field

__all__ = ["GF", "make_field"]
__version__ = "0.1.0"
