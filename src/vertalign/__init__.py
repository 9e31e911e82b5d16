"""Exact verification of vertically aligned Pascal entries and curve morphisms.

The library has three layers, all in exact arithmetic (int / Fraction, never
floats):

* :mod:`vertalign.combinatorics` / :mod:`vertalign.alignment` - generalized
  binomials, the Lucas coefficient triangle T(n, k), and the alternating
  linear dependence on vertically aligned Pascal entries.
* :mod:`vertalign.lockwood` - an independent brute-force oracle that expands
  the x^n + y^n identity as dense homogeneous integer forms and matches
  coefficients.
* :mod:`vertalign.cyclotomic` / :mod:`vertalign.quotient_ring` /
  :mod:`vertalign.curves` - arithmetic in Q[z, u]/(Phi_g(z), u^g - c) and
  the hyperelliptic-curve morphisms whose defining-equation identity the
  alignment dependence powers.

The public API is these submodules; the package itself re-exports nothing.
The ``vertalign`` command line exposes every operation; see the README.
"""

__version__ = "0.1.0"
