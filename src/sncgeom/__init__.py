"""Exact computational toolkit for normal crossing surface geometry.

Submodules:

- ``lattice``: exact integer/rational linear algebra (rank, sparse rank,
  kernels, Smith normal form, rank over F_p by one echelon);
- ``poly``: sparse polynomials over Z, determinants and adjugates by
  cofactor expansion, blow-up charts and determinantal-locus estimates;
- ``picard``: rational surfaces carrying an anticanonical cycle of
  rational curves, blow-up calculus and degree-1 polarizations;
- ``snc``: surfaces glued from triangulations via the dual complex:
  cohomology, orientability, fundamental group, loop classes;
- ``fano``: section spaces of glued P^2-bundle 3-folds and their
  degree-1 embeddings;
- ``resolution``: resolution chains of the node x1 x2 = s^m and the
  class-group rank bound.
"""

from . import fano, lattice, picard, poly, resolution, snc

__all__ = ["fano", "lattice", "picard", "poly", "resolution", "snc"]

__version__ = "0.1.0"
