"""Random walks on spanning tuples over finite fields and Heisenberg groups.

The package root re-exports nothing: import each name from its submodule
(``from groupwalks.spectral import spectral_gap``).  The six submodules:

* :mod:`groupwalks.algebra` — F_p vectors, linear functionals, the
  standard alternating form, and exact ranks (also of bit-packed F_2 rows);
* :mod:`groupwalks.groups` — Heisenberg group elements, the representations
  rho_lam, and projection norms;
* :mod:`groupwalks.chains` — the three walk kernels (row-addition tuples,
  one-column updates, power-averaged generator replacement), enumerated
  state spaces, fibre kernels, and vectorised trajectory engines;
* :mod:`groupwalks.spectral` — gaps, Dirichlet forms, entropy, numeric
  log-Sobolev constants, killed kernels, semigroup evolution, and the
  good-set confinement pipeline;
* :mod:`groupwalks.diagnostics` — character statistics, good-set
  measures, burn-in occupancy, exact and Monte Carlo mixing measurements,
  and the birth-death analysis of the support process;
* :mod:`groupwalks.cli` — the ``groupwalks`` command-line harness.

Errors live in :mod:`groupwalks.errors`.
"""
