"""Reference oracles the identity gates run the production code against.

Each module keeps a deliberately plain implementation that production
code is checked against. Most are the original version of one layer
that has a faster production twin in :mod:`repro`:

* :mod:`tests.oracles.cascades` — the dict-of-dict MFC and IC cascade
  loops (production: the CSR kernel in :mod:`repro.kernel.cascade`);
* :mod:`tests.oracles.tree_dp` — the recursive dict-memo k-ISOMIT-BT
  solver, the exhaustive brute force, and the paper's greedy β stop
  (production: :class:`repro.kernel.tree_dp.TreeDPKernel`, whose
  penalised pass answers β mode);
* :mod:`tests.oracles.rid_reference` — the sequential pre-pipeline RID
  (production: :class:`repro.core.rid.RID`, which runs the cached steps
  of :mod:`repro.pipeline.stages`).

One has no production twin, because what it computes is NP-hard:

* :mod:`tests.oracles.exact` — the exhaustive ISOMIT solvers and the
  noisy-or likelihood they score with (production: RID, whose objective
  they bound on small snapshots).

Nothing under ``src/repro`` imports this package
(``tests/unit/test_oracle_boundary.py`` pins that). The benchmark
scripts that gate against it put the repository root on ``sys.path``.
"""
