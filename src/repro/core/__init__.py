"""MOARD core: the aDVF model and its supporting analyses.

This package is the reproduction of the paper's primary contribution
(§III–§IV): the classification of error-masking events, the aDVF metric, the
operation-level / error-propagation / algorithm-level analyses, and the
deterministic, exhaustive and random fault injectors used for resolution,
validation and comparison.

Public API
----------
The package itself exports nothing; import from its submodules.

* :mod:`repro.core.advf` — :class:`~repro.core.advf.AdvfEngine` and
  :func:`~repro.core.advf.analyze_workload` compute aDVF for the data
  objects of a workload.
* :mod:`repro.core.reports` — the engine's settings and results as plain
  data: :class:`~repro.core.reports.AnalysisConfig` (propagation bound
  *k*, error model, injection budgets …), the per-object and per-workload
  reports, and the masking level / category enums.
* :mod:`repro.core.masking` — operation-level masking rules.
* :mod:`repro.core.propagation` — bounded error-propagation analysis.
* :mod:`repro.core.participation` / :mod:`repro.core.sites` — the
  participations of a data object and the fault sites they define.
* :mod:`repro.core.injector` / :mod:`repro.core.exhaustive` /
  :mod:`repro.core.rfi` — the three fault-injection modes.
* :mod:`repro.core.replay` — checkpointed replay shared by the injectors
  (golden run + snapshot schedule, suffix-only faulty executions).
* :mod:`repro.core.acceptance` — outcome acceptance criteria.
"""
