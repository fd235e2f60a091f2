"""Experiment harness regenerating every table and figure of the paper.

One function per experiment; each returns an :class:`~repro.bench.harness.
Experiment`.  ``repro report`` renders every registered experiment into
``results/REPORT.md`` (:mod:`repro.bench.report`).  See DESIGN.md for the
experiment index and EXPERIMENTS.md for paper-vs-measured numbers.
"""
