"""Experiment harness: regenerate every table and figure of Section 4.

One module per paper artifact:

* :mod:`repro.eval.table1` -- total execution time, SPARTA vs Para-CONV
  on 16/32/64 PEs with IMP%;
* :mod:`repro.eval.table2` -- maximum retiming value per configuration;
* :mod:`repro.eval.figure5` -- per-iteration execution time, normalized to
  the 64-PE baseline;
* :mod:`repro.eval.figure6` -- intermediate results allocated to on-chip
  cache per configuration;
* :mod:`repro.eval.ablation` -- allocator design-choice ablation (A1);
* :mod:`repro.eval.validation` -- discrete-event vs analytic model (A2);
* :mod:`repro.eval.energy` -- energy accounting extension (A3).

Run everything from the command line::

    python -m repro.eval all
"""
