"""Sampling substrate: how many tuples to evaluate per group, and doing so.

Section 4 of the paper estimates group selectivities by evaluating a sample of
tuples per group.  This package provides

* :mod:`repro.sampling.schemes` — the ``Constant(c)`` and
  ``Two-Third-Power(num)`` allocation rules compared in Experiment 2, plus a
  fixed-fraction scheme used by Experiment 1 (5% of the data),
* :mod:`repro.sampling.sampler` — the stratified sampler that actually draws
  and evaluates tuples while charging the cost ledger, and
* :mod:`repro.sampling.adaptive` — the adaptive ``num`` search of Section 4.3.
"""

from repro.sampling.adaptive import AdaptiveSamplingResult, choose_num_adaptively
from repro.sampling.sampler import Evidence, GroupSampler, SampleOutcome
from repro.sampling.schemes import (
    ConstantScheme,
    FixedFractionScheme,
    SamplingScheme,
    TwoThirdPowerScheme,
)

__all__ = [
    "SamplingScheme",
    "ConstantScheme",
    "TwoThirdPowerScheme",
    "FixedFractionScheme",
    "GroupSampler",
    "Evidence",
    "SampleOutcome",
    "AdaptiveSamplingResult",
    "choose_num_adaptively",
]
