"""Paid-for evidence as per-row python containers — the test oracle.

Until evidence became one ``(row_ids, flags)`` array pair
(:class:`repro.sampling.sampler.Evidence`), ``GroupSample`` held two
``List[int]`` per group, ``SampleOutcome`` a dict of them, ``LabeledSample`` a
``Dict[int, bool]``, and four modules converted them back to arrays at every
use.  That code lives on here, unchanged in what it computes, as the
reference the array form is held to: same ids *in the same order*, same
flags, same per-group counts, same merges, same re-expression, same
exclusion, same reservoir.  The classes and the statements inside the
functions are the parent commit's, verbatim (``sampling/sampler.py``,
``core/column_selection.py``, ``core/pipeline.py``, ``core/executor.py``);
only the names of the two entry points that wrapped a UDF call
(:func:`sampler_available`, :func:`top_up_members`) and of
:func:`uncovered` are new, because the UDF call and the surrounding
pipeline are not what is being compared.
"""

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.stats.random import counter_uniforms, stream_key


@dataclass
class GroupSample:
    group_key: Hashable
    sampled_row_ids: List[int] = field(default_factory=list)
    positive_row_ids: List[int] = field(default_factory=list)
    group_size: int = 0

    @property
    def sample_size(self) -> int:
        return len(self.sampled_row_ids)

    @property
    def positives(self) -> int:
        return len(self.positive_row_ids)


@dataclass
class SampleOutcome:
    samples: Dict[Hashable, GroupSample]

    def positive_row_ids(self) -> List[int]:
        rows: List[int] = []
        for sample in self.samples.values():
            rows.extend(sample.positive_row_ids)
        return rows

    def sampled_row_ids(self) -> List[int]:
        rows: List[int] = []
        for sample in self.samples.values():
            rows.extend(sample.sampled_row_ids)
        return rows

    def merge(self, other: "SampleOutcome") -> "SampleOutcome":
        merged: Dict[Hashable, GroupSample] = {}
        for key in dict.fromkeys([*self.samples, *other.samples]):
            left = self.samples.get(key)
            right = other.samples.get(key)
            if left is None:
                merged[key] = right
                continue
            if right is None:
                merged[key] = left
                continue
            merged[key] = GroupSample(
                group_key=key,
                sampled_row_ids=left.sampled_row_ids + right.sampled_row_ids,
                positive_row_ids=left.positive_row_ids + right.positive_row_ids,
                group_size=max(left.group_size, right.group_size),
            )
        return SampleOutcome(samples=merged)

    @classmethod
    def merge_shards(
        cls, outcomes: Sequence["SampleOutcome"], key_order: Optional[Sequence[Hashable]] = None
    ) -> "SampleOutcome":
        merged: Dict[Hashable, GroupSample] = {}
        if key_order is not None:
            for key in key_order:
                merged[key] = GroupSample(group_key=key)
        for outcome in outcomes:
            for key, sample in outcome.samples.items():
                into = merged.get(key)
                if into is None:
                    into = GroupSample(group_key=key)
                    merged[key] = into
                into.sampled_row_ids.extend(sample.sampled_row_ids)
                into.positive_row_ids.extend(sample.positive_row_ids)
                into.group_size += sample.group_size
        return cls(samples=merged)


@dataclass
class LabeledSample:
    outcomes: Dict[int, bool] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        ids = np.fromiter(self.outcomes.keys(), dtype=np.intp, count=len(self.outcomes))
        flags = np.fromiter(
            self.outcomes.values(), dtype=bool, count=len(self.outcomes)
        )
        return ids, flags

    def to_sample_outcome(self, index) -> SampleOutcome:
        by_group: Dict = {
            key: GroupSample(group_key=key, group_size=len(row_ids))
            for key, row_ids in index.items()
        }
        if not self.outcomes:
            return SampleOutcome(samples=by_group)
        labeled_ids, flags = self.as_arrays()
        in_range = (labeled_ids >= 0) & (labeled_ids < index.total_rows())
        if not in_range.all():
            labeled_ids, flags = labeled_ids[in_range], flags[in_range]
            if not labeled_ids.size:
                return SampleOutcome(samples=by_group)
        codes = index.codes_for_rows(labeled_ids)
        keys = index.values
        for row_id, code, outcome in zip(
            labeled_ids.tolist(), codes.tolist(), flags.tolist()
        ):
            sample = by_group[keys[code]]
            sample.sampled_row_ids.append(row_id)
            if outcome:
                sample.positive_row_ids.append(row_id)
        return SampleOutcome(samples=by_group)


def uncovered(labeled: LabeledSample, cached_outcome: SampleOutcome) -> LabeledSample:
    """``core/pipeline.py``: the labelled rows a cached outcome does not hold."""
    covered = {
        row_id
        for sample in cached_outcome.samples.values()
        for row_id in sample.sampled_row_ids
    }
    return LabeledSample(
        outcomes={
            row_id: outcome
            for row_id, outcome in labeled.outcomes.items()
            if row_id not in covered
        }
    )


def sampler_available(index, already_sampled: Optional[SampleOutcome]) -> List[np.ndarray]:
    """``GroupSampler.sample``: per group, the rows still open to the draw."""
    available_per_group = []
    for group_key, row_ids in index.items():
        if already_sampled is not None and group_key in already_sampled.samples:
            previously = already_sampled.samples[group_key].sampled_row_ids
            available = (
                row_ids[~np.isin(row_ids, previously)] if previously else row_ids
            )
        else:
            available = row_ids
        available_per_group.append(available)
    return available_per_group


def sampled_positives(
    sample_outcome: Optional[SampleOutcome],
) -> Tuple[Dict[Hashable, np.ndarray], List[int]]:
    """``core/executor.py``: per-group sampled-id arrays plus the free output."""
    sampled_ids: Dict[Hashable, np.ndarray] = {}
    returned: List[int] = []
    if sample_outcome is not None:
        for key, sample in sample_outcome.samples.items():
            if sample.sampled_row_ids:
                sampled_ids[key] = np.asarray(sample.sampled_row_ids, dtype=np.intp)
            returned.extend(sample.positive_row_ids)
    return sampled_ids, returned


_RESERVOIR_ADMIT = 0
_RESERVOIR_EVICT = 1


def top_up_members(
    labeled: LabeledSample,
    previous_rows: int,
    total_rows: int,
    fraction: float = 0.01,
    minimum_size: int = 50,
    stream_seed: int = 0,
) -> Tuple[Dict[int, bool], np.ndarray]:
    """``top_up_labeled_sample`` up to its UDF call: ``(kept labels, fresh rows)``."""
    delta_rows = total_rows - previous_rows
    reservoir: List[int] = sorted(labeled.outcomes.keys())
    admit_coins = counter_uniforms(
        stream_key(stream_seed, _RESERVOIR_ADMIT), previous_rows, delta_rows
    )
    evict_coins = counter_uniforms(
        stream_key(stream_seed, _RESERVOIR_EVICT), previous_rows, delta_rows
    )
    for position, row_id in enumerate(range(previous_rows, total_rows)):
        seen = row_id + 1
        target = min(seen, max(minimum_size, int(round(fraction * seen))))
        if len(reservoir) < target:
            reservoir.append(row_id)
            continue
        if admit_coins[position] * seen < target:
            evicted = int(evict_coins[position] * len(reservoir))
            reservoir.pop(min(evicted, len(reservoir) - 1))
            reservoir.append(row_id)
    members = set(reservoir)

    fresh = np.asarray(
        sorted(row_id for row_id in members if row_id not in labeled.outcomes),
        dtype=np.intp,
    )
    outcomes: Dict[int, bool] = {
        row_id: outcome
        for row_id, outcome in labeled.outcomes.items()
        if row_id in members
    }
    return outcomes, fresh
