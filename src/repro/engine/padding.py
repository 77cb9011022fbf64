"""Padding mode (Sections 2.3 and 7.1).

When intermediate or final result sizes are themselves sensitive, ObliDB
can pad every intermediate and final result to a configured bound and skip
query optimisation entirely (the planner's algorithm choice would otherwise
leak result sizes).  Under padding the adversary learns only the logical
plan and the public padding parameters.

The executor consults a :class:`PaddingConfig`:

* selections always run the Hash algorithm with ``pad_rows`` as the output
  size (a fixed structure of 5·pad_rows slots), and indexes are never
  used: their benefit is knowing the selectivity padding hides;
* grouped aggregations pad their output to ``pad_groups`` rows — the paper
  pads "to the maximum supported number of groups", which is what made the
  padded aggregate 4.4× slower versus 2.4× for the padded select.  The plan
  records ``pad_groups`` as the GROUP BY's ``output_rows``, and more real
  groups than that raise :class:`~repro.enclave.errors.StorageError` on
  every path: into the output table (before any write), over a join's
  output held in the enclave, and through the sorted fallback when the
  group table does not fit;
* joins are planned as without padding, and may be held in the enclave:
  every join's output structure (one slot per probe, the padded union, or
  |T2| held rows) is already a pure function of input sizes, so there is
  nothing left to pad.  :meth:`PaddingConfig.check_fits` bounds the rows
  a join or selection returns by ``pad_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..enclave.errors import QueryError


@dataclass(frozen=True)
class PaddingConfig:
    """Public padding bounds; choosing them is an application decision."""

    pad_rows: int
    pad_groups: int

    def __post_init__(self) -> None:
        if self.pad_rows < 1 or self.pad_groups < 1:
            raise QueryError("padding bounds must be positive")

    def check_fits(self, actual_rows: int) -> None:
        """Padding must dominate the real size or results would truncate."""
        if actual_rows > self.pad_rows:
            raise QueryError(
                f"result of {actual_rows} rows exceeds padding bound "
                f"{self.pad_rows}; raise PaddingConfig.pad_rows"
            )
