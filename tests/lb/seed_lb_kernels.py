"""Frozen per-row migration accounting of the centralized LB step (test oracle).

``_migration`` below is the per-step migration accounting of
:class:`repro.lb.centralized.CentralizedLoadBalancer` exactly as it was
before the LB steps of several replicas were accounted in one batched pass
(``repro.lb.centralized._migrated_loads``).  It is kept, unchanged, only as
the reference the batched accounting must match bit for bit
(``test_batched_lb_step.py``).  It is not part of the package.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.partitioning.stripe import StripePartition


def _migration(
    loads: np.ndarray,
    old_partition: Optional[StripePartition],
    new_partition: StripePartition,
) -> "tuple[float, np.ndarray]":
    """Migrated load and per-PE migration volume of one repartitioning.

    The total equals ``partitioning.metrics.migration_volume``; a PE's
    volume is the load of the columns it sends plus the load of the
    columns it receives (both cross its NIC).  Without an
    ``old_partition`` every cell counts as moved, spread evenly.
    """
    num_pes = new_partition.num_pes
    if old_partition is None:
        migrated = float(loads.sum())
        return migrated, np.full(num_pes, migrated / num_pes)
    if old_partition.num_columns != new_partition.num_columns:
        raise ValueError(
            "current_partition does not cover the same number of "
            "columns as the new partition"
        )
    old_owners = old_partition.partition.owners()
    new_owners = new_partition.partition.owners()
    moved = old_owners != new_owners
    moved_loads = loads[moved]
    sent = np.bincount(old_owners[moved], weights=moved_loads, minlength=num_pes)
    received = np.bincount(new_owners[moved], weights=moved_loads, minlength=num_pes)
    return float(moved_loads.sum()), sent + received
