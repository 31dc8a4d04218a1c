"""Deterministic simulator of rowhammer-based privilege escalation.

The package models the full attack environment at desk scale: DRAM
geometry with an invertible physical-to-cell mapping, conflict-gated
hammering against a seeded vulnerability map, a partitioned buddy
allocator, page-table spraying through double-owned device buffers, the
interleaved buffer/page-table placement, the row-buffer timing channel,
the corrupted-translation search with privilege escalation, and the
guard-row mitigation.  The harness runs seeded Monte-Carlo trials and
reports placement, flip, and footprint statistics as CSV.
"""

__version__ = "0.1.0"
