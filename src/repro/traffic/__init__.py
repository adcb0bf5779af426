"""Data-plane traffic over the GS3 structure.

Seeded workload generators (:mod:`repro.traffic.generators`) emit
timestamped :class:`Packet` schedules; an event-driven
:class:`ForwardingPlane` (:mod:`repro.traffic.plane`) hops them through
the radio — loss, jams, jitter, and mid-flight healing included — under
either the paper's cell-by-cell router or the mesh-first tree-fallback
:class:`~repro.routing.HybridRouter`; and the report layer
(:mod:`repro.traffic.report`) folds terminal outcomes incrementally
into delivery / delay / stretch / hotspot metrics that are
byte-identical at every worker and shard count.  For volume runs,
:mod:`repro.traffic.stream` spills hop and terminal records to
crash-tolerant JSONL batches instead of holding them in memory.
"""

from .generators import TrafficConfig, generate_workload
from .packets import DataFrame, Packet, TERMINAL_OUTCOMES
from .plane import ForwardingPlane, InFlightTable
from .report import (
    TrafficFold,
    fold_traffic_report,
    percentile,
)
from .runner import (
    run_traffic_campaigns,
    run_traffic_replicate,
    summarize_traffic,
)
from .stream import HopLog, JsonlRecordStream

__all__ = [
    "DataFrame",
    "ForwardingPlane",
    "HopLog",
    "InFlightTable",
    "JsonlRecordStream",
    "Packet",
    "TERMINAL_OUTCOMES",
    "TrafficConfig",
    "TrafficFold",
    "fold_traffic_report",
    "generate_workload",
    "percentile",
    "run_traffic_campaigns",
    "run_traffic_replicate",
    "summarize_traffic",
]
