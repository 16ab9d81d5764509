"""Measurement: throughput meters, latency stats, tile utilization and
resilience (MTTR / goodput under faults / drop taxonomy).  Confidence
intervals have one model: :func:`repro.parallel.manyworlds.envelope`."""

from repro.metrics.throughput import ThroughputMeter
from repro.metrics.latency import LatencyStats
from repro.metrics.utilization import UtilizationSummary, summarize_trace
from repro.metrics.resilience import RecoveryRecord, ResilienceMetrics

__all__ = [
    "ThroughputMeter",
    "LatencyStats",
    "UtilizationSummary",
    "summarize_trace",
    "RecoveryRecord",
    "ResilienceMetrics",
]
