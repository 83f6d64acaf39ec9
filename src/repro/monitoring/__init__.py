"""Monitoring: sysstat emitters, collectors and application metrics."""

from repro.monitoring.collector import (
    SysstatSeries,
    collect_sysstat_files,
    collected_bytes,
    parse_sysstat,
)
from repro.monitoring.metrics import (
    LoggedRequest,
    TrialMetrics,
    parse_request_log,
    render_request_log,
    summarize_by_state,
    summarize_collected_log,
    summarize_log,
    summarize_log_by_state,
    summarize_records,
)
from repro.monitoring.sysstat import (
    HostSampler,
    SysstatEmitter,
    attach_monitors,
)

__all__ = [
    "SysstatSeries",
    "collect_sysstat_files",
    "collected_bytes",
    "parse_sysstat",
    "LoggedRequest",
    "TrialMetrics",
    "parse_request_log",
    "render_request_log",
    "summarize_by_state",
    "summarize_collected_log",
    "summarize_log",
    "summarize_log_by_state",
    "summarize_records",
    "HostSampler",
    "SysstatEmitter",
    "attach_monitors",
]
