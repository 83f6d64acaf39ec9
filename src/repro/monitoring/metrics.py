"""Application-level metrics: response times, throughput, error ratios.

Mulini parameterizes the workload driver "to collect specified metrics,
such as response time for each user request and overall throughput"
(Section II).  This module is both sides of that pipe: it renders the
driver's per-request log from simulation records and summarizes either
records or a parsed log into trial metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import MonitoringError
from repro.sim.ntier import OK, REJECTED, TIMEOUT


@dataclass(frozen=True)
class TrialMetrics:
    """Summary statistics for one trial's run window."""

    completed: int
    errors: int
    timeouts: int
    rejections: int
    duration_s: float
    throughput: float            # successful requests per second
    mean_response_s: float
    p50_response_s: float
    p90_response_s: float
    p99_response_s: float
    #: Open-loop queue growth: requests that arrived inside the window
    #: but had not left by its end.  Bounded by the population for
    #: closed-loop trials; grows without bound when an open-loop
    #: arrival process outruns the system.
    backlog: int = 0

    @property
    def total(self):
        return self.completed + self.errors

    @property
    def error_ratio(self):
        if self.total == 0:
            return 0.0
        return self.errors / self.total


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, math.ceil(fraction * len(sorted_values)) - 1))
    return sorted_values[index]


def backlog_size(records, window):
    """Queue growth over *window*: arrivals minus departures, floored
    at zero.  In-flight records (NaN finish) count as arrivals that
    never departed, which is exactly the open-loop overload signal."""
    start, end = window
    issued = finished = 0
    for record in records:
        if start <= record.issued_at <= end:
            issued += 1
        done = record.finished_at
        if done == done and start <= done <= end:
            finished += 1
    return max(0, issued - finished)


def summarize_records(records, window):
    """Summarize simulation RequestRecords finishing inside *window*."""
    start, end = window
    if end <= start:
        raise MonitoringError(f"empty measurement window {window}")
    ok_times = []
    timeouts = 0
    rejections = 0
    for record in records:
        finished = record.finished_at
        if finished != finished:      # NaN: still in flight at sim end
            continue
        if not start <= finished <= end:
            continue
        if record.status == OK:
            ok_times.append(record.response_time())
        elif record.status == TIMEOUT:
            timeouts += 1
        elif record.status == REJECTED:
            rejections += 1
        else:
            raise MonitoringError(f"unknown record status {record.status!r}")
    ok_times.sort()
    duration = end - start
    completed = len(ok_times)
    mean = sum(ok_times) / completed if completed else 0.0
    return TrialMetrics(
        completed=completed,
        errors=timeouts + rejections,
        timeouts=timeouts,
        rejections=rejections,
        duration_s=duration,
        throughput=completed / duration,
        mean_response_s=mean,
        p50_response_s=_percentile(ok_times, 0.50),
        p90_response_s=_percentile(ok_times, 0.90),
        p99_response_s=_percentile(ok_times, 0.99),
        backlog=backlog_size(records, window),
    )


def summarize_by_state(records, window):
    """Per-interaction breakdown inside *window*.

    Returns ``{state: {"count", "errors", "mean_response_s"}}`` over
    requests finishing in the window — the per-request measurements the
    driver collects, grouped by the 26/24 interaction states.
    """
    start, end = window
    if end <= start:
        raise MonitoringError(f"empty measurement window {window}")
    by_state = {}
    for record in records:
        finished = record.finished_at
        if finished != finished or not start <= finished <= end:
            continue
        bucket = by_state.setdefault(
            record.state, {"count": 0, "errors": 0, "_rt_sum": 0.0})
        if record.status == OK:
            bucket["count"] += 1
            bucket["_rt_sum"] += record.response_time()
        else:
            bucket["errors"] += 1
    for state, bucket in by_state.items():
        count = bucket["count"]
        bucket["mean_response_s"] = bucket.pop("_rt_sum") / count \
            if count else 0.0
    return by_state


# --------------------------------------------------------------------------
# Driver request log: the artifact collect.sh ships to the control host.
# --------------------------------------------------------------------------

LOG_HEADER = "#requests issued_at state status response_ms"


def render_request_log(records, window=None):
    """Render per-request driver log lines from simulation records.

    With *window*, a ``#backlog N`` trailer records the queue growth
    over the measurement window — the only observation that in-flight
    records (which the per-line body necessarily omits) contribute, so
    it must be stamped at render time while they are still visible.
    """
    lines = [LOG_HEADER]
    for record in records:
        finished = record.finished_at
        if finished != finished:
            continue                   # in flight when the trial ended
        response_ms = record.response_time() * 1000.0
        lines.append(
            f"{record.issued_at:.4f} {record.state} {record.status} "
            f"{response_ms:.2f}"
        )
    if window is not None:
        lines.append(f"#backlog {backlog_size(records, window)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LoggedRequest:
    issued_at: float
    state: str
    status: str
    response_s: float

    @property
    def finished_at(self):
        return self.issued_at + self.response_s


def parse_request_log(text):
    """Parse a driver request log back into :class:`LoggedRequest`s."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#requests"):
        raise MonitoringError("not a driver request log")
    requests = []
    for line in lines[1:]:
        line = line.strip()
        if not line or line.startswith("#"):
            continue                  # trailer comments (e.g. #backlog)
        parts = line.split()
        if len(parts) != 4:
            raise MonitoringError(f"malformed log line: {line!r}")
        requests.append(LoggedRequest(
            issued_at=float(parts[0]),
            state=parts[1],
            status=parts[2],
            response_s=float(parts[3]) / 1000.0,
        ))
    return requests


class _RecordView:
    """Adapter: a LoggedRequest exposed with the RequestRecord surface."""

    __slots__ = ("state", "status", "issued_at", "finished_at")

    def __init__(self, logged):
        self.state = logged.state
        self.status = logged.status
        self.issued_at = logged.issued_at
        self.finished_at = logged.finished_at

    def response_time(self):
        return self.finished_at - self.issued_at


def parse_log_backlog(text):
    """The ``#backlog N`` trailer of a request log, or ``None`` when
    the log predates the open-loop plane.

    :func:`render_request_log` writes the trailer last, so only the
    last non-empty line is read; the body is never split."""
    end = len(text)
    while end and text[end - 1] == "\n":
        end -= 1
    line = text[text.rfind("\n", 0, end) + 1:end]
    if not line.startswith("#backlog "):
        return None
    try:
        return int(line.split()[1])
    except (IndexError, ValueError):
        raise MonitoringError(
            f"malformed backlog trailer: {line!r}"
        ) from None


def _record_views(text):
    """Parse a collected request log into RequestRecord-shaped views."""
    return [_RecordView(r) for r in parse_request_log(text)]


def _summarize_views(records, text, window):
    metrics = summarize_records(records, window)
    recorded = parse_log_backlog(text)
    if recorded is not None and recorded != metrics.backlog:
        metrics = replace(metrics, backlog=recorded)
    return metrics


def summarize_log(text, window):
    """Summarize a collected request log over *window*.

    The backlog comes from the log's own trailer when present — the
    rendered body omits in-flight requests, so recomputing from parsed
    lines alone would undercount open-loop queue growth.
    """
    return _summarize_views(_record_views(text), text, window)


def summarize_log_by_state(text, window):
    """Per-interaction breakdown of a collected request log."""
    return summarize_by_state(_record_views(text), window)


def summarize_collected_log(text, window):
    """Both summaries of one collected request log from a single parse:
    ``(summarize_log(text, window), summarize_log_by_state(text,
    window))``."""
    records = _record_views(text)
    return (_summarize_views(records, text, window),
            summarize_by_state(records, window))
