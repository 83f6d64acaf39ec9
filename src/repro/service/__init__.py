"""The campaign service plane: campaigns as schedulable service units.

Instead of one CLI invocation per campaign — each building and tearing
down its own scheduler, caches, and results database — the service
plane runs a long-lived :class:`CampaignController` (``repro serve``)
that accepts submit/status/cancel/resume requests over a local HTTP
API and executes every accepted campaign on one shared
:class:`WorkerFleet`:

- **fair-share scheduling**: the fleet admits work round-robin over
  the attached campaigns' task queues whenever a batch is enqueued or
  a task completes, honouring each campaign's ``jobs`` ceiling and the
  fleet-wide worker count, with admission backpressure when the
  controller's queue is full;
- **tenant-shared caches**: the hot-path caching plane is shared by
  every campaign, with per-campaign hit/miss attribution
  (``hotpath.stats(tenant=...)``);
- **sharded results**: each campaign's write-behind ingest lands in
  its own shard database, feeding a :class:`StreamingAggregator`; a
  finished, verified shard is renamed onto the campaign's final path,
  byte-identical to a sequential CLI run's database.

The DiPerF-style controller/tester split, applied to observation
campaigns: the controller coordinates, the fleet measures.
"""

from repro.service.aggregate import StreamingAggregator
from repro.service.client import CampaignClient
from repro.service.controller import (
    CAMPAIGN_STATES,
    CampaignController,
    CampaignRecord,
)
from repro.service.fleet import FleetLease, WorkerFleet
from repro.service.http import ServiceDaemon, serve

__all__ = [
    "CAMPAIGN_STATES",
    "CampaignClient",
    "CampaignController",
    "CampaignRecord",
    "FleetLease",
    "ServiceDaemon",
    "StreamingAggregator",
    "WorkerFleet",
    "serve",
]
