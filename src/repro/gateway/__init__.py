"""``repro.gateway`` — the admission-controlled serving front door.

Production traffic control in front of :class:`repro.serve.ServeRuntime`:
per-tenant token-bucket rate limiting, bounded per-tenant queues and
deadline-aware shedding at the door, surfacing backpressure as 429 +
``Retry-After`` through the serve HTTP layer.  Admitted requests wait in
the runtime's one queue, in per-tenant lanes of two strict priority
bands (interactive over batch) with weighted fair shares, and a doomed
one is shed when a worker pops it.
"""

from ..serve.batcher import PRIORITIES, FairScheduler
from .gateway import Gateway, GatewayConfig, GatewayRejected
from .tenancy import (TenantConfig, TokenBucket, load_tenant_configs,
                      parse_tenant_spec)

__all__ = [
    "Gateway", "GatewayConfig", "GatewayRejected", "FairScheduler",
    "TenantConfig", "TokenBucket", "PRIORITIES",
    "parse_tenant_spec", "load_tenant_configs",
]
