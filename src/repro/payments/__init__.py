"""The credit-network payment substrate.

Routing (trust graph + path finding), currency exchange (order books +
bridging), and atomic execution of payments against ledger state.
"""

from repro.payments.bridging import BridgePlan, BridgeStep, plan_bridge, plan_same_currency_detour
from repro.payments.engine import (
    FilteredTrustGraph,
    PaymentEngine,
    PaymentResult,
)
from repro.payments.execution import ExecutionOutcome, Executor
from repro.payments.graph import Edge, TrustGraph, path_bottleneck
from repro.payments.liquidity import (
    DeliverabilityReport,
    max_flow,
    relayer_removal_curve,
    sample_deliverability,
)
from repro.payments.orderbook import BookQuote, Fill, OrderBook
from repro.payments.pathfinding import (
    DEFAULT_MAX_INTERMEDIATE_HOPS,
    DEFAULT_MAX_PARALLEL_PATHS,
    PathPlan,
    plan_payment,
    shortest_path,
)

__all__ = [
    "BookQuote",
    "DeliverabilityReport",
    "max_flow",
    "relayer_removal_curve",
    "sample_deliverability",
    "BridgePlan",
    "BridgeStep",
    "DEFAULT_MAX_INTERMEDIATE_HOPS",
    "DEFAULT_MAX_PARALLEL_PATHS",
    "Edge",
    "ExecutionOutcome",
    "Executor",
    "Fill",
    "FilteredTrustGraph",
    "OrderBook",
    "PathPlan",
    "PaymentEngine",
    "PaymentResult",
    "TrustGraph",
    "path_bottleneck",
    "plan_bridge",
    "plan_payment",
    "plan_same_currency_detour",
    "shortest_path",
]
