"""A full simulated rippled node: submission, consensus, application, chain.

``RippledNode`` wires every substrate together the way a real server does:

1. clients **submit** signed transactions; the node runs the static and
   signature prechecks and queues survivors in the open-ledger pool;
2. each **consensus round** proposes the pool to the validator network;
   the agreed transaction set comes back from RPCA;
3. agreed transactions are **applied in canonical order** (sorted by hash,
   rippled's deterministic shuffle) against the ledger state — including
   ``tec`` failures, which claim their fee and their ledger slot;
4. the applied set is **sealed** into a new ledger page whose close time
   is the authoritative payment timestamp — the exact field the paper's
   de-anonymization study reads off the public ledger.

The node has real resilience semantics: a failed consensus round is
retried under a :class:`RetryPolicy` (exponential backoff with jitter in
simulated time), and when retries are exhausted an opt-in *degraded mode*
seals the plurality page off a reduced quorum, recording
``validated=False`` ledgers exactly as the paper's forked validators
produce pages that never enter the main chain.

This is the component a downstream user scripts against when they want the
whole system rather than one substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.consensus.engine import ConsensusEngine
from repro.consensus.faults import active
from repro.consensus.network import NetworkModel
from repro.consensus.rounds import RoundOutcome
from repro.consensus.unl import UNL
from repro.consensus.validator import Validator
from repro.errors import ConsensusError
from repro.ledger.apply import ApplyCode, AppliedTransaction, TransactionApplier
from repro.ledger.pages import LedgerChain, LedgerPage
from repro.ledger.state import LedgerState
from repro.ledger.transactions import Payment, Transaction
from repro.obs.manifest import RUN


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and jitter.

    The node retries failed consensus rounds under it, in *simulated*
    seconds: it advances the engine's close clock while it waits, so
    retried rounds carry realistic close-time gaps (the paper reads
    payment timestamps off close times).  The shard engine and the ingest
    supervisor reuse the same budget and delay formula.
    """

    max_retries: int = 3
    base_backoff: float = 2.0
    multiplier: float = 2.0
    max_backoff: float = 60.0
    #: Fractional jitter: each backoff is scaled by 1 ± jitter.
    jitter: float = 0.25

    def backoff(self, attempt: int, rng: np.random.Generator) -> float:
        """Delay before retry number ``attempt + 1``, in the caller's unit.

        The node reads it as simulated seconds (rounded to a whole
        second, at least one), the shard engine as milliseconds and the
        ingest supervisor as real seconds.
        """
        delay = min(self.max_backoff, self.base_backoff * self.multiplier ** attempt)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return max(0.0, delay)


@dataclass
class ClosedLedger:
    """One sealed ledger: the page plus per-transaction apply outcomes.

    ``validated=False`` marks a degraded close: the page was sealed from a
    plurality position without reaching the full validation quorum, so it
    never enters the main chain's validated history.
    """

    page: LedgerPage
    applied: List[AppliedTransaction] = field(default_factory=list)
    validated: bool = True

    @property
    def success_count(self) -> int:
        return sum(1 for item in self.applied if item.succeeded)


def default_validators(count: int = 5) -> List[Validator]:
    """A healthy in-process validator set for single-node simulations."""
    names = [f"validator-{i}" for i in range(count)]
    unl = UNL.of(names)
    return [Validator(name, unl, active(availability=1.0)) for name in names]


class RippledNode:
    """The end-to-end server facade."""

    def __init__(
        self,
        state: Optional[LedgerState] = None,
        validators: Optional[Sequence[Validator]] = None,
        require_signatures: bool = True,
        network: Optional[NetworkModel] = None,
        seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        allow_degraded: bool = False,
        degraded_quorum: float = 0.4,
        chaos: Optional[object] = None,
    ):
        self.state = state if state is not None else LedgerState()
        self.applier = TransactionApplier(
            self.state, require_signatures=require_signatures
        )
        roster = list(validators) if validators is not None else default_validators()
        self.consensus = ConsensusEngine(
            roster,
            network=network or NetworkModel(),
            seed=seed,
            keep_outcomes=True,
            chaos=chaos,
        )
        self.chain = LedgerChain.with_genesis()
        self.retry = retry if retry is not None else RetryPolicy()
        self.allow_degraded = allow_degraded
        self.degraded_quorum = degraded_quorum
        #: Backoff jitter draws come from a dedicated generator so retries
        #: never perturb the consensus engine's random stream.
        self._retry_rng = np.random.default_rng(seed ^ 0x5EED)
        #: open-ledger pool: tx hash -> transaction awaiting consensus.
        self.pool: Dict[bytes, Transaction] = {}
        self.closed_ledgers: List[ClosedLedger] = []
        #: submissions rejected before reaching the pool, for diagnostics.
        self.rejected: List[AppliedTransaction] = []
        #: Fully validated page hashes, i.e. the node's view of the main
        #: chain — degraded closes never appear here.
        self.validated_hashes: List[bytes] = []
        # Resilience counters; each event is also tallied in RUN.
        self.round_retries = 0
        self.degraded_closes = 0
        self.failed_closes = 0

    # Submission -------------------------------------------------------------------

    def submit(self, tx: Transaction) -> ApplyCode:
        """Precheck a transaction and queue it for the next close.

        Mirrors a server's submission path: ``tem``/``tef`` rejections never
        enter the pool; retryable and fundable transactions wait for
        consensus.
        """
        failure = self.applier._precheck(tx)
        if failure is not None and not failure.retryable and failure is not (
            ApplyCode.FUTURE_SEQUENCE
        ):
            if failure in (
                ApplyCode.MALFORMED,
                ApplyCode.BAD_SIGNATURE,
                ApplyCode.PAST_SEQUENCE,
            ):
                self.rejected.append(AppliedTransaction(tx, failure))
                return failure
        self.pool[tx.tx_hash] = tx
        return ApplyCode.SUCCESS

    @property
    def pool_size(self) -> int:
        return len(self.pool)

    # Consensus & close ---------------------------------------------------------------

    def close_ledger(self) -> Optional[ClosedLedger]:
        """Run consensus over the pool and seal the agreed set.

        A round that misses the validation quorum is retried under the
        node's :class:`RetryPolicy`, backing off in simulated time.  When
        retries are exhausted: with ``allow_degraded`` the node seals the
        plurality page anyway (``validated=False``) provided its agreement
        reached ``degraded_quorum``; otherwise returns None and the pool
        is retained for the next close.
        """
        pool_snapshot = dict(self.pool)

        def tx_supplier(_round, _rng):
            return frozenset(pool_snapshot.keys())

        outcome = self._consensus_with_retry(tx_supplier)
        if outcome.validated:
            agreed_set = outcome.validated_tx_set
            validated = True
        elif (
            self.allow_degraded
            and outcome.plurality_hash is not None
            and outcome.agreement >= self.degraded_quorum
        ):
            # Degraded close: seal the best-supported page off the reduced
            # quorum.  The page never enters the validated main chain —
            # the same observable the paper's forked validators produce.
            agreed_set = outcome.plurality_tx_set
            validated = False
            self.degraded_closes += 1
            RUN.count("node.degraded_closes")
        else:
            self.failed_closes += 1
            RUN.count("node.failed_closes")
            return None

        agreed = [
            (tx_hash, pool_snapshot[tx_hash])
            for tx_hash in agreed_set
            if tx_hash in pool_snapshot
        ]
        # Canonical application order: deterministic across all servers.
        agreed.sort(key=lambda item: item[0])

        applied: List[AppliedTransaction] = []
        recorded: List[Transaction] = []
        for pool_key, tx in agreed:
            # Signed transactions are immutable: their timestamp is the
            # close time of the page that seals them (exactly how the
            # paper's study derives the T feature from the public ledger).
            result = self.applier.apply(tx)
            applied.append(result)
            if result.code.applied_to_ledger:
                recorded.append(tx)
            self.pool.pop(pool_key, None)
        # Transactions the network agreed on but we never saw stay pooled
        # on other servers; transactions left in our pool retry next round.

        page = self.chain.seal(recorded, close_time=outcome.close_time)
        closed = ClosedLedger(page=page, applied=applied, validated=validated)
        self.closed_ledgers.append(closed)
        if validated:
            self.validated_hashes.append(outcome.validated_hash)
        return closed

    def _consensus_with_retry(self, tx_supplier) -> RoundOutcome:
        """Run rounds until one validates or the retry budget is spent.

        Returns the last outcome either way; the caller decides whether a
        non-validated outcome becomes a degraded close or a failed one.
        """
        attempts = self.retry.max_retries + 1
        outcome: RoundOutcome
        for attempt in range(attempts):
            report = self.consensus.run(1, tx_supplier=tx_supplier)
            outcome = report.outcomes[-1]
            if outcome.validated:
                return outcome
            if attempt + 1 < attempts:
                self.round_retries += 1
                RUN.count("node.round_retries")
                # Exponential backoff with jitter, in simulated time: the
                # close clock advances in whole seconds while the node
                # waits to retry.
                delay = self.retry.backoff(attempt, self._retry_rng)
                self.consensus.close_time += max(1, int(round(delay)))
        return outcome

    def run(self, rounds: int) -> List[ClosedLedger]:
        """Close up to ``rounds`` ledgers; skipped rounds retry the pool."""
        if rounds <= 0:
            raise ConsensusError("rounds must be positive")
        closed = []
        for _ in range(rounds):
            ledger = self.close_ledger()
            if ledger is not None:
                closed.append(ledger)
        return closed

    # Introspection ----------------------------------------------------------------------

    def transaction_history(self) -> List[Transaction]:
        """Every transaction recorded in the chain, in order."""
        return [tx for _page, tx in self.chain.iter_transactions()]

    def apply_outcome_of(self, tx_hash: bytes) -> Optional[AppliedTransaction]:
        for ledger in self.closed_ledgers:
            for item in ledger.applied:
                if item.transaction.tx_hash == tx_hash:
                    return item
        return None
