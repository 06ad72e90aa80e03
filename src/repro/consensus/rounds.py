"""One RPCA round: deliberation, close, validation.

The round engine follows the protocol of the Ripple consensus white paper
([6] in the paper):

1. every participating validator enters with a *candidate set* of pending
   transactions it has seen;
2. validators exchange proposals over several iterations; at each iteration
   a validator keeps only transactions supported by at least an escalating
   threshold (50 %, 55 %, 60 %, 65 %) of the proposals delivered from its
   UNL;
3. each validator closes the resulting set into a ledger page and signs a
   validation for the page hash;
4. the page becomes *fully validated* when at least 80 % of the master UNL
   signed the same hash — these are the "valid pages" of Fig. 2.

Forked validators (private ledgers, the test-net) run their own instance:
they sign pages of their own chain every round; those hashes never match
the main ledger, reproducing the zero-valid-page bars of Fig. 2.  Lagging
validators frequently sign stale pages that likewise do not match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.consensus.faults import Behaviour, RoundFaults
from repro.consensus.network import NetworkModel
from repro.consensus.proposals import Validation
from repro.consensus.unl import UNL
from repro.consensus.validator import Validator
from repro.ledger.hashing import ledger_page_hash, tx_set_hash

#: Escalating agreement thresholds of the deliberation phase.
DEFAULT_THRESHOLDS: Tuple[float, ...] = (0.50, 0.55, 0.60, 0.65)
#: Fraction of the master UNL that must sign a page for full validation.
DEFAULT_QUORUM = 0.80
#: A byzantine position is a random half of the pool, redrawn after every
#: deliberation iteration.
BYZANTINE_RECEIVE = 0.5


def page_hash_for(sequence: int, parent_hash: bytes, close_time: int, tx_set: FrozenSet[bytes]) -> bytes:
    """Hash of the page a validator closes for ``tx_set``."""
    header = b"|".join(
        [
            sequence.to_bytes(8, "big"),
            parent_hash,
            close_time.to_bytes(8, "big"),
            tx_set_hash(sorted(tx_set)),
        ]
    )
    return ledger_page_hash(header)


@dataclass
class RoundOutcome:
    """Everything observable about one consensus round."""

    round_index: int
    sequence: int
    close_time: int
    validations: List[Validation] = field(default_factory=list)
    validated_hash: Optional[bytes] = None
    validated_tx_set: FrozenSet[bytes] = frozenset()
    agreement: float = 0.0
    participants: List[str] = field(default_factory=list)
    #: The page with the most master-UNL votes, even below quorum — what a
    #: degraded node seals when full validation is unreachable.
    plurality_hash: Optional[bytes] = None
    plurality_tx_set: FrozenSet[bytes] = frozenset()

    @property
    def validated(self) -> bool:
        return self.validated_hash is not None


def draw_positions(
    odds: Sequence[float], pool_size: int, rng: np.random.Generator
) -> np.ndarray:
    """0/1 positions over the sorted pool: row ``k`` holds each transaction
    with probability ``odds[k]``.

    One ``(rows, pool_size)`` draw consumes the generator exactly as one
    ``pool_size`` draw per row in row order, and an empty pool draws
    nothing.
    """
    return (
        rng.random((len(odds), pool_size)) < np.array(odds)[:, None]
    ).astype(np.int64)


def deliberate(
    main: Sequence[Validator],
    byzantine: Sequence[bool],
    positions: np.ndarray,
    delivered: np.ndarray,
    stale: FrozenSet[str],
    thresholds: Sequence[float],
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """The main net's deliberation, one integer product per threshold.

    ``positions`` holds the candidate sets the validators enter with, as a
    ``len(main) × pool size`` 0/1 integer matrix over the sorted pool.
    ``counted[i, j]`` says speaker ``i``'s proposal was ``delivered`` to
    listener ``j`` and ``i`` is on ``j``'s UNL.  At each threshold,
    listener ``j`` keeps a transaction when at least ``threshold`` of its
    voters propose it: the counted speakers plus itself, counted once with
    its *current* position even when it is stale or absent from its own
    UNL.  From the second iteration on, ``stale`` speakers (delayed or
    reordered on the wire) are heard with their previous-iteration
    positions.  ``byzantine`` validators redraw a random position after
    every iteration, in roster order.

    Returns the final positions and, per listener, the UNL proposals it
    heard before close (itself included when it is on its own UNL).
    """
    pool_size = positions.shape[1]
    trusts = np.array(
        [[v.name in listener.unl.members for listener in main] for v in main],
        dtype=bool,
    )
    counted = (delivered & trusts).astype(np.int64)
    peers = counted.sum(axis=0)
    # A transaction nobody proposes is never kept, even at threshold 0.
    needed = [np.maximum(t * (peers + 1) - 1e-9, 1)[:, None] for t in thresholds]
    is_stale = np.array([v.name in stale for v in main], dtype=bool)[:, None]
    redraw = [k for k, byz in enumerate(byzantine) if byz]
    redraw_odds = [BYZANTINE_RECEIVE] * len(redraw)
    lagged = positions
    for floor in needed:
        spoken = np.where(is_stale, lagged, positions) if stale else positions
        support = counted.T @ spoken + positions
        lagged = positions
        positions = (support >= floor).astype(np.int64)
        # Byzantine validators keep injecting disagreement.
        if redraw:
            positions[redraw] = draw_positions(redraw_odds, pool_size, rng)
    self_heard = np.array([v.name in v.unl.members for v in main], dtype=np.int64)
    return positions, peers + self_heard


def run_round(
    round_index: int,
    sequence: int,
    parent_hashes: Dict[int, bytes],
    close_time: int,
    tx_pool: FrozenSet[bytes],
    validators: Sequence[Validator],
    master_unl: UNL,
    network: NetworkModel,
    rng: np.random.Generator,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    quorum: float = DEFAULT_QUORUM,
    sign_pages: bool = False,
    faults: Optional[RoundFaults] = None,
) -> RoundOutcome:
    """Run one full consensus round and return its outcome.

    ``parent_hashes`` maps network id -> hash of that instance's current
    head; the function mutates nothing — the engine owns chain state.

    ``faults`` carries the chaos directives for this round (see
    :class:`repro.consensus.faults.RoundFaults`).  ``None`` runs the exact
    pre-chaos code path with the exact same randomness consumption.
    """
    outcome = RoundOutcome(
        round_index=round_index, sequence=sequence, close_time=close_time
    )
    candidates = validators
    if faults is not None and faults.crashed:
        candidates = [v for v in validators if v.name not in faults.crashed]
    participants = [v for v in candidates if v.participates(round_index, rng)]
    outcome.participants = [v.name for v in participants]
    if not participants:
        return outcome

    main = [v for v in participants if v.network_id == 0]
    behaviours = [
        faults.behaviour_of(v) if faults is not None else v.behaviour
        for v in main
    ]
    pool = sorted(tx_pool)

    # --- Deliberation on the main net ------------------------------------
    if main:
        byzantine = [b is Behaviour.BYZANTINE for b in behaviours]
        positions = draw_positions(
            [
                BYZANTINE_RECEIVE if byz else v.receive_probability
                for v, byz in zip(main, byzantine)
            ],
            len(pool),
            rng,
        )
        if faults is not None and (faults.extra_loss or faults.blocked):
            delivered = network.delivery_array(
                main, rng, extra_loss=faults.extra_loss, blocked=faults.blocked
            )
        else:
            delivered = network.delivery_array(main, rng)
        positions, heard = deliberate(
            main,
            byzantine,
            positions,
            delivered,
            faults.stale if faults is not None else frozenset(),
            thresholds,
            rng,
        )
        rows, heard = positions.tolist(), heard.tolist()

    # --- Close and validate -----------------------------------------------
    # A healthy validator only declares consensus when it actually heard
    # proposals from a quorum of its UNL (rippled's minimum consensus
    # percentage) — this is what halts a partitioned network.  Lagging,
    # offline, and byzantine validators sign anyway: desynchronized and
    # misbehaving servers emitting validations for pages nobody else has
    # are exactly the zero-valid bars of Fig. 2.
    parent_main = parent_hashes.get(0, b"\x00" * 32)
    equivocating: FrozenSet[str] = (
        faults.equivocating if faults is not None else frozenset()
    )
    page_of: Dict[str, bytes] = {}
    tx_set_of: Dict[str, FrozenSet[bytes]] = {}
    synced_pages: Dict[FrozenSet[bytes], bytes] = {}
    for k, validator in enumerate(main):
        if validator.name in equivocating:
            continue
        requires_quorum = behaviours[k] is Behaviour.ACTIVE
        if requires_quorum and heard[k] < quorum * len(validator.unl):
            continue
        final_set = frozenset(compress(pool, rows[k]))
        in_sync = rng.random() < validator.profile.sync_quality
        if in_sync:
            # Validators that agree close the same page: hash it once.
            page = synced_pages.get(final_set)
            if page is None:
                page = synced_pages[final_set] = page_hash_for(
                    sequence, parent_main, close_time, final_set
                )
        else:
            # A stale close: the validator is still working on an older
            # parent, so its page hash diverges from everyone else's.
            stale_parent = ledger_page_hash(
                b"stale|" + validator.name.encode() + sequence.to_bytes(8, "big")
            )
            page = page_hash_for(sequence, stale_parent, close_time, final_set)
        page_of[validator.name] = page
        tx_set_of[validator.name] = final_set
        outcome.validations.append(
            validator.make_validation(sequence, page, close_time, sign=sign_pages)
        )

    # Equivocators sign a validation for *every* distinct page their honest
    # peers closed this round, instead of closing one of their own — the
    # vote-splitting move of the cited safety analyses: each side of a
    # divided network sees the equivocators complete its own quorum.
    if equivocating:
        distinct_pages = sorted(set(page_of.values()))
        for validator in main:
            if validator.name not in equivocating:
                continue
            for page in distinct_pages:
                outcome.validations.append(
                    validator.make_validation(
                        sequence, page, close_time, sign=sign_pages
                    )
                )

    # Forked instances close their own page per round; everyone on the same
    # fork signs the same (non-main) hash.
    forks = [v for v in participants if v.network_id != 0]
    fork_pages: Dict[int, bytes] = {}
    for validator in forks:
        net = validator.network_id
        if net not in fork_pages:
            parent = parent_hashes.get(net, b"\x00" * 32)
            fork_pages[net] = page_hash_for(
                sequence, parent, close_time, frozenset({b"fork%d" % net})
            )
        outcome.validations.append(
            validator.make_validation(
                sequence, fork_pages[net], close_time, sign=sign_pages
            )
        )

    # --- Full validation check against the master UNL ----------------------
    votes: Dict[bytes, int] = {}
    for validation in outcome.validations:
        if validation.validator in master_unl:
            votes[validation.page_hash] = votes.get(validation.page_hash, 0) + 1
    if votes:
        best_hash, best_count = max(votes.items(), key=lambda kv: kv[1])
        outcome.agreement = best_count / len(master_unl)
        # The plurality page is recorded even below quorum: a degraded node
        # seals it (validated=False) when full validation is unreachable.
        outcome.plurality_hash = best_hash
        for name, page in page_of.items():
            if page == best_hash:
                outcome.plurality_tx_set = tx_set_of[name]
                break
        if best_count >= master_unl.quorum_size(quorum):
            outcome.validated_hash = best_hash
            outcome.validated_tx_set = outcome.plurality_tx_set
    return outcome
