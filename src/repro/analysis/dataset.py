"""Columnar view of a transaction history, for vectorized analytics.

The paper's pipeline processes 23M payments; per-record Python objects are
the wrong shape for that, so analyses operate on a ``TransactionDataset``:
numpy arrays with factorized account and currency identifiers.  Building
one from :class:`~repro.synthetic.records.TransactionRecord` lists is the
synthetic equivalent of the authors' extract-transform step over the raw
ledger.

Transaction kinds are factorized into ``int8`` codes plus a vocabulary,
so shipping a row slice to a worker moves one byte per row instead of a
Python string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.ledger.accounts import AccountID
from repro.obs.trace import span
from repro.synthetic.records import TransactionRecord


@dataclass
class TransactionDataset:
    """Payments as parallel numpy columns.

    ``accounts``/``currencies`` are the factorization dictionaries:
    ``sender_ids[i]`` indexes into ``accounts``, etc.  Only *delivered*
    payments are included by default — the public ledger's payment view.

    ``kind_codes`` is an ``int8`` column indexing into ``kind_vocab``
    (first-appearance order); the legacy string view is available through
    the :attr:`kinds` property.  The factorization *indexes* are built
    lazily on first lookup — analyses that only touch the numeric
    columns never pay for hashing every account.
    """

    accounts: Sequence[AccountID]
    currencies: List[str]
    timestamps: np.ndarray
    sender_ids: np.ndarray
    destination_ids: np.ndarray
    currency_ids: np.ndarray
    amounts: np.ndarray
    intermediate_hops: np.ndarray
    parallel_paths: np.ndarray
    is_xrp_direct: np.ndarray
    cross_currency: np.ndarray
    kind_codes: np.ndarray
    kind_vocab: List[str]
    _account_index: Dict[AccountID, int] = field(default_factory=dict, repr=False)
    _currency_index: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if len(self.timestamps) != len(self.sender_ids):
            raise AnalysisError("column length mismatch")
        if len(self.kind_codes) != len(self.timestamps):
            raise AnalysisError("column length mismatch")

    # Construction -----------------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Sequence[TransactionRecord],
        delivered_only: bool = True,
    ) -> "TransactionDataset":
        with span("etl.dataset"):
            return cls._from_records(records, delivered_only)

    @classmethod
    def _from_records(
        cls,
        records: Sequence[TransactionRecord],
        delivered_only: bool,
    ) -> "TransactionDataset":
        rows = [
            record
            for record in records
            if record.delivered or not delivered_only
        ]
        if not rows:
            raise AnalysisError("no transactions to build a dataset from")
        n = len(rows)

        # One interning pass in plain Python (dict hits dominate), then bulk
        # array assembly with np.fromiter — per-element numpy scalar stores
        # are ~10x slower than building the id lists first.  The pass keeps
        # the original sender-then-destination interning order per row, so
        # the factorization dictionaries are identical to the historical
        # per-row loop's.
        account_index: Dict[AccountID, int] = {}
        accounts: List[AccountID] = []
        currency_index: Dict[str, int] = {}
        currencies: List[str] = []
        kind_index: Dict[str, int] = {}
        kind_vocab: List[str] = []
        sender_list: List[int] = []
        destination_list: List[int] = []
        currency_list: List[int] = []
        kind_list: List[int] = []
        account_get = account_index.get
        currency_get = currency_index.get
        kind_get = kind_index.get
        for record in rows:
            sender = record.sender
            found = account_get(sender)
            if found is None:
                found = account_index[sender] = len(accounts)
                accounts.append(sender)
            sender_list.append(found)
            destination = record.destination
            found = account_get(destination)
            if found is None:
                found = account_index[destination] = len(accounts)
                accounts.append(destination)
            destination_list.append(found)
            code = record.currency
            found = currency_get(code)
            if found is None:
                found = currency_index[code] = len(currencies)
                currencies.append(code)
            currency_list.append(found)
            kind = record.kind
            found = kind_get(kind)
            if found is None:
                found = kind_index[kind] = len(kind_vocab)
                kind_vocab.append(kind)
            kind_list.append(found)
        if len(kind_vocab) > 127:
            raise AnalysisError("more than 127 payment kinds; int8 overflow")

        return cls(
            accounts=accounts,
            currencies=currencies,
            timestamps=np.fromiter(
                (r.timestamp for r in rows), dtype=np.int64, count=n
            ),
            sender_ids=np.array(sender_list, dtype=np.int64),
            destination_ids=np.array(destination_list, dtype=np.int64),
            currency_ids=np.array(currency_list, dtype=np.int64),
            amounts=np.fromiter(
                (r.amount for r in rows), dtype=np.float64, count=n
            ),
            intermediate_hops=np.fromiter(
                (r.intermediate_hops for r in rows), dtype=np.int64, count=n
            ),
            parallel_paths=np.fromiter(
                (r.parallel_paths for r in rows), dtype=np.int64, count=n
            ),
            is_xrp_direct=np.fromiter(
                (r.is_xrp_direct for r in rows), dtype=bool, count=n
            ),
            cross_currency=np.fromiter(
                (r.cross_currency for r in rows), dtype=bool, count=n
            ),
            kind_codes=np.array(kind_list, dtype=np.int8),
            kind_vocab=kind_vocab,
            _account_index=account_index,
            _currency_index=currency_index,
        )

    # Accessors --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def kinds(self) -> np.ndarray:
        """Row kinds as strings (``dtype=object``) — the legacy view.

        Materialized on demand from the ``int8`` codes; analyses that
        filter on kind (``dataset.kinds == "fiat"``) keep working, while
        everything that ships a dataset across a process boundary moves
        the one-byte codes instead of per-row Python strings.
        """
        if not self.kind_vocab:
            return np.empty(len(self.kind_codes), dtype=object)
        vocab = np.array(self.kind_vocab, dtype=object)
        return vocab[self.kind_codes]

    def account_id_of(self, account: AccountID) -> Optional[int]:
        index = self._account_index
        if not index and len(self.accounts):
            # Built in place: slices share this dict with their parent, so
            # one build serves every view of the same factorization.
            index.update(
                (account, position)
                for position, account in enumerate(self.accounts)
            )
        return index.get(account)

    def currency_code(self, currency_id: int) -> str:
        return self.currencies[currency_id]

    def mask_subset(self, mask: np.ndarray) -> "TransactionDataset":
        """A new dataset restricted to rows where ``mask`` is True."""
        if mask.shape != self.timestamps.shape:
            raise AnalysisError("mask shape mismatch")
        return TransactionDataset(
            accounts=self.accounts,
            currencies=self.currencies,
            timestamps=self.timestamps[mask],
            sender_ids=self.sender_ids[mask],
            destination_ids=self.destination_ids[mask],
            currency_ids=self.currency_ids[mask],
            amounts=self.amounts[mask],
            intermediate_hops=self.intermediate_hops[mask],
            parallel_paths=self.parallel_paths[mask],
            is_xrp_direct=self.is_xrp_direct[mask],
            cross_currency=self.cross_currency[mask],
            kind_codes=self.kind_codes[mask],
            kind_vocab=self.kind_vocab,
            _account_index=self._account_index,
            _currency_index=self._currency_index,
        )

    def multi_hop_mask(self) -> np.ndarray:
        """The Fig. 6 population: non-direct-XRP with ≥1 intermediate."""
        return (~self.is_xrp_direct) & (self.intermediate_hops >= 1)

    def rows_for_currency(self, code: str) -> np.ndarray:
        index = self._currency_index
        if not index and self.currencies:
            index.update(
                (code_, position)
                for position, code_ in enumerate(self.currencies)
            )
        currency_id = index.get(code)
        if currency_id is None:
            return np.zeros(len(self), dtype=bool)
        return self.currency_ids == currency_id

    def time_window_mask(self, start: int, end: int) -> np.ndarray:
        return (self.timestamps >= start) & (self.timestamps <= end)

    def payments_by_sender(self, sender: AccountID) -> np.ndarray:
        sender_id = self.account_id_of(sender)
        if sender_id is None:
            return np.zeros(len(self), dtype=bool)
        return self.sender_ids == sender_id
