"""The batched ETL must factorize exactly like the per-row reference."""

from __future__ import annotations

import numpy as np

from repro.analysis.dataset import TransactionDataset


def reference_from_records(records):
    """The historical per-row loop, kept as the semantic specification."""
    rows = [record for record in records if record.delivered]
    account_index, accounts = {}, []
    currency_index, currencies = {}, []

    def intern_account(account):
        found = account_index.get(account)
        if found is None:
            found = account_index[account] = len(accounts)
            accounts.append(account)
        return found

    def intern_currency(code):
        found = currency_index.get(code)
        if found is None:
            found = currency_index[code] = len(currencies)
            currencies.append(code)
        return found

    n = len(rows)
    columns = {
        "timestamps": np.empty(n, dtype=np.int64),
        "sender_ids": np.empty(n, dtype=np.int64),
        "destination_ids": np.empty(n, dtype=np.int64),
        "currency_ids": np.empty(n, dtype=np.int64),
        "amounts": np.empty(n, dtype=np.float64),
    }
    for i, record in enumerate(rows):
        columns["timestamps"][i] = record.timestamp
        columns["sender_ids"][i] = intern_account(record.sender)
        columns["destination_ids"][i] = intern_account(record.destination)
        columns["currency_ids"][i] = intern_currency(record.currency)
        columns["amounts"][i] = record.amount
    return accounts, currencies, columns


class TestFromRecordsEquivalence:
    def test_matches_reference_loop(self, history):
        dataset = TransactionDataset.from_records(history.records)
        accounts, currencies, columns = reference_from_records(history.records)
        assert dataset.accounts == accounts
        assert dataset.currencies == currencies
        for name, expected in columns.items():
            np.testing.assert_array_equal(getattr(dataset, name), expected)

    def test_currency_index_matches_list_scan(self, dataset):
        for code in dataset.currencies:
            np.testing.assert_array_equal(
                dataset.rows_for_currency(code),
                dataset.currency_ids == dataset.currencies.index(code),
            )
        assert not dataset.rows_for_currency("ZZZ").any()

    def test_mask_subset_keeps_currency_lookup(self, dataset):
        subset = dataset.mask_subset(dataset.multi_hop_mask())
        for code in subset.currencies:
            np.testing.assert_array_equal(
                subset.rows_for_currency(code),
                subset.currency_ids == subset.currencies.index(code),
            )


def test_kind_codes_compat(dataset):
    # Kinds live as int8 codes + vocab, while the historical string-array
    # view stays available as a property.
    assert dataset.kind_codes.dtype == np.int8
    assert len(dataset.kind_vocab) <= 127
    decoded = dataset.kinds
    assert decoded.dtype == object
    assert set(decoded) == set(dataset.kind_vocab)
    window = dataset.slice_rows(10, 200)
    assert window.kind_vocab == dataset.kind_vocab
    assert list(window.kinds) == list(decoded[10:200])
