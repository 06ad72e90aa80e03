PYTHON ?= python
export PYTHONPATH := src

.PHONY: test profile-fig3 trace-fig3 contracts

test:
	$(PYTHON) -m pytest tests -q

profile-fig3:
	$(PYTHON) -m repro --profile fig3

# Every golden, claim and serial-vs-`--jobs` check in one case table, plus
# the serve daemon and kill -9 live-ingest contracts (tools/contracts.py).
contracts:
	$(PYTHON) tools/contracts.py

# fig3 with span tracing + run manifest, then schema-validate the manifest.
trace-fig3:
	$(PYTHON) -m repro artifact fig3 --out fig3.txt --trace
	$(PYTHON) -m repro manifest fig3.txt.manifest.json
