PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-smoke bench-node profile-fig3 trace-fig3 serve-drill live-drill cascade-drill scenario-drill

test:
	$(PYTHON) -m pytest tests -q

bench:
	$(PYTHON) -m pytest benchmarks -q

# Reduced generation -> fig3 pipeline; writes BENCH_pipeline.json (<60 s).
bench-smoke:
	$(PYTHON) -m repro bench-smoke

# Engine + path-finder throughput; writes BENCH_node.json.
bench-node:
	$(PYTHON) -m repro bench-node

profile-fig3:
	$(PYTHON) -m repro --profile fig3

# Daemon contract check: concurrent dedup, byte-equivalence vs the CLI,
# durable cache hits across a restart (see tools/serve_drill.py).
serve-drill:
	$(PYTHON) tools/serve_drill.py

# Crash-safety check: kill -9 an ingest twice mid-stream, resume, and
# require a digest identical to a never-killed run (tools/live_drill.py).
live-drill:
	$(PYTHON) tools/live_drill.py

# Adversarial scenario packs vs committed goldens: a recorded fork under
# amores-cachin-delay, none under sissle-fixed, serial == --jobs 2 for the
# fork_threshold sweep (see tools/scenario_drill.py).
scenario-drill:
	$(PYTHON) tools/scenario_drill.py

# Health-family contract check: cascade collapse curves vs committed
# goldens, Table II's point at the final outage wave, serial == --jobs 2
# (see tools/cascade_drill.py).
cascade-drill:
	$(PYTHON) tools/cascade_drill.py

# fig3 with span tracing + run manifest, then schema-validate the manifest.
trace-fig3:
	$(PYTHON) -m repro artifact fig3 --out fig3.txt --trace
	$(PYTHON) -m repro manifest fig3.txt.manifest.json
