.PHONY: install test unit deprecation-ratchet test-parallel obs-smoke audit-smoke alerts-check trace-smoke serve-smoke bench bench-index bench-mega bench-serve-scaling bench-baseline bench-check examples figures lint clean

install:
	pip install -e '.[test]'

# Default gate: lint, the tier-1 suite, the deprecation ratchet and the
# instrumented smoke runs (obs stack, audit/explain round-trip, SLO alert
# CI gate, trace export + flamegraph round trip, serving front-end round
# trip).
test: lint unit deprecation-ratchet obs-smoke audit-smoke alerts-check trace-smoke serve-smoke

# Mirrors the tier-1 verify command: works from a clean checkout with no
# editable install (PYTHONPATH picks up src/).
unit:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q

# No library code or test may reach a deprecated API: any
# DeprecationWarning anywhere in the tier-1 suite is an error.
deprecation-ratchet:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q \
		tests -W error::DeprecationWarning

# The run-spec/parallel-executor surface: RunSpec unit tests, CLI
# --jobs/sweep coverage, obs merge semantics, and the jobs-parity
# determinism suite (serial vs pooled artifacts byte-identical).
test-parallel:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q \
		tests/sim/test_parallel.py \
		tests/experiments/test_cli.py \
		tests/obs/test_metrics.py tests/obs/test_timeseries.py \
		tests/integration/test_parallel_determinism.py

# End-to-end observability smoke: metrics + tracing + time series + logs.
obs-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/obs_demo.py >/dev/null
	@echo "obs smoke OK"

# Decision-provenance round trip: audited run -> JSONL ledger -> explain.
audit-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/explain_demo.py >/dev/null
	@echo "audit smoke OK"

# The SLO gate exactly as CI runs it: a short audited run, then
# `repro-sim alerts --check` over its exports (exit 1 on violation).
alerts-check:
	@rm -rf .alerts-check && mkdir -p .alerts-check
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli run fig6 \
		--horizon-days 30 --metrics-out .alerts-check/fig6.json >/dev/null
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli alerts \
		.alerts-check --check
	@rm -rf .alerts-check
	@echo "alerts check OK"

# Distributed-trace round trip exactly as CI runs it: a tiny sweep with
# span export, then `repro-sim flamegraph` rebuilds the HTML view from
# the JSONL shards (exit non-zero if either leg fails).
trace-smoke:
	@rm -rf .trace-smoke && mkdir -p .trace-smoke
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli sweep fig6 \
		--seeds 2 --horizon-days 30 --jobs 2 \
		--trace-out .trace-smoke/trace.jsonl >/dev/null
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli flamegraph \
		.trace-smoke >/dev/null
	@test -s .trace-smoke/flamegraph.html
	@rm -rf .trace-smoke
	@echo "trace smoke OK"

# Serving round trip exactly as CI runs it: a short closed-loop loadgen
# run with metrics + ledger export and the in-run SLO gate, the same
# rules re-checked offline via `repro-sim alerts`, then an open-loop
# `serve` run against a single unit (exit non-zero if any leg fails).
serve-smoke:
	@rm -rf .serve-smoke && mkdir -p .serve-smoke
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli loadgen \
		--mode closed --clients 4 --nodes 4 --horizon-days 10 --scale 0.005 \
		--metrics-out .serve-smoke/loadgen.json \
		--ledger-out .serve-smoke/ledger.jsonl \
		--alerts examples/serve_alerts.rules --check >/dev/null
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli alerts \
		.serve-smoke --rules examples/serve_alerts.rules --check >/dev/null
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro.cli serve \
		--nodes 1 --horizon-days 10 --scale 0.005 --queue-size 32 \
		--batch-max 8 >/dev/null
	@test -s .serve-smoke/ledger.jsonl
	@rm -rf .serve-smoke
	@echo "serve smoke OK"

bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest benchmarks/ --benchmark-only

# Importance-index micro-benchmark: naive full-sort admission planning vs
# the bucketed index at 10k/50k residents (see docs/performance.md).
bench-index:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest \
		benchmarks/test_perf_admission_index.py -q --benchmark-disable \
		--bench-check benchmarks/baselines

# Mega-university benchmark (Section 5.4 extension): the reduced scale
# (2k nodes, paper catalogue) runs as part of the default suite; the
# full 50k-node/3.2M-arrival run is gated behind RUN_MEGA=1 and takes
# ~20 minutes on one core.  Checks both against committed baselines.
bench-mega:
	RUN_MEGA=1 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest \
		benchmarks/test_sec54_mega.py -q --benchmark-disable \
		--bench-check benchmarks/baselines

# Flash-crowd scaling benchmark: 1 -> 8 gateway shards under the
# slashdot burst, gating >= 2x fleet throughput at 4 shards and
# byte-identical merged artifacts at any executor worker count.  Part of
# the default bench-check sweep; this target runs just the scaling
# module (see docs/performance.md).
bench-serve-scaling:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest \
		benchmarks/test_serve_scaling.py -q --benchmark-disable \
		--bench-check benchmarks/baselines

# Perf-regression harness: record BENCH_*.json baselines, then gate future
# runs on wall-time (+tolerance) and artifact checksums.  See
# benchmarks/conftest.py.  Set RUN_MEGA=1 to (re)record the full-scale
# mega-university entry too — without it, re-recording the sec54 module
# keeps only the reduced-scale entry.
bench-baseline:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest benchmarks/ -q \
		--benchmark-disable --bench-json benchmarks/baselines

bench-check:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest benchmarks/ -q \
		--benchmark-disable --bench-check benchmarks/baselines

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python $$script || exit 1; \
		echo; \
	done

figures:
	python -m repro run all

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed (pip install -e '.[lint]'); skipping lint"; \
	fi

# Caches only — benchmarks/out holds committed reference output and must
# survive a clean.
clean:
	rm -rf .pytest_cache .hypothesis .ruff_cache .alerts-check .trace-smoke .serve-smoke build dist src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
