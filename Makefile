# Developer entry points. `make verify` is the full pre-merge gate (format
# check + clippy with warnings as errors + the write-vocabulary grep gates +
# tests); CI (.github/workflows/ci.yml) runs the same steps.

.PHONY: verify fmt-check clippy vocabulary test fmt smoke chaos chaos-sweep perf-gate bench-pair

verify: fmt-check clippy vocabulary test

fmt-check:
	cargo fmt --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# No raw_put outside crates/tafdb/src, no AttrDelta literal outside its two
# defining files (DESIGN.md §4.3); `ci/loc.sh` prints the non-test line count.
vocabulary:
	ci/write_vocabulary.sh

test:
	cargo test --workspace -q

fmt:
	cargo fmt

# Every figure/table harness at smoke scale, mirroring CI's bench-smoke job.
smoke:
	@cargo build --release -p mantle-bench --bins
	@set -e; for src in crates/bench/src/bin/fig*.rs crates/bench/src/bin/table*.rs; do \
		bin=$$(basename "$$src" .rs); \
		echo "== $$bin =="; \
		MANTLE_SCALE=smoke cargo run --release -q -p mantle-bench --bin "$$bin"; \
	done; \
	for f in results/*.json; do \
		python3 -m json.tool "$$f" > /dev/null || { echo "unparseable: $$f"; exit 1; }; \
	done; \
	echo "smoke OK: $$(ls results/*.json | wc -l) result files parse"

# The CI perf-regression gate, locally: seed-pinned virtual-clock mdtest
# suite vs ci/perf_baseline.json (>10% latency or RPC regression fails).
# Refresh the baseline after an intentional model change with
#   make perf-gate UPDATE=1
perf-gate:
	cargo run --release -p mantle-bench --bin perf_gate $(if $(UPDATE),-- --update-baseline)

# The repo benchmark (benchmark/README.md), this checkout against a parent
# revision in alternating pairs, then `compare`: make bench-pair PARENT=HEAD~1
PARENT ?= HEAD~1
PAIRS ?= 10
bench-pair:
	ci/bench_pair.sh $(PARENT) $(PAIRS)

# Re-run one chaos seed with full tracing and the fault timeline shown —
# the local repro loop for a red nightly chaos seed: make chaos SEED=17
SEED ?= 0
chaos:
	MANTLE_FAULT_SEED=$(SEED) MANTLE_TRACE_SAMPLE=1 \
		cargo test -q --test chaos -- --nocapture

# The full nightly sweep, locally (0..31 base storm, 32..47 snapshot
# storm, 48..63 lease storm).
chaos-sweep:
	@failed=""; for seed in $$(seq 0 63); do \
		echo "== chaos seed $$seed =="; \
		MANTLE_FAULT_SEED=$$seed cargo test -q --test chaos || failed="$$failed $$seed"; \
	done; \
	if [ -n "$$failed" ]; then echo "failing seeds:$$failed"; exit 1; fi
