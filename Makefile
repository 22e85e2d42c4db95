# Developer entry points. `make verify` is the full pre-merge gate (format
# check + clippy with warnings as errors + the grep gates + tests); CI
# (.github/workflows/ci.yml) runs the same steps.

.PHONY: verify fmt-check clippy vocabulary test fmt smoke chaos chaos-smoke chaos-sweep bench-pair

verify: fmt-check clippy vocabulary test

fmt-check:
	cargo fmt --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# No raw_put outside crates/tafdb/src (tests and examples included), no
# AttrDelta literal outside its two
# defining files, no object / dirstat / listing / bulk-load row op in a
# front-end outside crates/tafdb/src/front.rs (LocoFS excepted), no
# clone-out engine read (`scan_range`, `scan_versions`, `scan_dir`,
# `export_rows`) outside crates/engine/src (DESIGN.md §4.12), no copying
# range transform (`update_range`) outside the engines and the compactor
# (a range delete is `StorageEngine::delete_range`), no `Arc<str>` or
# `Box<str>` under crates/*/src outside mantle_types' `Name` and `MetaPath`
# (a stored name is a `Name`, DESIGN.md §4.12), no `StorageEngine<Row>` or
# `build::<Row>` under crates/*/src outside crates/engine/src (a shard
# stores a `StoredRow`, DESIGN.md §4.12), and no
# per-level permission walk, spelled-out refusal, leaf split or rename
# precheck outside crates/types/src/resolve.rs (DESIGN.md §4.3); no
# thread::scope / flight::op_scope / trace::start in a workload or figure
# binary outside the driver module (DESIGN.md §3), and none of the retired
# flight/trace plumbing, a second op slot, the unread per-shard phase gauge
# (DESIGN.md §4.8), the real-time permit plane (DESIGN.md §1), the
# baselines' `Relaxed` or the per-op record's retired tallies, phase state
# machine and span side-ledgers (DESIGN.md §4.2); no `impl MetadataService
# for` outside crates/core/src/service.rs and LocoFS — a table-backed system
# is a `mantle_core::Shell` (DESIGN.md §4.3); no file reads the OS clock more often than its
# ceiling in ci/real_time_ceiling.txt. `ci/loc.sh` prints the non-test line
# count.
vocabulary:
	ci/write_vocabulary.sh
	ci/resolve_vocabulary.sh
	ci/one_client_loop.sh
	ci/real_time_sites.sh

test:
	cargo test --workspace -q

fmt:
	cargo fmt

# Every figure/table harness at smoke scale (CI's bench-smoke job runs this
# target). A harness whose run had failed ops exits non-zero and stops it.
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

# One chaos seed, quietly: the per-PR smoke CI's test jobs run (seed 0; the
# path-cache leg also runs the lease storm, SEED=48).
chaos-smoke:
	MANTLE_FAULT_SEED=$(SEED) cargo test -q --test chaos

# The full nightly sweep, locally (0..31 base storm, 32..47 snapshot
# storm, 48..63 lease storm).
chaos-sweep:
	@failed=""; for seed in $$(seq 0 63); do \
		echo "== chaos seed $$seed =="; \
		MANTLE_FAULT_SEED=$$seed cargo test -q --test chaos || failed="$$failed $$seed"; \
	done; \
	if [ -n "$$failed" ]; then echo "failing seeds:$$failed"; exit 1; fi
