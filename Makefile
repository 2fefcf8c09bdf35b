# Developer targets. `make check` is the tier-1 verification plus the
# race detector — the sharded parallel join (internal/parallel) is the
# first concurrent hot path, so every test run under -race is part of
# its correctness argument.

GO ?= go

.PHONY: build test vet lint race check oracle traced-oracle fuzz bench bench-alloc bench-scaling flight-sample trace-sample livebench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static invariants: the five pjoinlint analyzers (hotpath, opcontract,
# poolsafe, spanpair, locksafe) over the whole tree. Zero unsuppressed
# diagnostics is the gate; suppressions need a //pjoin:allow with a
# justification. See DESIGN.md §14.
lint:
	$(GO) run ./cmd/pjoinlint ./...

race:
	$(GO) test -race ./...

check: build vet lint race

# Differential oracle soak: ORACLE_SEEDS seeded scenarios, each run
# through the full operator configuration matrix (PJoin/XJoin x index x
# chunked passes x shards x spill cache x fault injection) against the
# brute-force shj oracle and each other. Failures auto-shrink to a
# one-line replay spec (feed it to `pjoinbench -oracle-replay`). See
# DESIGN.md §11.
ORACLE_SEEDS ?= 200
oracle:
	ORACLE_SEEDS=$(ORACLE_SEEDS) $(GO) test ./internal/oracle/ -run TestSoak -count=1 -timeout 600s -v

# Traced-oracle soak: the same seeded scenarios run with the provenance
# span recorder attached over the mechanism-diverse traced variant
# slice, reconciling span attribution against operator metrics — Σ
# purge-span drops == Metrics.Purged, every punctuation lifecycle
# closes, every pass trace is start/io/end. See DESIGN.md §13.
traced-oracle:
	ORACLE_SEEDS=$(ORACLE_SEEDS) $(GO) test ./internal/oracle/ -run TestTracedOracle -count=1 -timeout 600s -v

# Short coverage-guided fuzz of the oracle's scenario decoder + a
# mechanism-diverse variant slice. Corpus under
# internal/oracle/testdata/fuzz; crashes land there as pinned inputs.
fuzz:
	$(GO) test ./internal/oracle/ -run='^$$' -fuzz FuzzOracle -fuzztime 60s

# Performance summaries. BENCH_3.json: store-level probe
# micro-benchmarks plus every simulated experiment's ns/op, allocs/op
# and work counters (Examined, PurgeScanned, TuplesOut) in both the
# pre-index scan regime and the indexed regime. BENCH_4.json: the
# latency sweep — result-latency and punctuation-propagation-delay
# quantiles (p50/p95/p99/max) across punctuation inter-arrival rates in
# both regimes. BENCH_5.json: the incremental disk-join sweep —
# result-latency quantiles per chunk budget (0 = blocking baseline)
# with spill-cache hit ratios. BENCH_6.json: the batched-dataflow sweep
# — per-probe speedup of the seq-guarded memoizing probe over same-key
# runs, plus wall-clock throughput and punctuation-propagation delay of
# the live pipeline per batch x linger cell. The JSON artifacts are
# committed so regressions show up in review.
bench:
	$(GO) run ./cmd/pjoinbench -bench3 BENCH_3.json
	$(GO) run ./cmd/pjoinbench -bench4 BENCH_4.json
	$(GO) run ./cmd/pjoinbench -bench5 BENCH_5.json
	$(GO) run ./cmd/pjoinbench -bench6 BENCH_6.json
	$(GO) run ./cmd/pjoinbench -bench7 BENCH_7.json

# Fault-injection flight-recorder sample: wedge a join on a failing
# spill device, let the lag SLO fire, dump the last trace events +
# histogram snapshots.
flight-sample:
	$(GO) run ./cmd/pjoinbench -flight-sample flight-sample.jsonl.gz

# End-to-end provenance sample: a traced auctiond run (every tuple
# sampled so the report has full critical paths) analyzed by
# pjointrace. -strict makes lifecycle violations (orphan spans,
# unclosed punctuation traces) fail the target, so this doubles as an
# integration check of the whole trace → analyze path.
trace-sample:
	$(GO) run ./cmd/auctiond -items 500 -trace trace-sample.jsonl.gz -trace-sample 1
	$(GO) run ./cmd/pjointrace -strict trace-sample.jsonl.gz > trace-sample.report.txt
	cat trace-sample.report.txt

# Hot-path allocation micro-benchmarks (probe/insert, punctuation
# matching). Run with -benchmem semantics via b.ReportAllocs().
bench-alloc:
	$(GO) test -run=NONE -bench='Probe|Insert|SetMatch|Matches|SetAdd' ./internal/joinbase/ ./internal/punct/

# The live-pipeline benchmark (BENCHMARK.json): one 24 s open-loop run
# of workload W (auction, spill) with schedule seed SEED, end-to-end
# metrics; TRACE=1 gives the per-layer metrics of a traced run instead.
# Build outputs go under .bench_build.
W ?= auction
SEED ?= 1
TRACE ?= 0
livebench:
	bash livebench/run.sh --workload $(W) --seed $(SEED) --seconds 24 --trace $(TRACE)

# ShardedPJoin scaling sweep (wall clock + cost-model makespan).
bench-scaling:
	$(GO) run ./cmd/pjoinbench -fig scale1
