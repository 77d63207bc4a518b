GO ?= go

.PHONY: all build vet test race chaos chaos-cluster bench bench-query bench-obs bench-federate bench-serve bench-cq bench-cluster bench-smoke fuzz-smoke verify clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency-heavy packages get a dedicated race-detector pass: the
# striped-lock LAKE store, the partitioned STREAM broker, the pipeline
# that batches into both, the parallel read surfaces (log search
# fan-out, columnar row-group decode), the resilience substrate
# (retry/breaker/supervisor, fault injector, streaming jobs), the
# tier-federation path (object store gets under offload, glacier recall),
# the serving layer (gateway token buckets + priority admission,
# httpapi handlers + prepared-query registry), and the continuous-query
# engine (concurrent Apply/Read/Subscribe/checkpoint under a live pump),
# the replicated cluster (quorum publish, failover, scatter-gather), and
# the per-node WAL (concurrent appends/syncs against replay and close).
race:
	$(GO) test -race ./internal/stream ./internal/tsdb ./internal/core ./internal/logsearch ./internal/columnar ./internal/faults ./internal/resilience ./internal/sproc ./internal/obs ./internal/objstore ./internal/archive ./internal/gateway ./internal/httpapi ./internal/cq ./internal/cluster ./internal/wal

# Chaos pass: the full pipeline under deterministic fault injection with
# the race detector on. ODA_CHAOS_SEED pins the injection schedule so a
# failure replays exactly; change it to explore other schedules.
ODA_CHAOS_SEED ?= 20240601
chaos:
	ODA_CHAOS_SEED=$(ODA_CHAOS_SEED) $(GO) test -race -count=1 -run 'Chaos' ./internal/core -v

# Cluster chaos pass: kill-a-node, kill-the-leader-mid-publish,
# asymmetric link partition, join/leave rebalance, CQ-pump failover
# resume, the WAL crash-point sweep (kill a node at every WAL
# append/fsync boundary, restart it from disk, require a byte-identical
# committed prefix), and restart-from-disk under a partial transport
# partition — all under the race detector with a pinned fault schedule.
# Each scenario asserts exactly-once committed data and degraded-not-down
# serving at every step. ODA_CHAOS_SEED drives both the fault schedules
# and the crash-point workloads: a failure message names the seed, and
# `make chaos-cluster ODA_CHAOS_SEED=<seed>` replays that exact run
# (boundary counts, publish contents, and injection points included).
chaos-cluster:
	ODA_CHAOS_SEED=$(ODA_CHAOS_SEED) $(GO) test -race -count=1 -run 'ChaosCluster' ./internal/cluster -v

# Parallel ingest benchmarks (1/4/16 goroutines x batch 1/64/1024).
bench:
	$(GO) test -run xxx -bench '(TSDBInsertParallel|BrokerPublishBatch)' -cpu 16 -benchtime 300000x .

# Query-engine grid (1/4/16 queriers x cold/warm cache x selectivity)
# plus the serial baseline; rows land in BENCH_query.json.
bench-query:
	rm -f $(CURDIR)/BENCH_query.json
	ODA_BENCH_JSON=$(CURDIR)/BENCH_query.json $(GO) test -run xxx -bench 'TSDBQueryParallel' -cpu 16 -benchtime 30x .

# Observability-overhead grid: the batched ingest hot path with and
# without a live metrics registry attached; rows land in BENCH_obs.json.
# The acceptance bar is <3% ns/op regression at every batch size.
bench-obs:
	rm -f $(CURDIR)/BENCH_obs.json
	ODA_BENCH_JSON=$(CURDIR)/BENCH_obs.json $(GO) test -run xxx -bench 'ObsOverheadInsert' -cpu 1 -benchtime 16000000x .

# Tier-federation grid (1/4/16 queriers x 0/50/90% offload x
# selectivity) plus the prune-vs-full-scan speedup pair at 90% offload;
# rows land in BENCH_federation.json.
bench-federate:
	rm -f $(CURDIR)/BENCH_federation.json
	ODA_BENCH_JSON=$(CURDIR)/BENCH_federation.json $(GO) test -run xxx -bench 'TSDBFederate' -cpu 16 -benchtime 10x .

# Multi-tenant serving-gateway scenarios (>= 10k simulated concurrent
# clients each): uniform interactive fleet, mixed-priority contention,
# open-loop surge (shed demo), and quota noisy-neighbor isolation; rows
# with p50/p95/p99 + 429/503 rates land in BENCH_serve.json.
bench-serve:
	rm -f $(CURDIR)/BENCH_serve.json
	ODA_BENCH_JSON=$(CURDIR)/BENCH_serve.json $(GO) test -run xxx -bench 'GatewayServe' -benchtime 1x -timeout 600s .

# Continuous-query serving path: view read at the current generation
# (the dashboard-refresh hot path) vs a full window re-fold vs the
# equivalent cold batch scan, plus the publish-throughput overhead pair
# with and without a pump attached; rows land in BENCH_cq.json. The
# acceptance bars are speedup_vs_cold >= 100x and overhead_pct <= 10.
# The publish pair runs in its own process so the read fixtures'
# half-million resident cells don't distort its GC behaviour; the rows
# merge into one file.
bench-cq:
	rm -f $(CURDIR)/BENCH_cq.json
	ODA_BENCH_JSON=$(CURDIR)/BENCH_cq.json $(GO) test -run xxx -bench 'CQServe/read' -benchtime 1s -timeout 600s .
	ODA_BENCH_JSON=$(CURDIR)/BENCH_cq.json $(GO) test -run xxx -bench 'CQServe/publish' -benchtime 2000000x -timeout 600s .

# Cluster deployment grid: replicated publish throughput at
# nodes/rf = 1/1, 3/1, 3/2 (the RF=2 column prices the follower-ack
# quorum wait), kill/restart failover cycles measuring
# time-to-first-committed-publish and time-to-health-ok, and the warm
# node recovery pair — peer resync vs WAL disk replay under an identical
# modeled per-hop transport latency; rows land in BENCH_cluster.json.
bench-cluster:
	rm -f $(CURDIR)/BENCH_cluster.json
	ODA_BENCH_JSON=$(CURDIR)/BENCH_cluster.json $(GO) test -run xxx -bench 'ClusterPublish' -benchtime 100000x -timeout 600s .
	ODA_BENCH_JSON=$(CURDIR)/BENCH_cluster.json $(GO) test -run xxx -bench 'ClusterFailover' -benchtime 20x -timeout 600s .
	ODA_BENCH_JSON=$(CURDIR)/BENCH_cluster.json $(GO) test -run xxx -bench 'ClusterRecovery' -benchtime 20x -timeout 600s .

# End-to-end benchmark smoke: e2ebench is a module of its own, so the
# root build never compiles it. Vetting and testing it here catches a
# change to an exported name the benchmark uses before the benchmark
# run does.
bench-smoke:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# Fuzz smoke: 30 seconds per fuzz target on top of the committed corpora
# (testdata/fuzz). Decoders for untrusted bytes must error, never panic.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecodeRow -fuzztime 30s ./internal/schema
	$(GO) test -run xxx -fuzz FuzzFileReader -fuzztime 30s ./internal/columnar
	$(GO) test -run xxx -fuzz FuzzColumnarExt -fuzztime 30s ./internal/columnar
	$(GO) test -run xxx -fuzz FuzzWALReplay -fuzztime 30s ./internal/wal

verify: vet build test bench-smoke race chaos chaos-cluster fuzz-smoke bench-federate bench-serve bench-cq

clean:
	$(GO) clean ./...
