package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"odakit/internal/cluster"
	"odakit/internal/obs"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// pipeline_replicated: replication and durability. Each round builds a
// fresh 3-node, RF=2 cluster with per-node WALs in a temporary directory
// under the checkout (set-up), then times, on one goroutine:
//
//	ingest   encode → Cluster.PublishBatch → Cluster.InsertBatch per
//	         bulk batch, then a short slice in the facility's 512-record
//	         batches, the traffic core.MirrorToCluster sends
//	query    the dashboard mix as scatter-gather RunWithStats / TopN
//
// and checks committed offsets, the quorum-failure counter, and every
// distinct answer against a single-node tsdb reference built untimed.

// walPolicy is the WAL flush policy the cluster runs with (its default).
const walPolicy = "append+fsync on leader and follower before the replication ack; commit barriers ride the next fsync"

var nodeIDs = []string{"n1", "n2", "n3"}

func runReplicated(cfg config, o *outcome) error {
	sz := cfg.size
	sys := system(cfg.seed, sz)
	sched := schedule(cfg.seed, sys)
	gen := telemetry.NewGenerator(sys, sched)
	in, err := genIngest(gen, sched, t0, t0.Add(time.Duration(sz.replMinutes)*time.Minute),
		telemetry.MetricSources, true, sz.replBatch)
	if err != nil {
		return err
	}
	small, err := genIngest(gen, sched, in.to, in.to.Add(sz.replSmall), telemetry.MetricSources, false, sz.localBatch)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	panels, hist := dashboardShapes(rng, in, sz.panelShapes, sz.historyShapes)
	shapes := append(append([]shape(nil), panels...), hist...)
	lakeOpts := tsdb.Options{RollupInterval: 15 * time.Second}
	ref := tsdb.New(lakeOpts)
	for _, b := range append(append([]batch(nil), in.batches...), small.batches...) {
		if b.obs != nil {
			if err := ref.InsertBatch(b.obs); err != nil {
				return err
			}
		}
	}
	topics := make([]string, 0, len(in.perTopic))
	for topic := range in.perTopic {
		topics = append(topics, topic)
	}
	sort.Strings(topics)
	base := liveHeapMB()

	lg := newLedger(cfg.trace)
	var r rounds
	var qt queryTally
	var transport, replicated, fsyncs, appends, walBytes, smallFsyncs float64
	var smallLat pieces
	var bronze int64 // encoded bytes per round
	end := deadline(cfg)
	for r.n < sz.minRounds || time.Now().Before(end) {
		seq := mix(rng, panels, hist, sz.panels, sz.history)
		// Set up sz.setups times and keep the last: set-up is short, so
		// its median needs the samples.
		var c *cluster.Cluster
		var reg *obs.Registry
		var dir string
		for i := 0; i < sz.setups; i++ {
			if c != nil {
				if err := teardown(c, dir); err != nil {
					return err
				}
			}
			if dir, err = walDirs(cfg); err != nil {
				return err
			}
			t := time.Now()
			if c, reg, err = setupCluster(dir, lakeOpts, topics); err != nil {
				return err
			}
			r.setup = append(r.setup, time.Since(t).Seconds())
		}
		// Flush what earlier rounds left for the filesystems (WAL deletes,
		// dirty pages) so it does not land in this round's fsyncs.
		syscall.Sync()

		prod := lg.lane(fmt.Sprintf("producer/%d", r.n))
		gcm := startGC()
		calls0, _ := c.Transport().Stats()
		start := time.Now()
		root := prod.begin("lane", 0)
		var batchLat latencies
		calls := ingestCalls{
			encode:      true,
			publishName: "cluster.publish",
			publish: func(topic string, msgs []stream.Message) error {
				_, err := c.PublishBatch(topic, msgs)
				return err
			},
			insertName: "cluster.insert", insert: c.InsertBatch,
		}
		pr := produce(prod, in, calls, &batchLat)
		r.batchLat = append(r.batchLat, batchLat)
		ingestWall := time.Since(start)
		calls1, _ := c.Transport().Stats()
		r.ingestRate = append(r.ingestRate, float64(in.records()-int64(len(in.schedLogs)))/ingestWall.Seconds())
		counters := gather(reg)

		calls.publishName, calls.insertName = "cluster.publish_small", "cluster.insert_small"
		var lat latencies
		ps := produce(prod, small, calls, &lat)
		smallLat = append(smallLat, lat)
		smallFsyncs += (gather(reg)["oda_wal_fsyncs_total"] - counters["oda_wal_fsyncs_total"]) / float64(len(small.batches))
		o.attempted += int64(len(in.batches) + len(small.batches))
		o.failed += pr.failed + ps.failed
		bronze = pr.bytes
		for _, e := range []error{pr.first, ps.first} {
			if e != nil {
				o.problem("ingest: %v", e)
			}
		}

		answers := map[int]answer{}
		qf, qerr := queryPhase(prod, shapes, seq, queryEngine{
			runName: "cluster.query", topName: "cluster.topn",
			run: c.RunWithStats, topN: c.TopN,
		}, r.n, &r.panelLat, &r.histLat, &qt, answers)
		o.attempted += int64(len(seq))
		o.failed += qf
		if qerr != nil {
			o.problem("query: %v", qerr)
		}
		prod.end(root)
		r.cost = append(r.cost, time.Since(start).Seconds())
		r.gcFrac = append(r.gcFrac, gcm.since())
		r.heap = append(r.heap, liveHeapMB()-base)

		batches := float64(len(in.batches))
		transport += float64(calls1-calls0) / batches
		published := float64(in.records() - int64(len(in.schedLogs)))
		replicated += counters["oda_cluster_replicated_records_total"] / published
		fsyncs += counters["oda_wal_fsyncs_total"] / batches
		appends += counters["oda_wal_appends_total"] / batches
		walBytes += counters["oda_wal_appended_bytes_total"] / published

		checkReplicated(c, reg, []*ingestInput{in, small}, ref, shapes, answers, o)
		if err := teardown(c, dir); err != nil {
			return err
		}
		r.n++
	}

	m := o.metrics
	r.e2e(m)
	a := lg.summarize()
	published := float64(in.records()-int64(len(in.schedLogs))) * float64(r.n)
	n := float64(r.n)
	m["schema.encode_ns_per_rec"] = ratio(float64(a.byName["schema.encode"]), published+float64(small.records())*n)
	m["schema.bytes_per_rec"] = ratio(float64(bronze)*n, published)
	m["cluster.publish_ns_per_rec"] = ratio(float64(a.byName["cluster.publish"]), published)
	m["cluster.insert_ns_per_rec"] = ratio(float64(a.byName["cluster.insert"]), float64(in.obsCount)*n)
	m["cluster.transport_calls_per_batch"] = transport / n
	m["cluster.replicated_per_rec"] = replicated / n
	m["cluster.scatter_cells_scanned"] = ratio(float64(qt.allCells), float64(qt.allRuns))
	m["cluster.small_batch_p50_ms"] = smallLat.pct(0.5)
	m["wal.fsyncs_per_batch"] = fsyncs / n
	m["wal.fsyncs_per_small_batch"] = smallFsyncs / n
	m["wal.appends_per_batch"] = appends / n
	m["wal.bytes_per_rec"] = walBytes / n
	qt.metrics(m)
	m["trace.unattributed_frac"] = a.unattributedFrac()
	if cfg.trace {
		m["bench.driver_ns_per_rec"] = harnessNsPerRec(in)
		if err := lg.write(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return err
		}
		o.notes = append(o.notes, a.table()...)
	}
	o.stamp["records_per_round"] = in.records() - int64(len(in.schedLogs))
	o.stamp["bronze_bytes_per_round"] = bronze
	o.stamp["window"] = fmt.Sprintf("%s..%s", in.from.Format(time.RFC3339), in.to.Format(time.RFC3339))
	o.stamp["rounds"] = r.n
	o.stamp["setups_per_round"] = sz.setups
	o.stamp["ingest_batch"] = sz.replBatch
	o.stamp["small_batch_slice"] = fmt.Sprintf("%s of metric sources past the bulk window in %d-record batches (%d records, %d batches) per round, timed apart from ingest_rec_per_s",
		sz.replSmall, sz.localBatch, small.records(), len(small.batches))
	o.stamp["cluster"] = "3 nodes, RF=2, quorum 2, 4 partitions per topic"
	o.stamp["wal_flush_policy"] = walPolicy
	o.stamp["storage_note"] = "WAL fsyncs land on this host's filesystem; latencies are this host's, not a device's"
	o.stamp["latency_ms"] = r.summary()
	o.stamp["latency_ms"].(map[string]map[string]float64)["small_batch"] = smallLat.all().summary()
	o.notes = append(o.notes, paperLine(m["ingest_rec_per_s"], m["schema.bytes_per_rec"]))
	return nil
}

// walDirs makes a fresh temporary directory holding an empty WAL
// directory per node, before the set-up timer starts, as a deployment
// provisions its data directories. Creating directories on this host's
// shared disk took from 0.05 ms to about 0.8 ms, depending on what the
// disk was doing: up to three times the whole in-memory set-up, so
// timing it made setup_s a reading of the disk.
func walDirs(cfg config) (string, error) {
	dir, err := tmpDir(cfg, "wal")
	if err != nil {
		return "", err
	}
	for _, id := range nodeIDs {
		if err := os.Mkdir(filepath.Join(dir, url.PathEscape(id)), 0o755); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// setupCluster builds the 3-node, RF=2 cluster with per-node WALs under
// dir, its metrics registry, and the bronze topics.
func setupCluster(dir string, lakeOpts tsdb.Options, topics []string) (*cluster.Cluster, *obs.Registry, error) {
	c, err := cluster.New(nodeIDs, cluster.Config{RF: 2, LakeOptions: lakeOpts, WALDir: dir})
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	c.Instrument(reg)
	for _, topic := range topics {
		if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: 4}); err != nil {
			return nil, nil, err
		}
	}
	return c, reg, nil
}

// teardown closes every node's WAL and removes the WAL directory.
func teardown(c *cluster.Cluster, dir string) error {
	for _, id := range nodeIDs {
		if w := c.NodeWAL(id); w != nil {
			if err := w.Close(); err != nil {
				return fmt.Errorf("close wal %s: %w", id, err)
			}
		}
	}
	return os.RemoveAll(dir)
}

// gather snapshots a registry's samples by name.
func gather(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Gather() {
		out[s.Name] = s.Value
	}
	return out
}

// checkReplicated verifies one round: committed end offsets equal the
// records published, no publish missed its quorum, and every distinct
// scatter-gather answer equals the single-node reference.
func checkReplicated(c *cluster.Cluster, reg *obs.Registry, ins []*ingestInput, ref *tsdb.DB,
	shapes []shape, answers map[int]answer, o *outcome) {
	perTopic := map[string]int64{}
	for _, in := range ins {
		for topic, n := range in.perTopic {
			perTopic[topic] += n
		}
	}
	for topic, want := range perTopic {
		parts, err := c.Partitions(topic)
		if err != nil {
			o.problem("partitions %s: %v", topic, err)
			continue
		}
		var got int64
		for p := 0; p < parts; p++ {
			end, err := c.EndOffset(topic, p)
			if err != nil {
				o.problem("end offset %s/%d: %v", topic, p, err)
			}
			got += end
		}
		if got != want {
			o.problem("topic %s committed end offsets sum to %d, published %d", topic, got, want)
		}
	}
	if q := gather(reg)["oda_cluster_quorum_failures_total"]; q != 0 {
		o.problem("%v publishes missed their quorum", q)
	}
	for i, a := range answers {
		s := shapes[i]
		if s.topN > 0 {
			want, err := ref.TopN(s.q, tsdb.DimComponent, s.topN)
			if err != nil || !sameTop(a.top, want) {
				o.problem("scatter %s: top-N differs from the single-node reference (%v)", s, err)
			}
			continue
		}
		want, err := ref.Run(s.q)
		if err != nil || !sameFrame(a.frame, want) {
			o.problem("scatter %s: differs from the single-node reference (%v)", s, err)
		}
	}
}

func sameFrame(a, b *schema.Frame) bool { return a != nil && b != nil && a.Equal(b) }
