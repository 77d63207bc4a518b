package oda

import (
	"fmt"
	"testing"
	"time"

	"odakit/internal/cluster"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// ------------------------------------------------------------- cluster

// benchCluster builds an n-node cluster with a 4-partition bench topic.
func benchCluster(b *testing.B, n, rf int) *cluster.Cluster {
	return benchClusterWAL(b, n, rf, "")
}

// benchClusterWAL is benchCluster with per-node WALs under walDir
// (empty keeps nodes memory-only, the seed behaviour).
func benchClusterWAL(b *testing.B, n, rf int, walDir string) *cluster.Cluster {
	b.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	c, err := cluster.New(ids, cluster.Config{
		RF: rf, LakeOptions: tsdb.Options{RollupInterval: 15 * time.Second},
		WALDir: walDir,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.CreateTopic("bench", stream.TopicConfig{Partitions: 4}); err != nil {
		b.Fatal(err)
	}
	return c
}

// benchClusterMsgs builds one keyed batch; gen makes values unique per
// call so successive batches never collide with the dedupe fingerprint.
func benchClusterMsgs(gen, n int) []stream.Message {
	msgs := make([]stream.Message, n)
	for i := range msgs {
		msgs[i] = stream.Message{
			Key:   []byte(fmt.Sprintf("k%d", (gen*31+i)%256)),
			Value: []byte(fmt.Sprintf("v%d-%d-payload-0123456789abcdef", gen, i)),
		}
	}
	return msgs
}

// BenchmarkClusterPublish measures replicated publish throughput across
// the deployment grid: a single node at RF=1 (the no-replication
// baseline — the cluster layer's routing and watermark bookkeeping with
// zero follower round-trips), three nodes at RF=1 (ring fan-out, still
// no quorum wait), and three nodes at RF=2 (every batch waits for a
// follower ack before committing). The RF=2/RF=1 gap is the price of
// surviving a node loss with zero committed-record loss. The
// nodes=3/rf=2/wal row adds per-node WALs in a temporary directory:
// every batch is durable on the leader and the follower (one WAL group
// sync per node lane) before it commits, so it prices the fsyncs.
func BenchmarkClusterPublish(b *testing.B) {
	const batch = 64
	for _, g := range []struct {
		n, rf int
		wal   bool
	}{{1, 1, false}, {3, 1, false}, {3, 2, false}, {3, 2, true}} {
		name := fmt.Sprintf("nodes=%d/rf=%d", g.n, g.rf)
		if g.wal {
			name += "/wal"
		}
		b.Run(name, func(b *testing.B) {
			walDir := ""
			if g.wal {
				walDir = b.TempDir()
			}
			c := benchClusterWAL(b, g.n, g.rf, walDir)
			// Build every batch up front: record formatting is input
			// preparation, not publish cost, and stays out of the timer.
			batches := make([][]stream.Message, 0, (b.N+batch-1)/batch)
			for i := 0; i < b.N; i += batch {
				batches = append(batches, benchClusterMsgs(i/batch, min(batch, b.N-i)))
			}
			b.ResetTimer()
			for _, msgs := range batches {
				if _, err := c.PublishBatch("bench", msgs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			recsPerSec := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(recsPerSec, "records/sec")
			recordBenchRow("ClusterPublish/"+name, map[string]any{
				"nodes": g.n, "rf": g.rf, "batch": batch, "wal": g.wal,
				"records":         b.N,
				"records_per_sec": recsPerSec,
				"ns_per_record":   float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			})
		})
	}
}

// BenchmarkClusterFailover measures time-to-recovery on a 3-node RF=2
// cluster, a kill/restart cycle per iteration with a rotating victim:
//
//   - ttr_serve: from the kill to the first fully committed publish —
//     how long writers see errors while eager failover promotes the
//     most-caught-up followers;
//   - ttr_full: from the kill to health "ok" again after the node
//     returns — failover plus catch-up replay and re-replication back
//     to full RF.
func BenchmarkClusterFailover(b *testing.B) {
	c := benchCluster(b, 3, 2)
	// Warm every partition so failover has committed data to protect.
	for g := 0; g < 8; g++ {
		if _, err := c.PublishBatch("bench", benchClusterMsgs(g, 64)); err != nil {
			b.Fatal(err)
		}
	}
	var serveTotal, fullTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := fmt.Sprintf("n%d", i%3+1)
		msgs := benchClusterMsgs(1000+i, 64)
		start := time.Now()
		if err := c.Kill(victim); err != nil {
			b.Fatal(err)
		}
		for { // a durable producer retrying the same keyed batch
			if _, err := c.PublishBatch("bench", msgs); err == nil {
				break
			}
		}
		serveTotal += time.Since(start)
		if err := c.Restart(victim); err != nil {
			b.Fatal(err)
		}
		for c.Health().Status != "ok" {
			if err := c.Repair(); err != nil {
				b.Fatal(err)
			}
		}
		fullTotal += time.Since(start)
	}
	b.StopTimer()
	serveMs := float64(serveTotal.Microseconds()) / float64(b.N) / 1000
	fullMs := float64(fullTotal.Microseconds()) / float64(b.N) / 1000
	b.ReportMetric(serveMs, "ttr-serve-ms")
	b.ReportMetric(fullMs, "ttr-full-ms")
	recordBenchRow("ClusterFailover/nodes=3/rf=2", map[string]any{
		"nodes": 3, "rf": 2, "cycles": b.N,
		"ttr_serve_ms": serveMs,
		"ttr_full_ms":  fullMs,
	})
}

// BenchmarkClusterRecovery prices the two ways a warm node comes back:
// peer resync (no WAL — the restarted node re-replicates every
// partition and re-imports every lake stripe it owns over the network)
// versus disk recovery (the node replays its local WAL and fetches only
// the suffix committed while it was down). Both modes run under an
// identical modeled per-hop transport latency so the network cost of
// wholesale resync shows up honestly; an in-process hop would otherwise
// be nearly free and flatter the peer path. The warm state and the
// catch-up debt are identical across modes; the recorded ttr_ms is
// Restart → health ok.
func BenchmarkClusterRecovery(b *testing.B) {
	const (
		warmBatches = 30 // x64 records across 4 partitions
		warmObs     = 800
		linkRTTus   = 100
	)
	for _, mode := range []string{"peer", "disk"} {
		b.Run("recovery="+mode, func(b *testing.B) {
			walDir := ""
			if mode == "disk" {
				walDir = b.TempDir()
			}
			c := benchClusterWAL(b, 3, 2, walDir)
			c.Transport().SetFaultHook(func(op, target string) error {
				time.Sleep(linkRTTus * time.Microsecond)
				return nil
			})
			for g := 0; g < warmBatches; g++ {
				if _, err := c.PublishBatch("bench", benchClusterMsgs(g, 64)); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.InsertBatch(ingestObs(1, warmObs)); err != nil {
				b.Fatal(err)
			}
			const victim = "n2"
			var ttr time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Kill(victim); err != nil {
					b.Fatal(err)
				}
				// The catch-up debt: one batch commits while the victim is
				// down, so even disk recovery must fetch a suffix.
				msgs := benchClusterMsgs(10_000+i, 64)
				for {
					if _, err := c.PublishBatch("bench", msgs); err == nil {
						break
					}
				}
				start := time.Now()
				if err := c.Restart(victim); err != nil {
					b.Fatal(err)
				}
				for c.Health().Status != "ok" {
					if err := c.Repair(); err != nil {
						b.Fatal(err)
					}
				}
				ttr += time.Since(start)
			}
			b.StopTimer()
			ttrMs := float64(ttr.Microseconds()) / float64(b.N) / 1000
			b.ReportMetric(ttrMs, "ttr-ms")
			recordBenchRow("ClusterRecovery/recovery="+mode, map[string]any{
				"nodes": 3, "rf": 2, "cycles": b.N, "recovery": mode,
				"warm_records": warmBatches * 64, "warm_rows": warmObs,
				"link_rtt_us": linkRTTus,
				"ttr_ms":      ttrMs,
			})
		})
	}
}
