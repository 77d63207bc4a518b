package cluster

import (
	"testing"

	"odakit/internal/stream"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// TestRingBalance places the end-to-end benchmark's layout — three
// nodes at RF=2, the eight bronze metric topics with four partitions
// each, and the lake's stripes — and requires that no node leads more
// than half the partitions or holds more than half the stripe replicas.
// Under plain FNV-1a every ring point fell on a fifth of the circle:
// n2 led 28 of the 32 partitions, n3 followed on all of them and held a
// replica of every stripe, and n1 led four.
func TestRingBalance(t *testing.T) {
	c := testCluster(t, 3, 2)
	for _, src := range telemetry.MetricSources {
		if err := c.CreateTopic("bronze."+string(src), stream.TopicConfig{Partitions: 4}); err != nil {
			t.Fatal(err)
		}
	}
	leads, follows := map[string]int{}, map[string]int{}
	parts := 0
	for _, tp := range c.topicList() {
		for _, ps := range tp.parts {
			parts++
			leads[ps.leader]++
			for _, f := range ps.followers {
				follows[f]++
			}
		}
	}
	replicas, total := map[string]int{}, 0
	for s := 0; s < tsdb.NumStripes; s++ {
		for _, id := range c.stripeServers(s, false) {
			replicas[id]++
			total++
		}
	}
	t.Logf("leaders %v, followers %v, stripe replicas %v", leads, follows, replicas)
	for _, id := range c.Nodes() {
		if leads[id] > parts/2 {
			t.Errorf("%s leads %d of %d partitions", id, leads[id], parts)
		}
		if replicas[id] > total/2 {
			t.Errorf("%s holds %d of %d stripe replicas", id, replicas[id], total)
		}
	}
}
