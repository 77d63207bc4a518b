package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/tsdb"
	"odakit/internal/wal"
)

// InsertBatch replicates a batch of observations into the LAKE: each
// observation's stripe (tsdb.StripeFor, the engine's own placement) is
// applied to every in-sync replica of that stripe. The touched stripes'
// cluster mutexes serialize writers, so every replica ingests a
// stripe's observations in one global order — which is why any replica
// can answer a stripe scan byte-identically.
//
// The router locks the touched stripes in ascending order; then one
// lane per replica node applies its stripes in ascending order and
// makes them durable with one WAL group sync (insertLane), the lanes
// running concurrently; then the router advances each stripe's
// sequence in ascending order.
//
// A replica that fails an insert after retries is marked out-of-sync and
// dropped from the stripe's serving set (Repair resyncs it from a
// healthy peer); the batch succeeds as long as one replica per touched
// stripe applied it. Do not retry a batch whose error names a down
// stripe — the surviving stripes already applied it.
func (c *Cluster) InsertBatch(obs []schema.Observation) error {
	if len(obs) == 0 {
		return nil
	}
	var byStripe [tsdb.NumStripes][]schema.Observation
	for _, o := range obs {
		s := tsdb.StripeFor(o.Component, o.Metric)
		byStripe[s] = append(byStripe[s], o)
	}
	var ws []stripeWork
	for s, sub := range byStripe {
		if len(sub) > 0 {
			c.stripeMu[s].Lock()
			ws = append(ws, stripeWork{s: s, obs: sub})
		}
	}
	defer func() {
		for _, w := range ws {
			c.stripeMu[w.s].Unlock()
		}
	}()
	var firstErr error
	var ids []string
	for i := range ws {
		w := &ws[i]
		targets := c.stripeServers(w.s, true)
		if len(targets) == 0 {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: %d", ErrStripeDown, w.s)
			}
			continue
		}
		w.seq = c.stripeSeqs[w.s].Load() + 1
		w.replicas, w.ok = targets, make([]bool, len(targets))
		ids = append(ids, targets...)
	}
	c.runLanes(ids, func(id string) { c.insertLane(id, ws) })
	for _, w := range ws {
		if w.replicas == nil {
			continue
		}
		applied := 0
		for j, id := range w.replicas {
			if !w.ok[j] {
				c.markStripeUnsynced(w.s, id)
				continue
			}
			c.node(id).stripeSeq[w.s].Store(w.seq)
			applied++
		}
		if applied == 0 {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: %d (all replicas failed the insert)", ErrStripeDown, w.s)
			}
			continue
		}
		c.stripeSeqs[w.s].Store(w.seq)
	}
	return firstErr
}

// stripeWork is one stripe's share of an insert batch: its sub-batch,
// the cluster-wide sequence number it commits under, its in-sync
// replicas, and per replica whether the replica's lane applied the
// batch and made it durable (each lane writes only its own ok entry).
type stripeWork struct {
	s        int
	obs      []schema.Observation
	seq      int64
	replicas []string
	ok       []bool
}

// insertLane is one replica node's share of an insert batch: for each
// of its stripes in ascending order it crosses the transport gate,
// inserts into the node's lake and stages the batch on the stripe's WAL
// under its sequence number; then one group sync makes them all
// durable before any of them counts toward the insert's ack. The
// cluster sequence advances only once some replica applied a stripe's
// batch, so a WAL replay can always tell a fully-caught-up replica from
// one missing a suffix.
func (c *Cluster) insertLane(id string, ws []stripeWork) {
	n := c.node(id)
	var logs []*wal.Log
	var pending []*bool
	for i := range ws {
		w := &ws[i]
		j := slices.Index(w.replicas, id)
		if j < 0 || n == nil || !n.Alive() {
			continue
		}
		s, sub := w.s, w.obs
		err := resilience.Retry(context.Background(), c.cfg.Retry, func() error {
			if err := c.transport.call(OpInsert, routerID, id); err != nil {
				return err
			}
			// tsdb's fault hook runs before any stripe mutates, so a
			// failed attempt applied nothing and the retry is safe.
			return n.Lake().InsertBatch(sub)
		})
		if err != nil {
			// The replica may or may not hold this batch now — either
			// way it can no longer be trusted to match its peers, and
			// its position in the stripe history is unknown (-1), so a
			// WAL suffix catch-up can never resume from it.
			n.stripeSeq[s].Store(-1)
			continue
		}
		l, err := c.walAppendInsert(n, s, w.seq, sub)
		if err != nil {
			// The WAL failure crashed the node; its lake held the batch
			// but nothing durable says so, which is exactly the state a
			// crash after apply would leave — it drops from serving.
			continue
		}
		w.ok[j] = true
		if l != nil {
			logs = append(logs, l)
			pending = append(pending, &w.ok[j])
		}
	}
	if err := c.walGroupSync(n, logs); err != nil {
		for _, ok := range pending {
			*ok = false
		}
	}
}

// stripeServers returns stripe s's in-sync replica set, sorted;
// aliveOnly filters to live nodes.
func (c *Cluster) stripeServers(s int, aliveOnly bool) []string {
	c.lmu.Lock()
	ids := make([]string, 0, len(c.servers[s]))
	for id := range c.servers[s] {
		ids = append(ids, id)
	}
	c.lmu.Unlock()
	sort.Strings(ids)
	if !aliveOnly {
		return ids
	}
	live := ids[:0]
	for _, id := range ids {
		if n := c.node(id); n != nil && n.Alive() {
			live = append(live, id)
		}
	}
	return live
}

func (c *Cluster) markStripeUnsynced(s int, id string) {
	c.lmu.Lock()
	delete(c.servers[s], id)
	c.lmu.Unlock()
}

// RunWithStats executes a query scatter-gather: every stripe is scanned
// on one live in-sync replica (stripes grouped per node, nodes scanned
// concurrently), and the per-stripe partials fold back together in
// ascending stripe order — tsdb.MergeStripePartials replays Run's exact
// float accumulation order, so the merged frame is byte-identical to a
// single node running the same query.
func (c *Cluster) RunWithStats(q tsdb.Query) (*schema.Frame, tsdb.QueryStats, error) {
	t0 := time.Now()
	var st tsdb.QueryStats
	parts, owners, err := c.scatter(q)
	if err != nil {
		return nil, st, err
	}
	frame, err := tsdb.MergeStripePartials(q, parts)
	if err != nil {
		return nil, st, err
	}
	st.Workers = owners
	for _, sp := range parts {
		st.SegmentsScanned += sp.Stats.SegmentsScanned
		st.SegmentsPruned += sp.Stats.SegmentsPruned
		st.CellsScanned += sp.Stats.CellsScanned
		st.CellsMatched += sp.Stats.CellsMatched
	}
	st.TotalWall = time.Since(t0)
	return frame, st, nil
}

// Run executes a query across the cluster. See RunWithStats.
func (c *Cluster) Run(q tsdb.Query) (*schema.Frame, error) {
	f, _, err := c.RunWithStats(q)
	return f, err
}

// scatter fans the query's stripe scans across the owning nodes and
// returns the partials in ascending stripe order plus the node fan-out.
func (c *Cluster) scatter(q tsdb.Query) ([]*tsdb.StripePartial, int, error) {
	// Pick each stripe's scan owner: the first live in-sync replica in
	// the stripe's ring-preference order. It is deterministic, so
	// repeated queries hit warm nodes, and it spreads the scans the way
	// the ring spreads the stripes (the smallest replica ID would hand
	// one node most of them). Replicas are byte-identical, so the owner
	// never changes an answer.
	byNode := make(map[string][]int)
	for s := 0; s < tsdb.NumStripes; s++ {
		live := c.stripeServers(s, true)
		if len(live) == 0 {
			return nil, 0, fmt.Errorf("%w: %d", ErrStripeDown, s)
		}
		owner := live[0]
		for _, id := range c.stripePreference(s) {
			if slices.Contains(live, id) {
				owner = id
				break
			}
		}
		byNode[owner] = append(byNode[owner], s)
	}
	parts := make([]*tsdb.StripePartial, tsdb.NumStripes)
	var wg sync.WaitGroup
	errs := make([]error, 0, len(byNode))
	var emu sync.Mutex
	for id, stripes := range byNode {
		wg.Add(1)
		go func(id string, stripes []int) {
			defer wg.Done()
			n := c.node(id)
			for _, s := range stripes {
				if n == nil || !n.Alive() {
					emu.Lock()
					errs = append(errs, &nodeDownError{id: id})
					emu.Unlock()
					return
				}
				var sp *tsdb.StripePartial
				err := resilience.Retry(context.Background(), c.cfg.Retry, func() error {
					if err := c.transport.call(OpQuery, routerID, id); err != nil {
						return err
					}
					var serr error
					sp, serr = n.Lake().StripePartial(q, s)
					return serr
				})
				if err != nil {
					emu.Lock()
					errs = append(errs, err)
					emu.Unlock()
					return
				}
				parts[s] = sp
			}
		}(id, stripes)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, 0, errs[0]
	}
	return parts, len(byNode), nil
}

// TopN ranks a dimension's values across the cluster, byte-identical to
// a single node's tsdb.TopN: the scatter-gather merge yields the same
// per-value aggregates, and the ordering (value descending, dimension
// ascending on ties) is total, so ranks cannot be perturbed by where
// stripes were scanned.
func (c *Cluster) TopN(q tsdb.Query, dim string, n int) ([]tsdb.TopNEntry, error) {
	q.GroupBy = []string{dim}
	q.Granularity = 0
	parts, _, err := c.scatter(q)
	if err != nil {
		return nil, err
	}
	frame, err := tsdb.MergeStripePartials(q, parts)
	if err != nil {
		return nil, err
	}
	entries := make([]tsdb.TopNEntry, 0, frame.Len())
	for i := 0; i < frame.Len(); i++ {
		r := frame.Row(i)
		entries = append(entries, tsdb.TopNEntry{Dim: r[1].StrVal(), Value: r[2].FloatVal()})
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Value != entries[j].Value {
			return entries[i].Value > entries[j].Value
		}
		return entries[i].Dim < entries[j].Dim
	})
	if n > 0 && len(entries) > n {
		entries = entries[:n]
	}
	return entries, nil
}

// Repair restores full replication after failures and membership
// changes: every partition re-replicates its committed suffix out to a
// refreshed follower set (and hands leadership back to ring owners),
// and every under-replicated lake stripe is resynced onto its desired
// owners from a healthy replica. It is idempotent and safe to run on a
// schedule (see RepairLoop); the bench's failover time-to-recovery is
// Kill → first Repair after which Health reports ok.
func (c *Cluster) Repair() error {
	var firstErr error
	for _, t := range c.topicList() {
		for _, ps := range t.parts {
			if err := c.repairPartition(t, ps); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := c.repairLake(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// repairPartition refreshes one partition's replica set: ensure a live
// leader, rebuild followers from ring preference (restarted nodes
// re-enter here), catch every follower up, and once the ring's primary
// owner is fully caught up hand leadership back to it so placement
// converges after membership changes.
func (c *Cluster) repairPartition(t *topicState, ps *partitionState) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := c.ensureLeaderLocked(t, ps); err != nil {
		return err
	}
	c.refreshFollowersLocked(ps)
	if err := c.commitSuffixLocked(t, ps); err != nil {
		return err
	}
	pref := c.preference(partitionKey(ps.topic, ps.idx))
	if len(pref) == 0 {
		return nil
	}
	primary := ""
	for _, id := range pref {
		if n := c.node(id); n != nil && n.Alive() {
			primary = id
			break
		}
	}
	if primary == "" || primary == ps.leader {
		return nil
	}
	// The primary is among the freshly-synced followers (refresh puts
	// live preference holders first), so after a successful commit pass
	// its log holds the full committed prefix: transfer is safe.
	if end, err := c.node(primary).Broker.EndOffset(t.name, ps.idx); err == nil && end >= ps.hw {
		ps.leader = primary
		ps.epoch++
		c.refreshFollowersLocked(ps)
	}
	return nil
}

// repairLake converges every stripe's replica set toward its ring
// placement: missing desired replicas are resynced (drop + ordered
// re-import) from a live in-sync peer, then stragglers beyond RF are
// trimmed. The stripe's write mutex is held across each copy so no
// insert interleaves with the snapshot.
func (c *Cluster) repairLake() error {
	var firstErr error
	for s := 0; s < tsdb.NumStripes; s++ {
		if err := c.repairStripe(s); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (c *Cluster) repairStripe(s int) error {
	c.stripeMu[s].Lock()
	defer c.stripeMu[s].Unlock()
	live := c.stripeServers(s, true)
	desired := make([]string, 0, c.cfg.RF)
	for _, id := range c.stripePreference(s) {
		if len(desired) >= c.cfg.RF {
			break
		}
		if n := c.node(id); n != nil && n.Alive() {
			desired = append(desired, id)
		}
	}
	if len(live) == 0 {
		// Every in-sync replica is gone; the stripe's data is lost with
		// them (or was empty). If no replica at all remains — not even a
		// dead one that might restart with nothing — seed the desired
		// owners as empty-but-in-sync so ingest can resume.
		if len(c.stripeServers(s, false)) == 0 {
			c.lmu.Lock()
			for _, id := range desired {
				c.servers[s][id] = true
			}
			c.lmu.Unlock()
			return nil
		}
		return fmt.Errorf("%w: %d", ErrStripeDown, s)
	}
	src := live[0]
	have := make(map[string]bool, len(live))
	for _, id := range live {
		have[id] = true
	}
	for _, id := range desired {
		if have[id] {
			continue
		}
		// Cheap path first: replay only the missing suffix out of a live
		// peer's WAL. Falls back to the wholesale copy when the target's
		// position is unknown or the peer's log cannot reach back to it.
		if c.catchupStripeFromWAL(s, src, id) {
			have[id] = true
			continue
		}
		if err := c.resyncStripe(s, src, id); err != nil {
			return err
		}
		have[id] = true
	}
	// Trim replicas outside the desired set once it is full, so leave/
	// join rebalances converge instead of accumulating copies.
	if len(desired) >= c.cfg.RF {
		want := make(map[string]bool, len(desired))
		for _, id := range desired {
			want[id] = true
		}
		for _, id := range c.stripeServers(s, false) {
			if want[id] {
				continue
			}
			c.markStripeUnsynced(s, id)
			if n := c.node(id); n != nil && n.Alive() {
				_ = n.Lake().DropStripes([]int{s})
				// The replica holds nothing now; a stale sequence (or WAL
				// history) would claim otherwise on the next recovery.
				n.stripeSeq[s].Store(0)
				if w := n.WAL(); w != nil {
					_ = w.Remove(stripeLog(s))
				}
			}
		}
	}
	return nil
}

// resyncStripe copies stripe s from src onto tgt: drop whatever tgt
// holds, then import src's order-preserving export. Caller holds
// stripeMu[s], so the copy is atomic with respect to inserts. The
// target's stripe WAL resets — an out-of-band copy is state its log
// never described, so the stripe is no longer disk-recoverable on tgt
// (its history restarts mid-sequence); only peer catch-up or another
// wholesale copy can rebuild it after tgt's next crash.
func (c *Cluster) resyncStripe(s int, src, tgt string) error {
	sn, tn := c.node(src), c.node(tgt)
	if sn == nil || !sn.Alive() {
		return &nodeDownError{id: src}
	}
	if tn == nil || !tn.Alive() {
		return &nodeDownError{id: tgt}
	}
	return resilience.Retry(context.Background(), c.cfg.Retry, func() error {
		if err := c.transport.call(OpResync, src, tgt); err != nil {
			return err
		}
		frame, err := sn.Lake().ExportStripes([]int{s})
		if err != nil {
			return err
		}
		if err := tn.Lake().DropStripes([]int{s}); err != nil {
			return err
		}
		if err := tn.Lake().ImportRollups(frame); err != nil {
			return err
		}
		if w := tn.WAL(); w != nil {
			_ = w.Remove(stripeLog(s))
		}
		tn.stripeSeq[s].Store(c.stripeSeqs[s].Load())
		c.lmu.Lock()
		c.servers[s][tgt] = true
		c.lmu.Unlock()
		c.lakeResyncs.Add(1)
		return nil
	})
}

// RepairLoop runs Repair on a cadence under a resilience supervisor
// until ctx ends — the background re-replication daemon. The supervisor
// restarts the loop if a repair pass panics; its damping window uses the
// cluster clock, so failover tests can fast-forward instead of sleeping.
func (c *Cluster) RepairLoop(ctx context.Context, every time.Duration) error {
	if every <= 0 {
		every = time.Second
	}
	sup := resilience.NewSupervisor(resilience.SupervisorConfig{
		Name:  "cluster-repair",
		Clock: c.cfg.Clock,
	})
	return sup.Run(ctx, func(ctx context.Context) error {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-tick.C:
				_ = c.Repair() // degraded partitions/stripes retry next tick
			}
		}
	})
}
