package cluster

import (
	"errors"
	"net/url"
	"strconv"
	"time"

	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
	"odakit/internal/wal"
)

// WAL log naming inside a node's directory: one log per topic partition
// replica, one per lake stripe replica. Topic names are path-escaped so
// arbitrary names cannot collide or escape the directory.
func partitionLog(topic string, idx int) string {
	return "t/" + url.PathEscape(topic) + "/" + strconv.Itoa(idx)
}

func stripeLog(s int) string { return "lake/" + strconv.Itoa(s) }

// errStopReplay aborts a WAL replay early without reporting failure —
// recovery trusts the contiguous prefix it has seen so far.
var errStopReplay = errors.New("cluster: stop wal replay")

// NodeWAL exposes a node's write-ahead log handle (nil when the cluster
// runs without Config.WALDir) so chaos suites can install fault hooks
// and crash the node at durability boundaries.
func (c *Cluster) NodeWAL(id string) *wal.NodeWAL {
	n := c.node(id)
	if n == nil {
		return nil
	}
	return n.WAL()
}

// walCrash fails a node whose WAL could not persist: an ack without
// durability would be a lie the next Restart exposes, so the node
// crashes instead. Callers hold ps.mu or stripeMu, so this must not run
// Kill's eager failover (it takes every partition lock) — leadership
// moves lazily through ensureLeaderLocked, exactly as if the process
// had died mid-write. The returned error is transient: the node can
// restart and recover.
func (c *Cluster) walCrash(n *Node) error {
	if n.alive.CompareAndSwap(true, false) {
		c.walCrashes.Add(1)
		c.epoch.Add(1)
	}
	return &nodeDownError{id: n.ID}
}

// walAppendRecords stages replicated records on a node's partition log
// and returns the log, which the caller's lane group-syncs (walGroupSync)
// before counting the node's ack. It returns nil when the node runs
// without a WAL; a failed append crashes the node.
func (c *Cluster) walAppendRecords(n *Node, name string, recs []stream.Record) (*wal.Log, error) {
	if n.WAL() == nil {
		return nil, nil // build no frames for a node that keeps no log
	}
	entries := make([]wal.Entry, len(recs))
	for i, r := range recs {
		entries[i] = wal.Entry{
			Kind: wal.KindRecord, Offset: r.Offset, Ts: r.Ts.UnixNano(),
			Key: r.Key, Value: r.Value,
		}
	}
	return c.walAppend(n, name, entries...)
}

// walAppendInsert stages one lake insert batch on a replica's stripe
// log under its cluster-wide sequence number; like walAppendRecords,
// the batch is durable only once the caller group-syncs the log.
func (c *Cluster) walAppendInsert(n *Node, s int, seq int64, obs []schema.Observation) (*wal.Log, error) {
	return c.walAppend(n, stripeLog(s), wal.Entry{Kind: wal.KindInsert, Seq: seq, Obs: obs})
}

// walAppend appends entries to one of a node's logs, returning the log
// (nil when the node runs without a WAL). A failure crashes the node.
func (c *Cluster) walAppend(n *Node, name string, entries ...wal.Entry) (*wal.Log, error) {
	w := n.WAL()
	if w == nil {
		return nil, nil
	}
	l, err := w.Log(name)
	if err == nil {
		err = l.Append(entries...)
	}
	if err != nil {
		return nil, c.walCrash(n)
	}
	return l, nil
}

// walGroupSync makes every log a lane appended to durable with one
// group commit (wal.SyncLogs) — the barrier the node's acks ride on. A
// dead node syncs nothing (it crashed with the appends unsynced), and a
// failed sync crashes the node.
func (c *Cluster) walGroupSync(n *Node, logs []*wal.Log) error {
	if len(logs) == 0 {
		return nil
	}
	if !n.Alive() {
		return &nodeDownError{id: n.ID}
	}
	if err := wal.SyncLogs(logs...); err != nil {
		return c.walCrash(n)
	}
	return nil
}

// walCommitBarrier records how far the quorum-committed prefix reached
// on one replica's log, and at which leadership epoch the replica
// learned it. Barriers are appended without an fsync of their own — the
// next group sync of the log flushes them, and losing one only shrinks
// the prefix the next recovery trusts, never corrupts it.
func (c *Cluster) walCommitBarrier(n *Node, name string, hw, epoch int64) error {
	_, err := c.walAppend(n, name, wal.Entry{Kind: wal.KindCommit, HW: hw, Epoch: epoch})
	return err
}

// stageLane is one leader node's share of a publish: for each
// partition it leads that has messages to stage, in ascending order, it
// crosses the transport gate, appends the messages to the broker log,
// and stages them on the leader's WAL; then one group sync makes them
// all durable — the leader's half of the "persist before ack" rule
// (followers persist in shipLane). A partition whose step fails drops
// out; a failed sync crashes the leader and fails every partition it
// staged.
func (c *Cluster) stageLane(id string, works []partWork) {
	ld := c.node(id)
	var logs []*wal.Log
	var pending []*partWork
	for i := range works {
		w := &works[i]
		if w.stage == nil || w.ps.leader != id {
			continue
		}
		if ld == nil || !ld.Alive() {
			w.err = &nodeDownError{id: id}
			continue
		}
		if w.err = c.transport.call(OpPublish, routerID, id); w.err != nil {
			continue
		}
		if w.staged, w.err = ld.Broker.PublishBatchTo(w.t.name, w.ps.idx, w.stage); w.err != nil {
			continue
		}
		if ld.WAL() == nil {
			continue
		}
		// Read the appended records back so the WAL frames carry the
		// broker-assigned offsets and timestamps replay needs.
		recs, err := ld.Broker.FetchNoWait(w.t.name, w.ps.idx, w.staged, len(w.stage))
		if err != nil {
			w.err = err
			continue
		}
		l, err := c.walAppendRecords(ld, partitionLog(w.t.name, w.ps.idx), recs)
		if err != nil {
			w.err = err
			continue
		}
		logs = append(logs, l)
		pending = append(pending, w)
	}
	if err := c.walGroupSync(ld, logs); err != nil {
		for _, w := range pending {
			w.err = err
		}
	}
}

// recoverNode replays a freshly-reopened WAL into the node's empty
// broker and lake — the disk half of Restart. It reports whether any
// state was recovered (false means the WAL was empty or entirely
// fenced, and Repair re-replicates from peers wholesale).
func (c *Cluster) recoverNode(n *Node, w *wal.NodeWAL) bool {
	recovered := false
	for _, t := range c.topicList() {
		for _, ps := range t.parts {
			if c.recoverPartition(n, w, t, ps) {
				recovered = true
			}
		}
	}
	for s := 0; s < tsdb.NumStripes; s++ {
		if c.recoverStripe(n, w, s) {
			recovered = true
		}
	}
	return recovered
}

// recoverPartition rebuilds one partition replica from the node's WAL:
// replay every frame (later appends at an offset win, mirroring a
// failover's staged-suffix rewrite), trust records only up to the last
// commit barrier, fence below any truncation performed at an epoch the
// barrier never saw, and require the surviving prefix to be contiguous
// from offset zero. The rebuilt prefix enters the node's broker with
// its original offsets; Repair then ships only the suffix past it from
// the current leader. ps.mu is taken here, so recovery serializes with
// in-flight publishes to the same partition.
func (c *Cluster) recoverPartition(n *Node, w *wal.NodeWAL, t *topicState, ps *partitionState) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	l, err := w.Log(partitionLog(t.name, ps.idx))
	if err != nil {
		return false
	}
	byOff := make(map[int64]wal.Entry)
	walHW, walEpoch := int64(0), int64(-1)
	if _, err := l.Replay(func(e wal.Entry) error {
		switch e.Kind {
		case wal.KindRecord:
			byOff[e.Offset] = e
		case wal.KindCommit:
			// The LAST barrier in file order wins: it is the replica's
			// latest knowledge. A chronologically newer barrier may carry a
			// LOWER hw (the cluster truncated beyond-quorum loss); trusting
			// an older, higher one would resurrect superseded records.
			walHW, walEpoch = e.HW, e.Epoch
		}
		return nil
	}); err != nil {
		return false
	}
	// Fence: any truncation performed at an epoch after the barrier's
	// means offsets ≥ its cut may have been rewritten while this replica
	// was down. Only the prefix below every such cut is trustworthy.
	valid := walHW
	for _, tr := range ps.truncs {
		if tr.epoch > walEpoch && tr.off < valid {
			valid = tr.off
		}
	}
	if valid <= 0 {
		return false
	}
	recs := make([]stream.Record, 0, len(byOff))
	for off := int64(0); off < valid; off++ {
		e, ok := byOff[off]
		if !ok {
			valid = off // gap: trust only the contiguous prefix below it
			break
		}
		recs = append(recs, stream.Record{
			Topic: t.name, Partition: ps.idx, Offset: off,
			Ts: time.Unix(0, e.Ts).UTC(), Key: e.Key, Value: e.Value,
		})
	}
	if len(recs) == 0 {
		return false
	}
	for i := 0; i < len(recs); i += 512 {
		end := i + 512
		if end > len(recs) {
			end = len(recs)
		}
		if err := n.Broker.ReplicateBatch(t.name, ps.idx, recs[i:end]); err != nil {
			return false
		}
	}
	ps.acked[n.ID] = valid
	c.walRecoveredRecords.Add(int64(len(recs)))
	// Re-barrier at the recovered position under the current epoch, so
	// the next restart replays to here without re-deriving the fence.
	if err := l.Append(wal.Entry{Kind: wal.KindCommit, HW: valid, Epoch: ps.epoch}); err == nil {
		_ = l.Sync()
	}
	return true
}

// recoverStripe rebuilds one lake stripe replica by re-inserting the
// WAL's contiguous insert-batch history (sequences 1, 2, …) in original
// order — per-stripe insertion order is what makes replica scans
// byte-identical, and replay preserves it. A replica that recovers the
// stripe's full history re-enters the serving set immediately; one that
// recovers a prefix waits for catchupStripeFromWAL (or a wholesale
// resync) in the next Repair pass.
func (c *Cluster) recoverStripe(n *Node, w *wal.NodeWAL, s int) bool {
	c.stripeMu[s].Lock()
	defer c.stripeMu[s].Unlock()
	l, err := w.Log(stripeLog(s))
	if err != nil {
		return false
	}
	applied, rows := int64(0), int64(0)
	if _, err := l.Replay(func(e wal.Entry) error {
		if e.Kind != wal.KindInsert {
			return nil
		}
		if e.Seq != applied+1 {
			// A history that does not start at 1 (the log was reset by a
			// wholesale resync) or has a gap cannot rebuild the stripe.
			return errStopReplay
		}
		if err := n.Lake().InsertBatch(e.Obs); err != nil {
			return errStopReplay
		}
		applied = e.Seq
		rows += int64(len(e.Obs))
		return nil
	}); err != nil && !errors.Is(err, errStopReplay) {
		return false
	}
	n.stripeSeq[s].Store(applied)
	c.walRecoveredRows.Add(rows)
	if applied > 0 && applied == c.stripeSeqs[s].Load() {
		c.lmu.Lock()
		c.servers[s][n.ID] = true
		c.lmu.Unlock()
	}
	return applied > 0
}

// catchupStripeFromWAL brings tgt's stripe s from its applied sequence
// up to the cluster's by replaying only the missing suffix out of a
// live peer's WAL — the cheap path Repair tries before a wholesale
// resync, and the one that works across a partially-partitioned
// transport (one reachable peer suffices). Caller holds stripeMu[s], so
// the peer's log is stable. Returns whether tgt ended in sync; false
// falls back to resyncStripe.
func (c *Cluster) catchupStripeFromWAL(s int, src, tgt string) bool {
	target := c.stripeSeqs[s].Load()
	tn := c.node(tgt)
	if tn == nil || !tn.Alive() {
		return false
	}
	have := tn.stripeSeq[s].Load()
	if have < 0 || have > target {
		return false // ambiguous replica state: only a wholesale copy fixes it
	}
	if have == target {
		c.lmu.Lock()
		c.servers[s][tgt] = true
		c.lmu.Unlock()
		return true
	}
	sn := c.node(src)
	if sn == nil || !sn.Alive() || sn.WAL() == nil {
		return false
	}
	sl, err := sn.WAL().Log(stripeLog(s))
	if err != nil {
		return false
	}
	var ins []wal.Entry
	if _, err := sl.Replay(func(e wal.Entry) error {
		if e.Kind == wal.KindInsert {
			ins = append(ins, e)
		}
		return nil
	}); err != nil {
		return false
	}
	// The peer's usable history is the contiguous run of sequences
	// ending the log; it must end at the cluster sequence and reach back
	// to tgt's position, or a suffix replay would leave a gap.
	if len(ins) == 0 || ins[len(ins)-1].Seq != target {
		return false
	}
	start := len(ins) - 1
	for start > 0 && ins[start-1].Seq == ins[start].Seq-1 {
		start--
	}
	if ins[start].Seq > have+1 {
		return false
	}
	for _, e := range ins[start:] {
		if e.Seq <= have {
			continue
		}
		if err := c.transport.call(OpResync, src, tgt); err != nil {
			return false
		}
		if err := tn.Lake().InsertBatch(e.Obs); err != nil {
			tn.stripeSeq[s].Store(-1)
			return false
		}
		l, err := c.walAppendInsert(tn, s, e.Seq, e.Obs)
		if err != nil {
			return false
		}
		if l != nil {
			if err := c.walGroupSync(tn, []*wal.Log{l}); err != nil {
				return false
			}
		}
		tn.stripeSeq[s].Store(e.Seq)
	}
	c.lmu.Lock()
	c.servers[s][tgt] = true
	c.lmu.Unlock()
	c.lakeCatchups.Add(1)
	return true
}
