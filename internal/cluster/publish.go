package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"odakit/internal/resilience"
	"odakit/internal/stream"
	"odakit/internal/wal"
)

// fnv32 matches the broker's keyed-routing hash, so a keyed message
// lands on the same partition whether published through a cluster or a
// single broker.
func fnv32(key []byte) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range key {
		h = (h ^ uint32(b)) * prime32
	}
	return h
}

// fingerprintMsgs identifies a publish batch for retry deduplication.
func fingerprintMsgs(msgs []stream.Message) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b []byte) {
		h = (h ^ uint64(len(b))) * prime64
		for _, c := range b {
			h = (h ^ uint64(c)) * prime64
		}
	}
	for _, m := range msgs {
		mix(m.Key)
		mix(m.Value)
	}
	return h
}

// PublishBatch publishes a batch through the cluster: each message
// routes to a partition (key hash, cluster-level round-robin when
// keyless — identical placement to a single broker for keyed messages),
// the partition leader appends it, and followers replicate it before
// the batch commits and becomes readable.
//
// Retry semantics: on error, retry the same batch. Keyed messages are
// exactly-once — each partition remembers its staged (appended but
// uncommitted) batch by fingerprint and resumes the commit instead of
// re-appending, even across a leader failover that lost part of the
// staged suffix. Keyless messages re-route through the round-robin
// cursor on retry and may duplicate; use keys when replay matters.
func (c *Cluster) PublishBatch(topicName string, msgs []stream.Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	t, err := c.topic(topicName)
	if err != nil {
		return 0, err
	}
	byPart := make([][]stream.Message, len(t.parts))
	for _, m := range msgs {
		var p int
		if len(m.Key) == 0 {
			p = int(t.rr.Add(1) % uint64(len(t.parts)))
		} else {
			p = int(fnv32(m.Key) % uint32(len(t.parts)))
		}
		byPart[p] = append(byPart[p], m)
	}
	works := make([]partWork, 0, len(byPart))
	for p, sub := range byPart {
		if len(sub) > 0 {
			works = append(works, partWork{t: t, ps: t.parts[p], msgs: sub, fp: fingerprintMsgs(sub)})
		}
	}
	c.publish(works)
	published := 0
	var failed []stream.Message
	var failErr error
	for _, w := range works {
		if w.err != nil {
			failed = append(failed, w.msgs...)
			failErr = w.err
			continue
		}
		published += len(w.msgs)
	}
	if failErr != nil {
		return published, &stream.PartialPublishError{Published: published, Failed: failed, Err: failErr}
	}
	return published, nil
}

// Publish publishes one record, returning its partition and committed
// offset.
func (c *Cluster) Publish(topicName string, key, value []byte) (int, int64, error) {
	t, err := c.topic(topicName)
	if err != nil {
		return 0, 0, err
	}
	var p int
	if len(key) == 0 {
		p = int(t.rr.Add(1) % uint64(len(t.parts)))
	} else {
		p = int(fnv32(key) % uint32(len(t.parts)))
	}
	msgs := []stream.Message{{Key: key, Value: value}}
	works := []partWork{{t: t, ps: t.parts[p], msgs: msgs, fp: fingerprintMsgs(msgs)}}
	c.publish(works)
	if err := works[0].err; err != nil {
		return 0, 0, err
	}
	return p, works[0].first, nil
}

// partWork is one partition's share of a publish batch — or of a repair
// pass, which carries no messages — as it moves through the stage, ship
// and commit phases. The router fills it in under the partition lock; a
// lane writes only its own results into it (err and staged for a
// leader's lane, one ships element for a follower's), and selects its
// partitions by fields no lane writes (stage, ps.leader, ps.followers).
type partWork struct {
	t    *topicState
	ps   *partitionState
	msgs []stream.Message // the partition's sub-batch; nil for a repair pass
	fp   uint64           // fingerprint of msgs, hashed once per publish

	// stage is what the leader must append: nil (the batch already
	// committed, or a repair pass), the suffix a failover lost from the
	// staged batch being retried, or the whole batch. at is the leader
	// end offset a resumed suffix must land at, -1 for a new batch.
	stage  []stream.Message
	at     int64
	staged int64 // where the stage lane appended
	done   bool  // the retried batch had already committed

	first int64        // the batch's first committed offset
	lend  int64        // the leader end offset followers must reach
	ships []shipResult // one per ps.followers entry, written by its lane
	err   error
}

// shipResult is one follower's replication outcome for one partition.
type shipResult struct {
	end     int64 // follower end offset once caught up
	shipped bool  // records moved: the follower's log grew
	err     error
}

// publish runs the publish protocol for a batch's partitions, given in
// ascending partition order, holding every partition lock for the
// whole batch (taken in that order, so concurrent batches cannot
// deadlock). The lock is what admits at most one staged batch per
// partition — which is what lets a fingerprint match identify "the same
// batch, retried".
//
//   - The router resolves each partition: a live leader, and what it
//     must stage (resolveLocked).
//   - Stage: one lane per leader node appends its partitions and makes
//     them durable with one WAL group sync (stageLocked).
//   - Ship and commit: one lane per follower node replicates and group
//     syncs; then the router commits each partition that reached
//     quorum (commitLocked).
//
// Once every partition committed, the caller is about to observe
// success, so no retry of the batch can arrive: each partition's dedupe
// state is dropped. Until then it must survive — a partial failure
// retries the full batch, and the partitions that already committed
// dedupe their sub-batches by fingerprint. Dropping it is what lets a
// later batch with identical content (heartbeats, constant-valued
// events) append as a new publish instead of being silently deduped.
func (c *Cluster) publish(works []partWork) {
	for i := range works {
		works[i].ps.mu.Lock()
	}
	defer func() {
		for i := range works {
			works[i].ps.mu.Unlock()
		}
	}()
	for i := range works {
		c.resolveLocked(&works[i])
	}
	c.stageLocked(works)
	c.commitLocked(works)
	for i := range works {
		if works[i].err != nil {
			return
		}
	}
	for _, w := range works {
		w.ps.ackLocked(w.fp, len(w.msgs))
	}
}

// resolveLocked settles one partition before staging: it ensures a live
// leader (failing over if needed) and decides what the leader must
// append. The new leader's end offset of a retried staged batch can
// only be inside [hw, first+n]: below first+n when the promoted
// follower had not replicated the whole staged batch, never above
// because the partition lock admits no other publish while a batch is
// staged. ps.mu held.
func (c *Cluster) resolveLocked(w *partWork) {
	t, ps := w.t, w.ps
	if w.err = c.ensureLeaderLocked(t, ps); w.err != nil {
		return
	}
	if st := ps.inflight; st != nil && st.fp == w.fp && st.n == len(w.msgs) {
		// The same batch, retried: it is already on the leader log (or
		// partially, after a failover). Resume the commit, never
		// re-append the whole batch.
		w.first = st.first
		if st.committed {
			w.done = true // a Repair pass finished the commit for us
			return
		}
		ld := c.node(ps.leader)
		if ld == nil || !ld.Alive() {
			w.err = &nodeDownError{id: ps.leader}
			return
		}
		end, err := ld.Broker.EndOffset(t.name, ps.idx)
		if err != nil {
			w.err = err
			return
		}
		want := st.first + int64(st.n)
		if end > want {
			w.err = fmt.Errorf("cluster: %s/%d leader end %d beyond staged region end %d",
				t.name, ps.idx, end, want)
			return
		}
		if end < want {
			// Failover lost a suffix of the staged batch; re-append exactly
			// the missing tail so the region is contiguous again.
			w.stage, w.at = w.msgs, end
			if end > st.first {
				w.stage = w.msgs[end-st.first:]
			}
		}
		return
	}
	if st := ps.findUnacked(w.fp, len(w.msgs)); st != nil {
		// Committed while this batch's publisher was between retries,
		// and displaced by another publisher's batch since.
		w.first, w.done = st.first, true
		return
	}
	if st := ps.inflight; st != nil && !st.committed {
		// A different batch while one is staged: its publisher failed
		// (and may retry) or gave up. Resolve the old region first
		// (commit whatever the leader log holds) so a single staged
		// region remains; its dedupe state moves to unacked.
		if w.err = c.commitSuffixLocked(t, ps); w.err != nil {
			return
		}
	}
	ps.displaceLocked()
	w.stage, w.at = w.msgs, -1
}

// stageLocked appends each partition's resolved messages on its
// leader: one lane per leader node, each taking its partitions in
// ascending order and ending in one WAL group sync (stageLane). The
// router then records the staged regions in partition order. ps.mu
// held for every partition.
func (c *Cluster) stageLocked(works []partWork) {
	ids := make([]string, 0, len(works))
	for _, w := range works {
		if w.stage != nil {
			ids = append(ids, w.ps.leader)
		}
	}
	c.runLanes(ids, func(id string) { c.stageLane(id, works) })
	for i := range works {
		w := &works[i]
		if w.err != nil || w.stage == nil {
			continue
		}
		ps := w.ps
		if w.at < 0 {
			ps.inflight = &staged{fp: w.fp, n: len(w.msgs), first: w.staged}
			w.first = w.staged
			continue
		}
		if w.staged != w.at {
			w.err = fmt.Errorf("cluster: %s/%d staged re-append landed at %d, want %d",
				w.t.name, ps.idx, w.staged, w.at)
			continue
		}
		if st := ps.inflight; w.at <= st.first {
			st.first = w.staged // whole batch was lost; region restarts here
			w.first = w.staged
		}
	}
}

// commitSuffixLocked replicates one partition's uncommitted suffix and
// commits it on quorum (see commitLocked). ps.mu held.
func (c *Cluster) commitSuffixLocked(t *topicState, ps *partitionState) error {
	works := []partWork{{t: t, ps: ps}}
	c.commitLocked(works)
	return works[0].err
}

// commitLocked replicates each partition's uncommitted suffix [hw,
// leaderEnd) to its followers — one ship lane per follower node, ending
// in one WAL group sync (shipLane) — then, in partition order, advances
// hw wherever Quorum replicas (leader included) hold it: the "followers
// ack before publish commits" half of the protocol. On a quorum miss
// the suffix stays staged and invisible; the error is transient so
// publishers retry. ps.mu held for every partition.
func (c *Cluster) commitLocked(works []partWork) {
	ids := make([]string, 0, len(works))
	for i := range works {
		w := &works[i]
		if w.err != nil || w.done {
			continue
		}
		ps := w.ps
		ld := c.node(ps.leader)
		if ld == nil || !ld.Alive() {
			w.err = &nodeDownError{id: ps.leader}
			continue
		}
		if w.lend, w.err = ld.Broker.EndOffset(w.t.name, ps.idx); w.err != nil {
			continue
		}
		// A dead follower — or a follower set left short by a failover
		// when fewer than RF members were alive — would pin the
		// partition below quorum until the next repair pass; re-pick
		// followers from live members instead, so a node loss (or a
		// restart that restores RF live members) changes durability for
		// exactly one commit — the replacement is caught up inline
		// before it acks.
		refresh := len(ps.followers) < c.cfg.RF-1
		for _, r := range ps.followers {
			if n := c.node(r); n == nil || !n.Alive() {
				refresh = true
				break
			}
		}
		if refresh {
			c.refreshFollowersLocked(ps)
		}
		ps.acked[ps.leader] = w.lend
		w.ships = make([]shipResult, len(ps.followers))
		ids = append(ids, ps.followers...)
	}
	c.runLanes(ids, func(id string) { c.shipLane(id, works) })
	for i := range works {
		if w := &works[i]; w.err == nil && !w.done {
			w.err = c.commitQuorumLocked(w)
		}
	}
}

// commitQuorumLocked counts one partition's acks after the ship lanes
// ran and, on quorum, advances hw, writes the WAL commit barriers and
// marks the staged batch committed. ps.mu held.
func (c *Cluster) commitQuorumLocked(w *partWork) error {
	t, ps := w.t, w.ps
	acks := 1
	var lastErr error
	for i, r := range ps.followers {
		if res := w.ships[i]; res.err != nil {
			lastErr = res.err
		} else {
			ps.acked[r] = res.end
			acks++
		}
	}
	if acks < c.cfg.Quorum {
		c.quorumFailures.Add(1)
		return &quorumError{topic: t.name, part: ps.idx, acks: acks, quorum: c.cfg.Quorum, cause: lastErr}
	}
	hwBefore := ps.hw
	if w.lend > ps.hw {
		ps.hw = w.lend
	}
	// WAL commit barriers, on the replicas whose knowledge changed this
	// pass: the leader when hw advanced, an acked follower when it also
	// shipped records (its log grew) or hw advanced. Quiescent repair
	// passes change nothing and write nothing. Barrier failures crash
	// the replica (walCrash) but never undo the quorum commit above.
	name := partitionLog(t.name, ps.idx)
	if ps.hw > hwBefore {
		if ld := c.node(ps.leader); ld != nil {
			_ = c.walCommitBarrier(ld, name, ps.hw, ps.epoch)
		}
	}
	for i, r := range ps.followers {
		if res := w.ships[i]; res.err != nil || (!res.shipped && ps.hw == hwBefore) {
			continue
		}
		if fn := c.node(r); fn != nil && fn.Alive() {
			_ = c.walCommitBarrier(fn, name, ps.hw, ps.epoch)
		}
	}
	if ps.inflight != nil {
		// Keep the fingerprint: a publisher retrying this batch after a
		// transient error must still dedupe against it.
		ps.inflight.committed = true
		c.committed.Add(1)
	}
	return nil
}

// shipLane is one follower node's share of a commit: it ships each
// partition it follows, in ascending order (ship), then makes every
// shipped chunk durable with one WAL group sync. A follower's ack
// counts only after that sync returns; a failed sync crashes the node
// and fails every partition of the lane. Partitions the router did not
// prepare for shipping (ships nil) are skipped.
func (c *Cluster) shipLane(id string, works []partWork) {
	var logs []*wal.Log
	for i := range works {
		w := &works[i]
		if j := slices.Index(w.ps.followers, id); j >= 0 && w.ships != nil {
			if l := c.ship(w, id, &w.ships[j]); l != nil {
				logs = append(logs, l)
			}
		}
	}
	if err := c.walGroupSync(c.node(id), logs); err != nil {
		for i := range works {
			w := &works[i]
			if j := slices.Index(w.ps.followers, id); j >= 0 && w.ships != nil {
				w.ships[j].err = err
			}
		}
	}
}

// ship copies the leader log to follower id until the follower holds
// [.., w.lend), recording the outcome in res and returning the WAL log
// the shipped chunks were appended to (nil when none were). Each hop
// crosses the faultable transport under the retry policy;
// ReplicateBatch preserves leader offsets and skips records the
// follower already holds, so re-delivery after a failed session cannot
// duplicate or reorder. The chunks are appended unsynced: the lane's
// group sync makes them durable before any ack counts.
func (c *Cluster) ship(w *partWork, id string, res *shipResult) *wal.Log {
	t, ps := w.t, w.ps
	f := c.node(id)
	if f == nil || !f.Alive() {
		res.err = &nodeDownError{id: id}
		return nil
	}
	ld := c.node(ps.leader)
	if ld == nil || !ld.Alive() {
		res.err = &nodeDownError{id: ps.leader}
		return nil
	}
	var log *wal.Log
	for {
		fend, err := f.Broker.EndOffset(t.name, ps.idx)
		if err != nil {
			res.err = err
			return log
		}
		if fend >= w.lend {
			res.end = fend
			return log
		}
		var recs []stream.Record
		err = resilience.Retry(context.Background(), c.cfg.Retry, func() error {
			if err := c.transport.call(OpReplicate, ps.leader, id); err != nil {
				return err
			}
			var ferr error
			recs, ferr = ld.Broker.FetchNoWait(t.name, ps.idx, fend, 1024)
			if errors.Is(ferr, stream.ErrOffsetTrimmed) {
				// The follower is so far behind that the leader trimmed
				// past it (leader-log retention bounds catch-up replay).
				// Fast-forward to the leader's oldest retained offset;
				// ReplicateBatch adopts the gap.
				oldest, oerr := ld.Broker.OldestOffset(t.name, ps.idx)
				if oerr != nil {
					return oerr
				}
				recs, ferr = ld.Broker.FetchNoWait(t.name, ps.idx, oldest, 1024)
			}
			return ferr
		})
		if err != nil {
			res.err = err
			return log
		}
		if len(recs) == 0 {
			res.err = fmt.Errorf("cluster: %s/%d replication stalled at %d (leader end %d)",
				t.name, ps.idx, fend, w.lend)
			return log
		}
		if err := f.Broker.ReplicateBatch(t.name, ps.idx, recs); err != nil {
			res.err = err
			return log
		}
		l, err := c.walAppendRecords(f, partitionLog(t.name, ps.idx), recs)
		if err != nil {
			res.err = err
			return log
		}
		log = l
		res.shipped = true
		c.replicated.Add(int64(len(recs)))
	}
}

// runLanes runs lane once per distinct node in ids. Each lane takes
// its partitions or stripes in ascending order, so every node's WAL
// hook sequence stays the same however the lanes interleave. With WALs
// the lanes run concurrently, one goroutine per node beyond the first,
// which runs on the caller: each lane ends in a group sync, and the
// syncs overlap. Without WALs a lane is a few microseconds of in-memory
// copies, less than a goroutine hand-off costs, so the lanes run in
// turn on the caller.
func (c *Cluster) runLanes(ids []string, lane func(id string)) {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	if c.cfg.WALDir == "" || len(ids) < 2 {
		for _, id := range ids {
			lane(id)
		}
		return
	}
	var wg sync.WaitGroup
	for _, id := range ids[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane(id)
		}()
	}
	lane(ids[0])
	wg.Wait()
}

// FetchNoWait reads committed records from the partition leader,
// capped at the high watermark — staged (unacked) records are never
// visible, which is what makes failover exactly-once for readers.
func (c *Cluster) FetchNoWait(topicName string, partition int, offset int64, max int) ([]stream.Record, error) {
	t, err := c.topic(topicName)
	if err != nil {
		return nil, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return nil, fmt.Errorf("%w: %s/%d", stream.ErrNoPartition, topicName, partition)
	}
	ps := t.parts[partition]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := c.ensureLeaderLocked(t, ps); err != nil {
		return nil, err
	}
	if offset > ps.hw {
		return nil, stream.ErrOffsetInFuture
	}
	if offset == ps.hw {
		return nil, nil
	}
	if err := c.transport.call(OpFetch, routerID, ps.leader); err != nil {
		return nil, err
	}
	ld := c.node(ps.leader)
	recs, err := ld.Broker.FetchNoWait(t.name, ps.idx, offset, max)
	if err != nil {
		return nil, err
	}
	for i, r := range recs {
		if r.Offset >= ps.hw {
			recs = recs[:i]
			break
		}
	}
	return recs, nil
}

// EndOffset returns the partition's high watermark: the end of the
// committed, replicated prefix readers may consume.
func (c *Cluster) EndOffset(topicName string, partition int) (int64, error) {
	t, err := c.topic(topicName)
	if err != nil {
		return 0, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return 0, fmt.Errorf("%w: %s/%d", stream.ErrNoPartition, topicName, partition)
	}
	ps := t.parts[partition]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.hw, nil
}

// OldestOffset returns the leader's oldest retained offset.
func (c *Cluster) OldestOffset(topicName string, partition int) (int64, error) {
	t, err := c.topic(topicName)
	if err != nil {
		return 0, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return 0, fmt.Errorf("%w: %s/%d", stream.ErrNoPartition, topicName, partition)
	}
	ps := t.parts[partition]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := c.ensureLeaderLocked(t, ps); err != nil {
		return 0, err
	}
	ld := c.node(ps.leader)
	return ld.Broker.OldestOffset(t.name, ps.idx)
}
