package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"odakit/internal/atomicfile"
)

const (
	manifestName = "manifest.json"
	segSuffix    = ".seg"
)

// manifestSegment describes one segment file. Sealed segments are
// immutable and trusted to exactly Bytes valid bytes; the final,
// unsealed segment is the append target and is scanned frame-by-frame
// on open.
type manifestSegment struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes,omitempty"`
	Sealed bool   `json:"sealed,omitempty"`
}

type manifestFile struct {
	Segments []manifestSegment `json:"segments"`
}

func segName(i int) string { return fmt.Sprintf("%010d%s", i, segSuffix) }

func segIndex(name string) int {
	i, err := strconv.Atoi(strings.TrimSuffix(name, segSuffix))
	if err != nil {
		return -1
	}
	return i
}

// Log is one append-only log within a NodeWAL (a topic partition's
// records, or a lake stripe's insert history). Appends stage into a
// write buffer; Sync flushes and fsyncs — acks must ride on Sync, and a
// crash loses whatever was only buffered. Safe for concurrent use.
type Log struct {
	w    *NodeWAL
	name string
	dir  string

	mu     sync.Mutex
	closed bool
	segs   []manifestSegment // segs[len-1] is the active (unsealed) tail
	f      *os.File          // active segment, append-only
	size   int64             // flushed bytes in the active segment
	buf    []byte            // appended-but-unflushed frames (lost on crash)
}

// openLog opens (or creates) a log directory, recovering the torn tail.
// Called with the NodeWAL's mutex held.
func openLog(w *NodeWAL, name, dir string) (*Log, error) {
	if err := w.fault(OpOpen, name); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	_, _ = atomicfile.CleanTemps(dir)
	l := &Log{w: w, name: name, dir: dir}
	if err := l.recover(); err != nil {
		return nil, err
	}
	return l, nil
}

func readManifest(dir string) (*manifestFile, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifestFile
	if err := json.Unmarshal(b, &m); err != nil {
		// A corrupt manifest is recoverable: fall back to the directory
		// listing (all segments unsealed, fully rescanned). The empty
		// manifest still disagrees with the disk, so recovery rewrites it.
		return &manifestFile{}, nil
	}
	return &m, nil
}

func listSegs(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), segSuffix) && segIndex(e.Name()) >= 0 {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// recover rebuilds the segment list from disk and truncates the torn
// tail. Sealed segments must decode fully to their manifest-recorded
// length; the unsealed tail (and any segment the manifest never
// recorded — a crash can land between segment creation and the
// manifest write) is scanned and cut at the first bad frame. Anything
// after a truncation point — including whole later segments — is
// dropped, so the surviving log is a clean frame-aligned prefix.
func (l *Log) recover() error {
	m, err := readManifest(l.dir)
	if err != nil {
		return err
	}
	onDisk, err := listSegs(l.dir)
	if err != nil {
		return err
	}
	known := make(map[string]manifestSegment)
	if m != nil {
		for _, s := range m.Segments {
			known[s.Name] = s
		}
	}
	var segs []manifestSegment
	truncated, changed := false, false
	for _, name := range onDisk {
		if truncated {
			// Everything after a truncation point is gone.
			l.w.truncatedBytes.Add(fileSize(filepath.Join(l.dir, name)))
			_ = os.Remove(filepath.Join(l.dir, name))
			changed = true
			continue
		}
		path := filepath.Join(l.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rec, isKnown := known[name]
		limit := int64(len(data))
		if isKnown && rec.Sealed && rec.Bytes < limit {
			limit = rec.Bytes
		}
		_, valid := DecodeFrames(data[:limit])
		bad := int64(valid) < limit || (isKnown && rec.Sealed && int64(len(data)) < rec.Bytes)
		if int64(len(data)) != int64(valid) {
			if err := os.Truncate(path, int64(valid)); err != nil {
				return err
			}
			l.w.truncatedBytes.Add(int64(len(data)) - int64(valid))
			l.w.truncatedTails.Add(1)
			changed = true
		}
		segs = append(segs, manifestSegment{Name: name, Bytes: int64(valid)})
		if bad {
			// This segment lost data: it becomes the new unsealed tail and
			// every later segment is dropped.
			truncated = true
		}
	}
	if len(segs) == 0 {
		segs = append(segs, manifestSegment{Name: segName(0)})
	}
	// All but the last are sealed at their now-verified lengths.
	for i := range segs[:len(segs)-1] {
		segs[i].Sealed = true
	}
	tail := &segs[len(segs)-1]
	tail.Sealed = false
	f, err := os.OpenFile(filepath.Join(l.dir, tail.Name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.segs, l.f, l.size = segs, f, tail.Bytes
	tail.Bytes = 0 // only meaningful for sealed segments
	// A clean open recomputes exactly what the manifest already records;
	// rewriting it would put two fsyncs on every log open (recovery
	// replays open every log, so that cost lands on restart latency).
	// A log with no manifest whose only segment is the unsealed tail
	// needs none either: the tail is rescanned on every open, so such a
	// manifest would record nothing (and a fresh log would pay a temp
	// file, an fsync and a rename to say so). Persist only when recovery
	// learned something: a truncation, a sealed or dropped segment, or a
	// manifest that disagrees with the disk.
	if m != nil && manifestEqual(m.Segments, segs) {
		return nil
	}
	if m == nil && len(segs) == 1 && !changed {
		return nil
	}
	return l.writeManifestLocked()
}

func manifestEqual(a, b []manifestSegment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (l *Log) writeManifestLocked() error {
	b, err := json.Marshal(manifestFile{Segments: l.segs})
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(filepath.Join(l.dir, manifestName), b, 0o644)
}

// Append stages entries in the log's write buffer. They become durable
// only at the next Sync; callers must not ack until Sync returns.
func (l *Log) Append(entries ...Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.w.fault(OpAppend, l.name); err != nil {
		return err
	}
	for _, e := range entries {
		b, err := AppendFrame(l.buf, e)
		if err != nil {
			return err
		}
		l.buf = b
	}
	l.w.appends.Add(int64(len(entries)))
	return nil
}

// Sync flushes the buffer to the active segment and fsyncs it — the
// durability barrier replication acks ride on. Segment rotation happens
// here (never mid-buffer), so a sealed segment is always fully durable.
func (l *Log) Sync() error { return SyncLogs(l) }

// maxIdleBuf caps the write buffer a log keeps between syncs. One sync
// can cover a large flush (a follower's whole shipped suffix); keeping
// that capacity would pin the largest flush per log for good.
const maxIdleBuf = 128 << 10

// SyncLogs is the group commit: one durability barrier over many logs
// (one node's partition or stripe logs, say). Each log's fsync fault
// hook is consulted in list order and the first failure stops
// admission; the admitted logs then flush and fsync concurrently. It
// returns the hook's failure, else the first flush or fsync error. The
// admitted logs are synced even when a later hook fails, exactly as if
// the logs had been synced one by one up to the failing one.
func SyncLogs(logs ...*Log) error {
	admitted := len(logs)
	var first error
	for i, l := range logs {
		if err := l.admitSync(); err != nil {
			admitted, first = i, err
			break
		}
	}
	errs := make([]error, admitted)
	workers := min(admitted, maxSyncWorkers)
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		for i := int(next.Add(1) - 1); i < admitted; i = int(next.Add(1) - 1) {
			errs[i] = logs[i].syncNow()
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if first != nil {
		return first
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// maxSyncWorkers bounds the fsyncs one group commit runs at once.
const maxSyncWorkers = 16

// admitSync runs the fsync fault hook for one log of a group commit.
func (l *Log) admitSync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.w.fault(OpFsync, l.name)
}

// syncNow flushes and fsyncs one admitted log of a group commit.
func (l *Log) syncNow() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if len(l.buf) > 0 {
		n, err := l.f.Write(l.buf)
		l.size += int64(n)
		l.w.appendedBytes.Add(int64(n))
		if err != nil {
			return err
		}
		if cap(l.buf) > maxIdleBuf {
			l.buf = nil
		} else {
			l.buf = l.buf[:0]
		}
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.w.fsyncs.Add(1)
	if l.size >= l.w.cfg.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one. The
// order is crash-safe: the sealed data is already durable, the new file
// exists before the manifest records it, and recover adopts segments
// the manifest never saw.
func (l *Log) rotateLocked() error {
	next := segName(segIndex(l.segs[len(l.segs)-1].Name) + 1)
	nf, err := os.OpenFile(filepath.Join(l.dir, next), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	tail := &l.segs[len(l.segs)-1]
	tail.Sealed, tail.Bytes = true, l.size
	l.segs = append(l.segs, manifestSegment{Name: next})
	if err := l.writeManifestLocked(); err != nil {
		l.segs = l.segs[:len(l.segs)-1]
		tail.Sealed, tail.Bytes = false, 0
		nf.Close()
		return err
	}
	l.f.Close()
	l.f, l.size = nf, 0
	l.w.rotations.Add(1)
	return nil
}

// Replay streams every entry in the log, in append order, through fn.
// It reads from disk, not the write buffer: replay sees exactly what a
// restarted process would. A non-nil error from fn aborts the replay.
func (l *Log) Replay(fn func(Entry) error) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.w.fault(OpReplay, l.name); err != nil {
		return 0, err
	}
	total := 0
	for i, s := range l.segs {
		data, err := os.ReadFile(filepath.Join(l.dir, s.Name))
		if err != nil {
			return total, err
		}
		limit := s.Bytes
		if i == len(l.segs)-1 {
			limit = l.size // the tail's flushed prefix; the buffer is not on disk
		}
		if limit < int64(len(data)) {
			data = data[:limit]
		}
		entries, n := DecodeFrames(data)
		l.w.replayedBytes.Add(int64(n))
		for _, e := range entries {
			if err := fn(e); err != nil {
				return total, err
			}
			total++
		}
	}
	l.w.replayedEntries.Add(int64(total))
	return total, nil
}

// close finalizes the log. flush=true is a clean shutdown (buffered
// entries are made durable first); flush=false abandons the buffer —
// the crash-restart boundary Restart simulates.
func (l *Log) close(flush bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	var err error
	if flush {
		err = l.syncLocked()
	}
	l.closed = true
	l.buf = nil
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
