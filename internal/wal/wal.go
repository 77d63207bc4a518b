// Package wal implements per-node, per-partition segmented write-ahead
// logs for the replicated cluster: length-prefixed CRC32-C framed
// records, segment rotation under a durable atomicfile manifest, and
// torn-tail truncation on open. A NodeWAL is one node's log directory;
// each named Log inside it (a topic partition, a lake stripe) is an
// independent append/sync/replay unit.
//
// Durability contract: Append stages frames in memory and Sync makes
// them durable — callers ack replication only after Sync. SyncLogs is
// the group commit over many logs: fault hooks in list order, then the
// flushes and fsyncs run concurrently. A crash (or
// NodeWAL.Abandon, which simulates one) loses buffered frames but never
// corrupts the flushed prefix; open truncates at the first torn frame.
//
// Fault injection: SetFaultHook arms the wal.open, wal.append,
// wal.fsync, and wal.replay operations (see the Op constants), firing
// before the guarded step mutates anything — the hook surface
// faults.Injector installs on to drive crash-point chaos suites.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Operation names passed to the fault hook.
const (
	OpOpen   = "wal.open"
	OpAppend = "wal.append"
	OpFsync  = "wal.fsync"
	OpReplay = "wal.replay"
)

// ErrClosed reports an operation against a closed (or abandoned) log —
// the write paths treat it as the node crash it represents.
var ErrClosed = errors.New("wal: closed")

// DefaultSegmentBytes is the rotation threshold when Config leaves it
// zero.
const DefaultSegmentBytes = 4 << 20

// Config shapes one node's WAL.
type Config struct {
	// Dir is the node's log directory (required).
	Dir string
	// SegmentBytes rotates a log's active segment once its flushed size
	// reaches this many bytes (DefaultSegmentBytes when zero).
	SegmentBytes int64
}

// Stats aggregates a NodeWAL's counters.
type Stats struct {
	Appends         int64 // entries staged
	AppendedBytes   int64 // frame bytes flushed to segments
	Fsyncs          int64 // successful Sync barriers
	Rotations       int64 // segments sealed
	ReplayedEntries int64 // entries streamed by Replay
	ReplayedBytes   int64 // valid frame bytes read by Replay
	TruncatedTails  int64 // torn-tail truncation events on open
	TruncatedBytes  int64 // bytes discarded by truncation
}

// Add accumulates o into s (metric roll-ups across nodes).
func (s *Stats) Add(o Stats) {
	s.Appends += o.Appends
	s.AppendedBytes += o.AppendedBytes
	s.Fsyncs += o.Fsyncs
	s.Rotations += o.Rotations
	s.ReplayedEntries += o.ReplayedEntries
	s.ReplayedBytes += o.ReplayedBytes
	s.TruncatedTails += o.TruncatedTails
	s.TruncatedBytes += o.TruncatedBytes
}

// NodeWAL is one node's set of named logs under a shared directory.
// Logs open lazily and are cached; Close/Abandon invalidates every
// handle. Safe for concurrent use.
type NodeWAL struct {
	cfg Config

	mu     sync.Mutex
	logs   map[string]*Log
	closed bool

	hookMu sync.RWMutex
	hook   func(op, target string) error

	appends, appendedBytes, fsyncs, rotations atomic.Int64
	replayedEntries, replayedBytes            atomic.Int64
	truncatedTails, truncatedBytes            atomic.Int64
}

// Open opens (creating if needed) a node WAL directory. Individual logs
// are recovered lazily on first Log call.
func Open(cfg Config) (*NodeWAL, error) {
	if cfg.Dir == "" {
		return nil, errors.New("wal: Config.Dir required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return &NodeWAL{cfg: cfg, logs: make(map[string]*Log)}, nil
}

// Dir returns the WAL's root directory.
func (w *NodeWAL) Dir() string { return w.cfg.Dir }

// SetFaultHook arms fault injection: the hook fires before every open,
// append, fsync, and replay, and a non-nil return aborts the operation
// before it mutates anything.
func (w *NodeWAL) SetFaultHook(h func(op, target string) error) {
	w.hookMu.Lock()
	w.hook = h
	w.hookMu.Unlock()
}

func (w *NodeWAL) fault(op, target string) error {
	w.hookMu.RLock()
	h := w.hook
	w.hookMu.RUnlock()
	if h == nil {
		return nil
	}
	return h(op, target)
}

func validName(name string) error {
	if name == "" || strings.HasPrefix(name, "/") || strings.Contains(name, "..") {
		return fmt.Errorf("wal: invalid log name %q", name)
	}
	return nil
}

// Log returns the named log, opening (and crash-recovering) it on first
// use. Names are slash-separated paths relative to the WAL directory.
func (w *NodeWAL) Log(name string) (*Log, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, ErrClosed
	}
	if l, ok := w.logs[name]; ok {
		return l, nil
	}
	l, err := openLog(w, name, filepath.Join(w.cfg.Dir, filepath.FromSlash(name)))
	if err != nil {
		return nil, err
	}
	w.logs[name] = l
	return l, nil
}

// Names returns the sorted names of the currently open logs.
func (w *NodeWAL) Names() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.logs))
	for n := range w.logs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Remove deletes a log — handle, directory, and history. Used when an
// out-of-band copy (a wholesale stripe resync) makes the on-disk
// history no longer describe the state it was a log of.
func (w *NodeWAL) Remove(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if l, ok := w.logs[name]; ok {
		_ = l.close(false)
		delete(w.logs, name)
	}
	return os.RemoveAll(filepath.Join(w.cfg.Dir, filepath.FromSlash(name)))
}

// Close cleanly shuts the WAL down: every log flushes its buffer and
// fsyncs before closing. Further operations return ErrClosed.
func (w *NodeWAL) Close() error { return w.shutdown(true) }

// Abandon closes the WAL the way a crash would: buffered, never-synced
// entries are dropped on the floor and file handles close without a
// final flush. Restart uses it as the process-death boundary before
// reopening the directory from disk.
func (w *NodeWAL) Abandon() { _ = w.shutdown(false) }

func (w *NodeWAL) shutdown(flush bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var first error
	for _, l := range w.logs {
		if err := l.close(flush); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats snapshots the WAL's counters.
func (w *NodeWAL) Stats() Stats {
	return Stats{
		Appends:         w.appends.Load(),
		AppendedBytes:   w.appendedBytes.Load(),
		Fsyncs:          w.fsyncs.Load(),
		Rotations:       w.rotations.Load(),
		ReplayedEntries: w.replayedEntries.Load(),
		ReplayedBytes:   w.replayedBytes.Load(),
		TruncatedTails:  w.truncatedTails.Load(),
		TruncatedBytes:  w.truncatedBytes.Load(),
	}
}
