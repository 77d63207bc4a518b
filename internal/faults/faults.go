// Package faults is the chaos counterpart of internal/telemetry's
// data-level pathologies: where telemetry injects loss and skew into the
// *data*, faults injects failures into the *infrastructure* the pipeline
// runs on. A deterministic, seed-driven Injector produces transient
// errors, added latency, partial batch failures, and crash-at-point
// (permanent) faults at configurable per-operation rates, and installs
// onto the three infrastructure surfaces through their fault hooks:
//
//	stream.Broker  — "broker.fetch", "broker.publish"
//	objstore.Store — "store.put", "store.append", "store.get"
//	tsdb.DB        — "lake.insert"
//	wal.NodeWAL    — "wal.open", "wal.append", "wal.fsync", "wal.replay"
//
// Hooks fire *before* the guarded operation mutates anything, so a
// caller that retries an injected failure re-executes exactly once —
// the property the chaos integration test leans on when it asserts
// byte-identical pipeline output under ≥5% fault rates.
//
// Determinism: every (operation, target) pair draws its injection
// decisions from its own PRNG stream, seeded from the injector's seed
// and the pair. The decisions for one target therefore depend only on
// the seed and on how many times that target was called — not on how
// calls to other targets interleave with it — so a workload whose
// per-target call order is fixed (the cluster's per-node lanes run
// concurrently, but each node's calls in a fixed order) replays
// identically for a seed. FailAfter counts calls per operation across
// targets; install a separate injector per component when that count
// must not depend on interleaving.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"odakit/internal/objstore"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
	"odakit/internal/wal"
)

// Operation names the injector recognizes (the infrastructure packages
// pass these to their fault hooks).
const (
	OpBrokerFetch   = "broker.fetch"
	OpBrokerPublish = "broker.publish"
	OpStorePut      = "store.put"
	OpStoreAppend   = "store.append"
	OpStoreGet      = "store.get"
	OpLakeInsert    = "lake.insert"
	OpWALOpen       = wal.OpOpen
	OpWALAppend     = wal.OpAppend
	OpWALFsync      = wal.OpFsync
	OpWALReplay     = wal.OpReplay
)

// InjectedError is the error an Injector produces. Transient faults
// implement resilience's Transient() contract; crash-at-point faults
// are permanent and classified fatal.
type InjectedError struct {
	Op        string
	Target    string
	Permanent bool
}

func (e *InjectedError) Error() string {
	kind := "transient"
	if e.Permanent {
		kind = "permanent"
	}
	return fmt.Sprintf("faults: injected %s fault on %s %s", kind, e.Op, e.Target)
}

// Transient reports whether a retry can mask this fault.
func (e *InjectedError) Transient() bool { return !e.Permanent }

// Rates configures fault injection for one operation.
type Rates struct {
	// Transient is the probability in [0,1] that an operation fails with
	// a retryable InjectedError.
	Transient float64
	// Latency is the probability in [0,1] that LatencyDur of delay is
	// added to an operation (the operation still succeeds).
	Latency    float64
	LatencyDur time.Duration
	// FailAfter, when > 0, makes the Nth matching operation and every
	// one after it fail with a permanent InjectedError — the
	// crash-at-point fault that drives breaker/supervisor tests.
	FailAfter int64
	// Exclude exempts targets containing this substring (e.g. ".dlq" so
	// dead-letter traffic is never faulted away).
	Exclude string
}

// OpStats counts what the injector did to one operation.
type OpStats struct {
	Calls      int64 // hook invocations (after Exclude filtering)
	Transients int64 // transient faults injected
	Permanents int64 // permanent (crash-at-point) faults injected
	Delays     int64 // latency injections
}

type opRule struct {
	rates Rates
	stats OpStats
}

// Injector is a deterministic fault source. Configure per-operation
// Rates with Set, then install it on the infrastructure with
// InstallBroker / InstallStore / InstallLake (or pass Before as a hook
// directly). Safe for concurrent use.
type Injector struct {
	mu      sync.Mutex
	seed    int64
	rules   map[string]*opRule
	streams map[string]*rand.Rand // per (op, target) pair
}

// New returns an injector with no rules: every operation passes until
// Set installs rates.
func New(seed int64) *Injector {
	return &Injector{seed: seed, rules: make(map[string]*opRule), streams: make(map[string]*rand.Rand)}
}

// stream returns the (op, target) pair's PRNG, seeding it on first use
// from the injector's seed and an FNV-1a hash of the pair. inj.mu held.
func (inj *Injector) stream(op, target string) *rand.Rand {
	key := op + "\x00" + target
	r, ok := inj.streams[key]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(key))
		r = rand.New(rand.NewSource(inj.seed ^ int64(h.Sum64())))
		inj.streams[key] = r
	}
	return r
}

// Seed returns the injector's seed (for test failure messages).
func (inj *Injector) Seed() int64 { return inj.seed }

// Set installs (or replaces) the rates for one operation.
func (inj *Injector) Set(op string, r Rates) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.rules[op] = &opRule{rates: r}
}

// Before is the hook body: called with an operation name and its target
// (topic, bucket/key, …) before the operation executes. It returns the
// fault to inject, or nil to let the operation proceed. A latency fault
// sleeps inline and then proceeds.
func (inj *Injector) Before(op, target string) error {
	inj.mu.Lock()
	rule, ok := inj.rules[op]
	if !ok || (rule.rates.Exclude != "" && strings.Contains(target, rule.rates.Exclude)) {
		inj.mu.Unlock()
		return nil
	}
	rule.stats.Calls++
	if rule.rates.FailAfter > 0 && rule.stats.Calls >= rule.rates.FailAfter {
		rule.stats.Permanents++
		inj.mu.Unlock()
		return &InjectedError{Op: op, Target: target, Permanent: true}
	}
	rng := inj.stream(op, target)
	if rule.rates.Transient > 0 && rng.Float64() < rule.rates.Transient {
		rule.stats.Transients++
		inj.mu.Unlock()
		return &InjectedError{Op: op, Target: target}
	}
	var delay time.Duration
	if rule.rates.Latency > 0 && rng.Float64() < rule.rates.Latency {
		rule.stats.Delays++
		delay = rule.rates.LatencyDur
	}
	inj.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}

// Stats returns per-operation injection counters, keyed by op name.
func (inj *Injector) Stats() map[string]OpStats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[string]OpStats, len(inj.rules))
	for op, r := range inj.rules {
		out[op] = r.stats
	}
	return out
}

// String summarizes injection activity (ops sorted for stable output).
func (inj *Injector) String() string {
	st := inj.Stats()
	ops := make([]string, 0, len(st))
	for op := range st {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	var b strings.Builder
	fmt.Fprintf(&b, "faults(seed=%d)", inj.seed)
	for _, op := range ops {
		s := st[op]
		fmt.Fprintf(&b, " %s[calls=%d transient=%d permanent=%d delay=%d]",
			op, s.Calls, s.Transients, s.Permanents, s.Delays)
	}
	return b.String()
}

// InstallBroker points the broker's fault hook at this injector, arming
// the broker.fetch and broker.publish operations.
func (inj *Injector) InstallBroker(b *stream.Broker) { b.SetFaultHook(inj.Before) }

// InstallStore points the object store's fault hook at this injector,
// arming the store.put, store.append, and store.get operations.
func (inj *Injector) InstallStore(s *objstore.Store) { s.SetFaultHook(inj.Before) }

// InstallLake points the LAKE store's fault hook at this injector,
// arming the lake.insert operation.
func (inj *Injector) InstallLake(db *tsdb.DB) { db.SetFaultHook(inj.Before) }

// InstallWAL points a node WAL's fault hook at this injector, arming
// the wal.open, wal.append, wal.fsync, and wal.replay operations —
// the durability boundaries crash-point suites kill at.
func (inj *Injector) InstallWAL(w *wal.NodeWAL) { w.SetFaultHook(inj.Before) }

// Install points any component exposing SetFaultHook at this injector.
// The interface keeps faults decoupled from consumers it does not need
// to know concretely — the cluster's inter-node transport arms its
// cluster.* operations this way.
func (inj *Injector) Install(f interface {
	SetFaultHook(func(op, target string) error)
}) {
	f.SetFaultHook(inj.Before)
}
