package faults

import (
	"errors"
	"strings"
	"testing"
	"time"

	"odakit/internal/resilience"
)

func TestInjectorDeterminism(t *testing.T) {
	run := func() []bool {
		inj := New(99)
		inj.Set(OpLakeInsert, Rates{Transient: 0.3})
		out := make([]bool, 500)
		for i := range out {
			out[i] = inj.Before(OpLakeInsert, "x") != nil
		}
		return out
	}
	a, b := run(), run()
	faultCount := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged between identical seeds", i)
		}
		if a[i] {
			faultCount++
		}
	}
	// 30% of 500 with generous slack.
	if faultCount < 100 || faultCount > 220 {
		t.Fatalf("fault count = %d, want ~150", faultCount)
	}
}

func TestInjectedErrorClassification(t *testing.T) {
	inj := New(1)
	inj.Set(OpStorePut, Rates{Transient: 1})
	err := inj.Before(OpStorePut, "bucket/key")
	if err == nil {
		t.Fatal("rate 1.0 did not inject")
	}
	if !resilience.IsTransient(err) {
		t.Fatal("transient injected fault not classified transient")
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Op != OpStorePut || ie.Target != "bucket/key" || ie.Permanent {
		t.Fatalf("error = %+v", ie)
	}
	if !strings.Contains(err.Error(), "transient") {
		t.Fatalf("message = %q", err)
	}
}

func TestFailAfterIsPermanent(t *testing.T) {
	inj := New(1)
	inj.Set(OpBrokerPublish, Rates{FailAfter: 3})
	for i := 1; i <= 2; i++ {
		if err := inj.Before(OpBrokerPublish, "t"); err != nil {
			t.Fatalf("call %d faulted before FailAfter: %v", i, err)
		}
	}
	// The 3rd call and every one after it fail permanently.
	for i := 3; i <= 5; i++ {
		err := inj.Before(OpBrokerPublish, "t")
		if err == nil {
			t.Fatalf("call %d did not fault", i)
		}
		if resilience.IsTransient(err) {
			t.Fatalf("crash-at-point fault classified transient: %v", err)
		}
	}
	st := inj.Stats()[OpBrokerPublish]
	if st.Calls != 5 || st.Permanents != 3 || st.Transients != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExcludeSkipsTargets(t *testing.T) {
	inj := New(1)
	inj.Set(OpBrokerPublish, Rates{Transient: 1, Exclude: ".dlq"})
	if err := inj.Before(OpBrokerPublish, "bronze.power_temp.dlq"); err != nil {
		t.Fatalf("excluded target faulted: %v", err)
	}
	if err := inj.Before(OpBrokerPublish, "bronze.power_temp"); err == nil {
		t.Fatal("non-excluded target passed at rate 1.0")
	}
	st := inj.Stats()[OpBrokerPublish]
	if st.Calls != 1 { // excluded call is not counted
		t.Fatalf("calls = %d, want 1", st.Calls)
	}
}

func TestLatencyInjection(t *testing.T) {
	inj := New(1)
	inj.Set(OpStoreGet, Rates{Latency: 1, LatencyDur: 2 * time.Millisecond})
	start := time.Now()
	if err := inj.Before(OpStoreGet, "b/k"); err != nil {
		t.Fatalf("latency fault errored: %v", err)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Fatalf("no delay injected (%v)", d)
	}
	if st := inj.Stats()[OpStoreGet]; st.Delays != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnconfiguredOpPasses(t *testing.T) {
	inj := New(1)
	for i := 0; i < 100; i++ {
		if err := inj.Before(OpBrokerFetch, "t"); err != nil {
			t.Fatalf("unconfigured op faulted: %v", err)
		}
	}
	if !strings.Contains(inj.String(), "seed=1") {
		t.Fatalf("summary = %q", inj.String())
	}
}

// TestInjectorPerTargetStreams: each (op, target) pair draws from its
// own stream, so interleaving calls to two targets differently leaves
// every target's decision sequence unchanged for a seed.
func TestInjectorPerTargetStreams(t *testing.T) {
	run := func(order []string) map[string][]bool {
		inj := New(20240601)
		inj.Set(OpLakeInsert, Rates{Transient: 0.4})
		out := map[string][]bool{}
		for _, target := range order {
			out[target] = append(out[target], inj.Before(OpLakeInsert, target) != nil)
		}
		return out
	}
	var alternating, grouped []string
	for i := 0; i < 200; i++ {
		alternating = append(alternating, "n1", "n2")
	}
	for _, target := range []string{"n2", "n1"} {
		for i := 0; i < 200; i++ {
			grouped = append(grouped, target)
		}
	}
	a, b := run(alternating), run(grouped)
	for _, target := range []string{"n1", "n2"} {
		if len(a[target]) != 200 || len(b[target]) != 200 {
			t.Fatalf("%s: %d and %d decisions, want 200", target, len(a[target]), len(b[target]))
		}
		for i := range a[target] {
			if a[target][i] != b[target][i] {
				t.Fatalf("%s call %d: decision depends on how other targets interleave", target, i)
			}
		}
	}
	same := true
	for i := range a["n1"] {
		same = same && a["n1"][i] == a["n2"][i]
	}
	if same {
		t.Fatal("two targets drew identical decision streams")
	}
}
