package gateway

// watchdog_test.go covers the lane's pricing worker: one goroutine and
// one timer per running lane, abandoned on a timeout, surviving a panic,
// retired when the lane parks.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestWatchdogTimeoutAbandonsWorker(t *testing.T) {
	g := New(Config{WatchdogBudget: 20 * time.Millisecond, Registry: metrics.NewRegistry()},
		fixedResolver(fakeCost{}))
	l := iterLane(t, g)
	defer l.wd.retire()

	release, returned := make(chan struct{}), make(chan struct{})
	_, err := g.watchdogCall(l, func() (float64, error) {
		defer close(returned)
		<-release
		return 1, nil
	})
	if !errors.Is(err, ErrWatchdogTimeout) {
		t.Fatalf("overrunning call returned %v, want ErrWatchdogTimeout", err)
	}
	if l.wd.calls != nil {
		t.Fatal("the timed-out call's worker is still the lane's worker")
	}
	// The next call must not queue behind the wedged one, nor see its
	// late result or a stale timer tick.
	for i := 0; i < 3; i++ {
		c, err := g.watchdogCall(l, func() (float64, error) { return 42, nil })
		if err != nil || c != 42 {
			t.Fatalf("call %d after the timeout returned (%v, %v), want (42, nil)", i, c, err)
		}
	}
	fresh := l.wd.calls
	close(release)
	<-returned
	if c, err := g.watchdogCall(l, func() (float64, error) { return 7, nil }); err != nil || c != 7 {
		t.Fatalf("call after the abandoned one returned gave (%v, %v), want (7, nil)", c, err)
	}
	if l.wd.calls != fresh {
		t.Error("the worker was replaced without a timeout")
	}
}

func TestWatchdogPanicKeepsWorker(t *testing.T) {
	g := New(Config{WatchdogBudget: time.Second, Registry: metrics.NewRegistry()},
		fixedResolver(fakeCost{}))
	l := iterLane(t, g)
	defer l.wd.retire()

	if _, err := g.watchdogCall(l, func() (float64, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	worker := l.wd.calls
	_, err := g.watchdogCall(l, func() (float64, error) { panic("cost model bug") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Lane != l.key || pe.Value != "cost model bug" {
		t.Fatalf("panicking call returned %v, want a PanicError carrying the value", err)
	}
	if c, err := g.watchdogCall(l, func() (float64, error) { return 3, nil }); err != nil || c != 3 {
		t.Fatalf("call after the panic returned (%v, %v), want (3, nil)", c, err)
	}
	if l.wd.calls != worker {
		t.Error("a panic replaced the worker")
	}
}

// wedgeOnce blocks its first decode step until released; everything else
// prices instantly.
type wedgeOnce struct {
	fakeCost
	wedged  atomic.Bool
	release chan struct{}
}

func (w *wedgeOnce) DecodeStepCost(batch, ctx int) (float64, error) {
	if w.wedged.CompareAndSwap(false, true) {
		<-w.release
	}
	return w.fakeCost.DecodeStepCost(batch, ctx)
}

// TestWatchdogWorkersDoNotLeak: the goroutine count returns to where it
// started once lanes have parked — after plain requests, after a request
// whose decode step wedged past the budget (the abandoned worker exits
// when its call returns), and after Shutdown.
func TestWatchdogWorkersDoNotLeak(t *testing.T) {
	settled := func(base int) func() bool {
		return func() bool { return runtime.NumGoroutine() <= base }
	}
	base := runtime.NumGoroutine()
	cost := &wedgeOnce{fakeCost: fakeCost{pre: 0.01, dec: 0.001}, release: make(chan struct{})}
	g := New(Config{WatchdogBudget: 20 * time.Millisecond, Registry: metrics.NewRegistry()},
		fixedResolver(cost))

	// The wedged step times out, the request is requeued and completes on
	// a fresh worker while the first one is still stuck in its call.
	res, err := g.Generate(context.Background(), Request{Lane: "a", InputLen: 32, OutputLen: 4})
	if err != nil || res.OutputLen != 4 {
		t.Fatalf("request across a wedged step: %+v, %v", res, err)
	}
	if n := g.m.watchdogTimeouts.Value(); n != 1 {
		t.Fatalf("%d watchdog timeouts, want 1", n)
	}
	waitFor(t, settled(base+1)) // parked: only the abandoned worker remains
	close(cost.release)
	waitFor(t, settled(base))

	for _, lane := range []string{"a", "b", "a"} {
		if _, err := g.Generate(context.Background(), Request{Lane: lane, InputLen: 32, OutputLen: 4}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, settled(base))
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, settled(base))
}
