package gateway

// inline_test.go pins where a priced call runs: a shape the primary
// model's memo already holds is read on the lane goroutine, with no
// pricing worker and no timer; a memo miss, a model without a memo and
// any call while a firing fault rule is armed go to the watchdog.

import (
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// TestInlineWarmMemoStartsNoWorker: a lane over a model whose memo an
// earlier lane already warmed prices every iteration on its own
// goroutine — it never starts a pricing worker — and gets the very costs
// the first lane priced, to the bit.
func TestInlineWarmMemoStartsNoWorker(t *testing.T) {
	cost := sprCost()
	run := func(l *lane, g *Gateway, workerSeen *bool) []float64 {
		t.Helper()
		defer l.wd.retire()
		decodingBatch(t, g, l, 4, 80, false)
		var iters []float64
		for i := 0; i < 70; i++ {
			c, err := g.iterate(l)
			if err != nil {
				t.Fatal(err)
			}
			iters = append(iters, c)
			*workerSeen = *workerSeen || l.wd.calls != nil
		}
		return iters
	}
	cold := New(Config{MaxBatch: 8, Registry: metrics.NewRegistry()}, fixedResolver(cost))
	var coldWorker, warmWorker bool
	want := run(iterLane(t, cold), cold, &coldWorker)
	if !coldWorker {
		t.Fatal("the cold lane priced its misses without a worker")
	}
	warm := New(Config{MaxBatch: 8, Registry: metrics.NewRegistry()}, fixedResolver(cost))
	got := run(iterLane(t, warm), warm, &warmWorker)
	if warmWorker {
		t.Error("a lane over a warm memo started a pricing worker")
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("iteration %d cost %v inline, %v when first priced", i, got[i], want[i])
		}
	}
}

// blockFirst is a memo-backed model whose first decode pricing blocks
// until release is closed; its memo (and Cached) is the wrapped model's.
type blockFirst struct {
	serve.CostModel
	blocked atomic.Bool
	release chan struct{}
}

func (b *blockFirst) DecodeStepCost(batch, ctx int) (float64, error) {
	if b.blocked.CompareAndSwap(false, true) {
		<-b.release
	}
	return b.CostModel.DecodeStepCost(batch, ctx)
}

// TestInlineAfterBlockedMiss: the first pricing of a shape is a memo miss,
// so it runs on the worker, and the watchdog abandons it when it blocks.
// Once the abandoned call has filled the memo, the same shape is served
// inline, without a new worker.
func TestInlineAfterBlockedMiss(t *testing.T) {
	cost := &blockFirst{CostModel: sprCost(), release: make(chan struct{})}
	g, l := scriptedLaneOver(t, 20*time.Millisecond, nil, cost)
	defer l.wd.retire()
	shape := pricedShape{batch: 2, length: 300}

	if _, _, err := g.pricedCall(l, shape); !errors.Is(err, ErrWatchdogTimeout) {
		t.Fatalf("blocked miss returned %v, want ErrWatchdogTimeout", err)
	}
	if l.wd.calls != nil {
		t.Fatal("the timed-out call's worker is still the lane's worker")
	}
	close(cost.release)
	waitFor(t, func() bool {
		_, ok := cost.Cached(false, shape.batch, shape.length)
		return ok
	})
	c, info, err := g.pricedCall(l, shape)
	want, _ := cost.CostModel.DecodeStepCost(shape.batch, shape.length)
	if err != nil || !info.cached || c != want {
		t.Fatalf("after release: (%v, cached %v, %v), want (%v, cached true, nil)", c, info.cached, err, want)
	}
	if l.wd.calls != nil {
		t.Error("a memo hit started a pricing worker")
	}
}

// TestInlineYieldsToFiringFaults: while a stall rule is armed a memo hit
// still goes to the worker, so the watchdog fires on it; a standing
// mem-pressure rule alone leaves the hit inline.
func TestInlineYieldsToFiringFaults(t *testing.T) {
	base := runtime.NumGoroutine()
	cost := sprCost()
	inj := faults.New(1)
	g, l := scriptedLaneOver(t, 20*time.Millisecond, inj, cost)
	defer l.wd.retire()
	shape := pricedShape{batch: 1, length: 64}
	if _, err := cost.DecodeStepCost(shape.batch, shape.length); err != nil {
		t.Fatal(err)
	}

	if err := inj.Arm(faults.Rule{Class: faults.MemPressure, Site: siteGovern, Fraction: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, info, err := g.pricedCall(l, shape); err != nil || !info.cached || l.wd.calls != nil {
		t.Fatalf("memo hit under mem-pressure: cached %v, worker %v, err %v; want inline",
			info.cached, l.wd.calls != nil, err)
	}

	if err := inj.Arm(faults.Rule{Class: faults.Stall, Site: siteDecode, Every: 1, Count: 1,
		DelayMillis: 60}); err != nil {
		t.Fatal(err)
	}
	_, info, err := g.pricedCall(l, shape)
	if !errors.Is(err, ErrWatchdogTimeout) || info.cached {
		t.Fatalf("memo hit under a stall rule: cached %v, err %v; want the watchdog to fire", info.cached, err)
	}
	if n := g.m.watchdogTimeouts.Value(); n != 1 {
		t.Errorf("%d watchdog timeouts, want 1", n)
	}
	inj.Disarm()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base })
}

// scriptedLaneOver is a lane over c of a gateway with the given watchdog
// budget and injector, and no fallback.
func scriptedLaneOver(t *testing.T, budget time.Duration, inj *faults.Injector, c serve.CostModel) (*Gateway, *lane) {
	t.Helper()
	g := New(Config{WatchdogBudget: budget, Injector: inj, Registry: metrics.NewRegistry()}, fixedResolver(c))
	return g, iterLane(t, g)
}

// TestMemoLookupMatchesPrice: what a model's memo answers for a shape is
// what pricing the shape returned, to the bit — for every cost model the
// lanes run, for prefill and decode, at contexts that are not
// bucket-aligned — and a shape not yet priced is not answered at all.
func TestMemoLookupMatchesPrice(t *testing.T) {
	w, err := engine.NewWeights(model.Tiny(model.OPT), 42, tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(w, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	setup := memsim.Config{CPU: hw.SPRMax9468, Cores: 48, Mem: memsim.Flat, Cluster: memsim.Quad}
	models := map[string]serve.CostModel{
		"cpu":         serve.NewCPUCost(setup, model.OPT13B),
		"gpu":         serve.NewGPUCost(hw.H100, model.OPT13B),
		"engine":      serve.NewEngineCost(e),
		"cpu-opt125m": serve.NewCPUCost(setup, model.OPT125M),
	}
	shapes := []pricedShape{
		{prefill: true, batch: 1, length: 17},
		{prefill: true, batch: 2, length: 40},
		{batch: 1, length: 1},
		{batch: 3, length: 33},
		{batch: 2, length: 50},
	}
	for name, m := range models {
		for _, s := range shapes {
			if _, ok := m.Cached(s.prefill, s.batch, s.length); ok {
				t.Fatalf("%s %+v: answered before it was priced", name, s)
			}
			p, err := s.price(m)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, s, err)
			}
			q, ok := m.Cached(s.prefill, s.batch, s.length)
			if !ok || math.Float64bits(q.Seconds) != math.Float64bits(p) {
				t.Errorf("%s %+v: memo answers (%v, %v), pricing gave %v", name, s, q.Seconds, ok, p)
			}
			if !s.prefill { // a context in the same bucket reads the same entry
				s.length++
				if q2, ok := m.Cached(s.prefill, s.batch, s.length); s.length%32 != 1 &&
					(!ok || math.Float64bits(q2.Seconds) != math.Float64bits(p)) {
					t.Errorf("%s %+v: same-bucket context answers (%v, %v), want %v", name, s, q2.Seconds, ok, p)
				}
			}
		}
	}
}
