package workload

import (
	"testing"
	"testing/quick"
)

func TestFixedBatch(t *testing.T) {
	b := Fixed(4, 128, 32)
	if b.Size() != 4 || b.InputLen() != 128 || b.OutputLen() != 32 {
		t.Errorf("fixed batch wrong: %+v", b)
	}
}

func TestEmptyBatch(t *testing.T) {
	var b Batch
	if b.Size() != 0 || b.InputLen() != 0 || b.OutputLen() != 0 {
		t.Error("empty batch accessors must be zero")
	}
}

func TestTraceDeterministic(t *testing.T) {
	a := NewGenerator(7).Trace(20)
	b := NewGenerator(7).Trace(20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace must be deterministic per seed")
		}
	}
}

func TestTraceProperties(t *testing.T) {
	g := NewGenerator(1)
	g.ArrivalRate = 10
	reqs := g.Trace(100)
	prev := 0.0
	for i, r := range reqs {
		if r.ArrivalSeconds < prev {
			t.Fatal("arrivals must be non-decreasing")
		}
		prev = r.ArrivalSeconds
		if r.InputLen < 1 || r.OutputLen < 1 {
			t.Fatal("lengths must be positive")
		}
		if r.ID != i {
			t.Fatal("IDs must be sequential")
		}
	}
	// Mean inter-arrival should be near 1/rate.
	mean := prev / float64(len(reqs))
	if mean < 0.05 || mean > 0.2 {
		t.Errorf("mean inter-arrival = %v, want ≈0.1", mean)
	}
}

func TestJitterBounds(t *testing.T) {
	f := func(seed int64) bool {
		g := NewGenerator(seed)
		for _, r := range g.Trace(50) {
			if r.InputLen < 96 || r.InputLen > 160 {
				return false // 128 ± 25 %
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLogNormalHeavyTail(t *testing.T) {
	// The chat-trace distribution must have roughly the right mean and a
	// much heavier tail than the uniform default.
	uni := NewGenerator(9)
	chat := NewGenerator(9).ChatTrace()
	sample := func(g *Generator) (mean float64, max int) {
		var sum int
		for _, r := range g.Trace(2000) {
			sum += r.InputLen
			if r.InputLen > max {
				max = r.InputLen
			}
		}
		return float64(sum) / 2000, max
	}
	mUni, maxUni := sample(uni)
	mChat, maxChat := sample(chat)
	if mChat < 0.85*128 || mChat > 1.15*128 {
		t.Errorf("log-normal mean = %.1f, want ≈128", mChat)
	}
	if mUni < 0.9*128 || mUni > 1.1*128 {
		t.Errorf("uniform mean = %.1f, want ≈128", mUni)
	}
	if maxChat <= 2*maxUni {
		t.Errorf("log-normal tail (max %d) should far exceed uniform (max %d)",
			maxChat, maxUni)
	}
	// Lengths stay positive even deep in the left tail.
	for _, r := range chat.Trace(500) {
		if r.InputLen < 1 || r.OutputLen < 1 {
			t.Fatal("non-positive length")
		}
	}
}

func TestZeroJitter(t *testing.T) {
	g := NewGenerator(3)
	g.LenJitter = 0
	for _, r := range g.Trace(10) {
		if r.InputLen != 128 || r.OutputLen != 32 {
			t.Fatal("zero jitter must produce exact lengths")
		}
	}
}

func TestBatches(t *testing.T) {
	reqs := NewGenerator(2).Trace(10)
	bs := Batches(reqs, 4)
	if len(bs) != 3 || bs[0].Size() != 4 || bs[2].Size() != 2 {
		t.Errorf("batching wrong: %d batches", len(bs))
	}
	total := 0
	for _, b := range bs {
		total += b.Size()
	}
	if total != 10 {
		t.Error("batching lost requests")
	}
	if len(Batches(reqs, 0)) != 10 {
		t.Error("maxBatch<1 must clamp to 1")
	}
}

func TestPrompt(t *testing.T) {
	p := NewGenerator(4).Prompt(64, 97)
	if len(p) != 64 {
		t.Fatal("prompt length wrong")
	}
	for _, tok := range p {
		if tok < 0 || tok >= 97 {
			t.Fatal("token out of vocab")
		}
	}
}
