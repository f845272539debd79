// Package workload generates the inference workloads of the paper's
// evaluation: fixed-shape batches (input 128 / output 32 with batch sizes
// 1–32), synthetic request traces for the serving examples, and token
// prompts for the functional engine.
package workload

import (
	"math"
	"math/rand"
)

// Request is one inference request.
type Request struct {
	ID        int
	InputLen  int
	OutputLen int
	// ArrivalSeconds is the request's arrival time in a trace.
	ArrivalSeconds float64
}

// Batch is a set of requests executed together. The paper's experiments
// use homogeneous batches; heterogeneous batches are padded to the longest
// prompt, as static-batching servers do.
type Batch struct {
	Requests []Request
}

// Size returns the number of requests in the batch.
func (b Batch) Size() int { return len(b.Requests) }

// InputLen returns the padded prompt length (the maximum in the batch).
func (b Batch) InputLen() int {
	m := 0
	for _, r := range b.Requests {
		if r.InputLen > m {
			m = r.InputLen
		}
	}
	return m
}

// OutputLen returns the padded generation length.
func (b Batch) OutputLen() int {
	m := 0
	for _, r := range b.Requests {
		if r.OutputLen > m {
			m = r.OutputLen
		}
	}
	return m
}

// LengthDist selects how request lengths are sampled around their means.
type LengthDist int

const (
	// Uniform samples lengths uniformly within ±LenJitter of the mean.
	Uniform LengthDist = iota
	// LogNormal samples heavy-tailed lengths: most requests are short
	// with a long tail of large ones, the shape of public chat traces
	// (and the regime where continuous batching and paged KV shine).
	LogNormal
)

// Generator produces randomized workloads deterministically from a seed.
type Generator struct {
	rng *rand.Rand
	// MeanInputLen and MeanOutputLen center the sampled lengths.
	MeanInputLen, MeanOutputLen int
	// LenJitter is the ± relative spread of sampled lengths (0 = fixed).
	// Under LogNormal it is the σ of the underlying normal instead.
	LenJitter float64
	// Dist selects the length distribution.
	Dist LengthDist
	// ArrivalRate is requests per second for traces.
	ArrivalRate float64
}

// NewGenerator returns a generator with the paper's default shape
// (input 128, output 32) and the given seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{
		rng:           rand.New(rand.NewSource(seed)),
		MeanInputLen:  128,
		MeanOutputLen: 32,
		LenJitter:     0.25,
		ArrivalRate:   1,
	}
}

func (g *Generator) sampleLen(mean int) int {
	if g.LenJitter == 0 {
		return mean
	}
	var f float64
	if g.Dist == LogNormal {
		// exp(N(µ, σ)) with µ chosen so the distribution's mean is 1.
		sigma := g.LenJitter
		f = math.Exp(g.rng.NormFloat64()*sigma - sigma*sigma/2)
	} else {
		f = 1 + (g.rng.Float64()*2-1)*g.LenJitter
	}
	n := int(math.Round(float64(mean) * f))
	if n < 1 {
		n = 1
	}
	return n
}

// ChatTrace reconfigures the generator for a public-chat-like workload:
// log-normal lengths with a heavy tail (σ=0.8).
func (g *Generator) ChatTrace() *Generator {
	g.Dist = LogNormal
	g.LenJitter = 0.8
	return g
}

// Trace samples n requests with exponential inter-arrival times (a
// Poisson arrival process) and jittered lengths.
func (g *Generator) Trace(n int) []Request {
	reqs := make([]Request, n)
	var t float64
	for i := range reqs {
		t += g.rng.ExpFloat64() / g.ArrivalRate
		reqs[i] = Request{
			ID:             i,
			InputLen:       g.sampleLen(g.MeanInputLen),
			OutputLen:      g.sampleLen(g.MeanOutputLen),
			ArrivalSeconds: t,
		}
	}
	return reqs
}

// Batches greedily groups a trace into batches of at most maxBatch
// requests, preserving arrival order (static batching).
func Batches(reqs []Request, maxBatch int) []Batch {
	if maxBatch < 1 {
		maxBatch = 1
	}
	var out []Batch
	for len(reqs) > 0 {
		n := maxBatch
		if n > len(reqs) {
			n = len(reqs)
		}
		out = append(out, Batch{Requests: append([]Request(nil), reqs[:n]...)})
		reqs = reqs[n:]
	}
	return out
}

// Prompt samples inputLen token IDs in [0, vocab) for the functional
// engine.
func (g *Generator) Prompt(inputLen, vocab int) []int {
	p := make([]int, inputLen)
	for i := range p {
		p[i] = g.rng.Intn(vocab)
	}
	return p
}
