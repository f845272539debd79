package serve

import (
	"sync"

	"repro/internal/counters"
	"repro/internal/hw"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/offload"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// ctxBucket quantizes context lengths so the iteration-level simulator's
// memoized cost table stays small; decode cost varies slowly with context.
const ctxBucket = 32

// phase is the kind of pass a cost model prices.
type phase uint8

const (
	phasePrefill phase = iota
	phaseDecode
)

// costKey is one priced shape.
type costKey struct {
	phase         phase
	batch, length int
}

// phaseKey is the key of a prefill or of a plain decode step.
func phaseKey(prefill bool, batch, length int) costKey {
	k := costKey{phase: phaseDecode, batch: batch, length: length}
	if prefill {
		k.phase = phasePrefill
	}
	return k
}

// bucketed is the key k is memoized under: decode contexts are quantized
// to ctxBucket, prefill lengths are exact.
func (k costKey) bucketed() costKey {
	if k.phase == phaseDecode {
		k.length = (k.length + ctxBucket - 1) / ctxBucket * ctxBucket
	}
	return k
}

// memoCost wraps a raw pricing function with a concurrency-safe memo.
// Its lock is never held while pricing, so a read of the memo cannot
// block behind a slow price.
type memoCost struct {
	mu    sync.Mutex
	memo  map[costKey]Quote
	price func(costKey) (Quote, error)
}

// read returns the memo entry of a bucketed key.
func (m *memoCost) read(k costKey) (Quote, bool) {
	m.mu.Lock()
	v, ok := m.memo[k]
	m.mu.Unlock()
	return v, ok
}

// get prices k once. price sees the bucketed key.
func (m *memoCost) get(k costKey) (Quote, error) {
	k = k.bucketed()
	if v, ok := m.read(k); ok {
		return v, nil
	}
	v, err := m.price(k)
	if err != nil {
		return Quote{}, err
	}
	m.mu.Lock()
	m.memo[k] = v
	m.mu.Unlock()
	return v, nil
}

func (m *memoCost) PrefillCost(batch, inputLen int) (float64, error) {
	v, err := m.get(phaseKey(true, batch, inputLen))
	return v.Seconds, err
}

func (m *memoCost) DecodeStepCost(batch, ctxLen int) (float64, error) {
	v, err := m.get(phaseKey(false, batch, ctxLen))
	return v.Seconds, err
}

// Cached implements CostModel from the memo alone.
func (m *memoCost) Cached(prefill bool, batch, length int) (Quote, bool) {
	return m.read(phaseKey(prefill, batch, length).bucketed())
}

// PhaseCounters implements CounterModel. The lookup shares the pricing
// memo, so attaching counters to an already-priced span costs a map hit.
func (m *memoCost) PhaseCounters(prefill bool, batch, length int) (counters.Report, bool) {
	v, err := m.get(phaseKey(prefill, batch, length))
	if err != nil || !v.HasCounters {
		return counters.Report{}, false
	}
	return v.Counters, true
}

// NewCPUCost prices server iterations on a modeled CPU configuration. The
// returned model also implements CounterModel: every priced prefill and
// decode step carries the emulated counter report of the platform that
// priced it.
func NewCPUCost(setup memsim.Config, m model.Config) CostModel {
	return &memoCost{
		memo: map[costKey]Quote{},
		price: func(k costKey) (Quote, error) {
			prefill := k.phase == phasePrefill
			run := perfmodel.CPURun{Model: m, Setup: setup, Batch: k.batch,
				InputLen: k.length, OutputLen: 2, Weights: tensor.BF16}
			if prefill {
				run.OutputLen = 1
			}
			res, err := run.Simulate()
			if err != nil {
				return Quote{}, err
			}
			seconds := res.PrefillSeconds
			if !prefill {
				seconds = res.DecodeSeconds
			}
			rep, err := run.PhaseCounters(prefill)
			if err != nil {
				return Quote{}, err
			}
			return Quote{Seconds: seconds, Counters: rep, HasCounters: true}, nil
		},
	}
}

// NewGPUCost prices server iterations on a modeled GPU, engaging the
// offloading executor when the model does not fit. GPU lanes report no
// CPU counter analogs.
func NewGPUCost(g hw.GPU, m model.Config) CostModel {
	return &memoCost{
		memo: map[costKey]Quote{},
		price: func(k costKey) (Quote, error) {
			prefill := k.phase == phasePrefill
			outLen := 2
			if prefill {
				outLen = 1
			}
			resident := perfmodel.GPURun{GPU: g, Model: m, Batch: k.batch,
				InputLen: k.length, OutputLen: outLen, Weights: tensor.BF16}
			if resident.Fits() {
				res, err := resident.Simulate()
				if prefill {
					return Quote{Seconds: res.PrefillSeconds}, err
				}
				return Quote{Seconds: res.DecodeSeconds}, err
			}
			res, err := offload.Run{GPU: g, Host: hw.SPRMax9468, Model: m,
				Batch: k.batch, InputLen: k.length, OutputLen: outLen,
				Weights: tensor.BF16}.Simulate()
			if prefill {
				return Quote{Seconds: res.PrefillSeconds}, err
			}
			return Quote{Seconds: res.DecodeSeconds}, err
		},
	}
}
