package serve

import (
	"sync"

	"repro/internal/counters"
	"repro/internal/hw"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/offload"
	"repro/internal/perfmodel"
	"repro/internal/specdec"
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
	// phaseVerify is one fused pass over rows rows per sequence: the
	// speculative proposals plus the carry token (speccost.go).
	phaseVerify
)

// costKey is one priced shape. rows is 0 except for verification.
type costKey struct {
	phase               phase
	batch, length, rows int
}

// priced is one memoized pricing result: the phase seconds plus, when the
// underlying model emulates hardware counters, the phase's counter report.
type priced struct {
	seconds     float64
	counters    counters.Report
	hasCounters bool
}

// memoCost wraps a raw pricing function with a concurrency-safe memo.
type memoCost struct {
	mu    sync.Mutex
	memo  map[costKey]priced
	price func(costKey) (priced, error)
}

// get prices k once. Decode and verification contexts are bucketed here,
// so price sees a bucketed length for every phase but prefill.
func (m *memoCost) get(k costKey) (priced, error) {
	if k.phase != phasePrefill {
		k.length = (k.length + ctxBucket - 1) / ctxBucket * ctxBucket
	}
	m.mu.Lock()
	if v, ok := m.memo[k]; ok {
		m.mu.Unlock()
		return v, nil
	}
	m.mu.Unlock()
	v, err := m.price(k)
	if err != nil {
		return priced{}, err
	}
	m.mu.Lock()
	m.memo[k] = v
	m.mu.Unlock()
	return v, nil
}

func (m *memoCost) PrefillCost(batch, inputLen int) (float64, error) {
	v, err := m.get(costKey{phase: phasePrefill, batch: batch, length: inputLen})
	return v.seconds, err
}

func (m *memoCost) DecodeStepCost(batch, ctxLen int) (float64, error) {
	v, err := m.get(costKey{phase: phaseDecode, batch: batch, length: ctxLen})
	return v.seconds, err
}

// PhaseCounters implements CounterModel. The lookup shares the pricing
// memo, so attaching counters to an already-priced span costs a map hit.
func (m *memoCost) PhaseCounters(prefill bool, batch, length int) (counters.Report, bool) {
	k := costKey{phase: phaseDecode, batch: batch, length: length}
	if prefill {
		k.phase = phasePrefill
	}
	v, err := m.get(k)
	if err != nil || !v.hasCounters {
		return counters.Report{}, false
	}
	return v.counters, true
}

// NewCPUCost prices server iterations on a modeled CPU configuration. The
// returned model also implements CounterModel: every priced prefill and
// decode step carries the emulated counter report of the platform that
// priced it. Its verification passes, priced only when NewSpecCPUCost
// wraps it, use the specdec roofline: weights stream once per pass,
// compute and KV IO scale with rows.
func NewCPUCost(setup memsim.Config, m model.Config) CostModel {
	return &memoCost{
		memo: map[costKey]priced{},
		price: func(k costKey) (priced, error) {
			if k.phase == phaseVerify {
				s, err := specdec.VerifySeconds(m, setup, k.batch, max(k.length, 1), k.rows)
				return priced{seconds: s}, err
			}
			prefill := k.phase == phasePrefill
			run := perfmodel.CPURun{Model: m, Setup: setup, Batch: k.batch,
				InputLen: k.length, OutputLen: 2, Weights: tensor.BF16}
			if prefill {
				run.OutputLen = 1
			}
			res, err := run.Simulate()
			if err != nil {
				return priced{}, err
			}
			seconds := res.PrefillSeconds
			if !prefill {
				seconds = res.DecodeSeconds
			}
			rep, err := run.PhaseCounters(prefill)
			if err != nil {
				return priced{}, err
			}
			return priced{seconds: seconds, counters: rep, hasCounters: true}, nil
		},
	}
}

// NewGPUCost prices server iterations on a modeled GPU, engaging the
// offloading executor when the model does not fit. GPU lanes report no
// CPU counter analogs.
func NewGPUCost(g hw.GPU, m model.Config) CostModel {
	return &memoCost{
		memo: map[costKey]priced{},
		price: func(k costKey) (priced, error) {
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
					return priced{seconds: res.PrefillSeconds}, err
				}
				return priced{seconds: res.DecodeSeconds}, err
			}
			res, err := offload.Run{GPU: g, Host: hw.SPRMax9468, Model: m,
				Batch: k.batch, InputLen: k.length, OutputLen: outLen,
				Weights: tensor.BF16}.Simulate()
			if prefill {
				return priced{seconds: res.PrefillSeconds}, err
			}
			return priced{seconds: res.DecodeSeconds}, err
		},
	}
}
