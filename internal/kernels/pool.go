package kernels

import (
	"runtime"
	"sync/atomic"
)

// Pool is a persistent worker pool for compute kernels. It is created once
// (per engine, or shared by several engines) and reused for every GEMM and
// attention dispatch: decode issues hundreds of small GEMMs per token, and
// spawning goroutines for each one would cost more than the kernel itself
// at decode shapes. Workers block on a channel between dispatches, so an
// idle pool burns no CPU.
//
// Run is safe for concurrent use from multiple goroutines (two engines can
// share one pool); work items interleave in the queue and every caller
// helps execute its own parts. Steady-state dispatch performs zero heap
// allocations: invocation descriptors are recycled through a fixed
// free list.
//
// Tasks must not call Pool.Run from inside RunPart — nested dispatch on
// the same pool can deadlock the workers.

// Task is a divisible unit of work: RunPart is called once for each part
// in [0, parts), possibly concurrently.
type Task interface {
	RunPart(part, parts int)
}

// invocation is one Run call in flight. Instances are recycled via
// Pool.free so steady-state dispatch never allocates.
type invocation struct {
	task    Task
	parts   int
	pending atomic.Int32
	fin     chan struct{}
}

func (inv *invocation) runPart(part int) {
	inv.task.RunPart(part, inv.parts)
	if inv.pending.Add(-1) == 0 {
		inv.fin <- struct{}{}
	}
}

// workItem is one part of an invocation, sent by value to workers.
type workItem struct {
	inv  *invocation
	part int
}

// Pool is a fixed set of worker goroutines executing Tasks.
type Pool struct {
	workers int
	work    chan workItem
	free    chan *invocation
}

// maxInflight bounds concurrently executing Run calls (further callers
// block until a descriptor frees up); it only needs to exceed the number
// of engines realistically sharing one pool.
const maxInflight = 64

// NewPool creates a pool with the given worker count (0 means GOMAXPROCS).
// A pool of ≤1 workers spawns no goroutines and runs every Task inline.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers <= 1 {
		return p
	}
	p.work = make(chan workItem, workers*8)
	p.free = make(chan *invocation, maxInflight)
	for i := 0; i < maxInflight; i++ {
		p.free <- &invocation{fin: make(chan struct{}, 1)}
	}
	for i := 0; i < workers; i++ {
		go poolWorker(p.work)
	}
	// Workers reference only the channel, so an abandoned Pool is
	// collectable; the finalizer stops its goroutines.
	runtime.SetFinalizer(p, func(p *Pool) { close(p.work) })
	return p
}

// poolWorker deliberately captures only the channel (not the Pool) so the
// finalizer above can run.
func poolWorker(work chan workItem) {
	for it := range work {
		it.inv.runPart(it.part)
	}
}

// Workers returns the pool's parallel width; a nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Run executes t.RunPart(i, parts) for every i in [0, parts), blocking
// until all parts complete. The calling goroutine executes part 0 itself
// (and any part that cannot be enqueued without blocking), so a saturated
// pool degrades to inline execution instead of stalling, and then helps
// drain the queue before it waits.
func (p *Pool) Run(t Task, parts int) {
	if parts <= 0 {
		return
	}
	if p == nil || p.workers <= 1 || parts == 1 {
		for i := 0; i < parts; i++ {
			t.RunPart(i, parts)
		}
		return
	}
	inv := <-p.free
	inv.task, inv.parts = t, parts
	inv.pending.Store(int32(parts))
	for i := 1; i < parts; i++ {
		select {
		case p.work <- workItem{inv: inv, part: i}:
		default:
			inv.runPart(i)
		}
	}
	inv.runPart(0)
	// While parts of this call are outstanding, run whatever is queued —
	// usually those very parts, which a sleeping worker has not picked up
	// yet — and park only once the queue is empty.
drain:
	for inv.pending.Load() > 0 {
		select {
		case it := <-p.work:
			it.inv.runPart(it.part)
		default:
			break drain
		}
	}
	<-inv.fin
	inv.task = nil
	p.free <- inv
}

// Close stops the pool's workers. Run must not be called after Close; it
// is optional (an unreferenced pool is cleaned up by a finalizer).
func (p *Pool) Close() {
	if p == nil || p.workers <= 1 {
		return
	}
	runtime.SetFinalizer(p, nil)
	close(p.work)
}
