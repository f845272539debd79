package engine

import "time"

// Class is an operator class, the unit the engine attributes the time of
// its passes to: the paper's per-operator breakdown of a step, measured
// on the engine's own steps.
type Class uint8

const (
	ClassLinear     Class = iota // the GEMMs and their bias adds
	ClassAttention               // scores, softmax and weighted V over the KV cache
	ClassRoPE                    // the rotary embedding of queries and keys (LLaMA-2)
	ClassNorm                    // LayerNorm or RMSNorm
	ClassActivation              // ReLU, or SiLU and the gate product
	ClassResidual                // the residual adds
	ClassKVWrite                 // new keys and values into the paged cache
	ClassSampling                // logits to tokens (or to log-probabilities)
	NumClasses
)

var classNames = [NumClasses]string{"linear", "attention", "rope", "norm", "activation", "residual", "kv_write", "sampling"}

func (c Class) String() string { return classNames[c] }

// ClassTimes is the wall time a session's calls spent inside the engine
// (Total) and the part of it each operator class took. What no class
// took — argument checks, arena sizing, embedding lookups, commits — is
// Unattributed, so the classes and Unattributed sum to Total by
// construction.
type ClassTimes struct {
	Total time.Duration
	Class [NumClasses]time.Duration
}

// Unattributed returns the part of Total no operator class took.
func (t ClassTimes) Unattributed() time.Duration {
	u := t.Total
	for _, d := range t.Class {
		u -= d
	}
	return u
}

// Sub returns t less u: what a session's counters gained since u was read.
func (t ClassTimes) Sub(u ClassTimes) ClassTimes {
	t.Total -= u.Total
	for c := range t.Class {
		t.Class[c] -= u.Class[c]
	}
	return t
}

// classClock times one session's calls: a call begins and ends it, and
// each operator class ends a lap, adding the time since the previous lap
// to its counter. A lap costs one monotonic clock read (about 55 ns on a
// two-vCPU AMX Xeon guest), some fifty of them per decode step of
// a four-layer model: the clock stays on.
type classClock struct {
	times       ClassTimes
	start, last time.Duration // since epoch
}

var epoch = time.Now()

// now reads the monotonic clock. time.Since reads only it, at about half
// the cost of time.Now, which reads the wall clock too.
func now() time.Duration { return time.Since(epoch) }

// begin starts timing a call.
func (c *classClock) begin() {
	c.start = now()
	c.last = c.start
}

// lap adds the time since the previous lap to class.
func (c *classClock) lap(class Class) {
	t := now()
	c.times.Class[class] += t - c.last
	c.last = t
}

// skip starts the next lap without attributing the time since the
// previous one: it stays in Unattributed.
func (c *classClock) skip() { c.last = now() }

// end adds the call's wall time to Total.
func (c *classClock) end() { c.times.Total += now() - c.start }
