// Package faults is a deterministic, rule-based fault injector for the
// serving stack. Chaos scenarios — latency spikes, wedged (stalled)
// calls, worker panics, and cost-model errors — are described as rules,
// armed at runtime, and evaluated at named sites the gateway threads
// through its hot path. Every decision is driven by per-rule evaluation
// counters and a seeded RNG, so a given (seed, rule set, schedule) is
// reproducible: the same faults fire at the same evaluations in tests
// and in live chaos drills.
//
// The gateway consults four sites:
//
//	lane          top of each lane-scheduler iteration (panic injection)
//	cost.prefill  inside the primary cost model's prefill pricing
//	cost.decode   inside the primary cost model's decode pricing
//	govern.kv     standing mem-pressure queries by the memory governor
//	overload      standing load-spike queries by the overload controller
//
// An Injector is safe for concurrent use and nil-safe: a nil *Injector
// applies nothing, so callers never branch on whether chaos is enabled.
package faults

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Class is a fault category.
type Class int

const (
	// Latency sleeps Delay at the site: a slow memory tier or a GC
	// pause, visible as a tail-latency spike but not an error.
	Latency Class = iota
	// Stall sleeps Delay at the site, where Delay is expected to exceed
	// the gateway's watchdog budget: a wedged engine call.
	Stall
	// Panic panics at the site with an *Injected value; the lane
	// supervisor must recover it.
	Panic
	// CostError returns an *Injected error from the site, modelling a
	// failing cost model or engine.
	CostError
	// MemPressure is a standing condition, not a firing fault: while a
	// rule of this class is armed, Fraction of the matching lane's
	// KV-block capacity is withheld (a co-tenant eating the platform's
	// memory). The memory governor queries it with Pressure; Apply
	// ignores it.
	MemPressure
	// ReplicaDown is a standing replica-scoped condition: while armed,
	// the matching replica (the rule's Lane field names the replica ID)
	// is dead — the cluster router fails its health probes, stops
	// routing to it, and terminates its in-flight work. The router
	// queries it with Outage; Apply ignores it.
	ReplicaDown
	// ReplicaSlow is a standing replica-scoped condition: while armed,
	// every request dispatched to the matching replica is delayed by
	// DelayMillis before execution — a wedged-but-alive box whose
	// latency EWMA should trip passive outlier ejection.
	ReplicaSlow
	// ReplicaFlap is a standing replica-scoped condition: the matching
	// replica alternates dead and alive with half-period DelayMillis,
	// exercising ejection, half-open probing and readmission in a loop.
	ReplicaFlap
	// LoadSpike is a standing condition for overload drills: while
	// armed, the gateway's overload controller reads Fraction as extra
	// admission pressure (offered load beyond capacity), driving the
	// adaptive limiter and the brownout ladder deterministically. The
	// controller queries it with Spike; Apply ignores it.
	LoadSpike
)

// String names the class; ParseClass is its inverse.
func (c Class) String() string {
	switch c {
	case Latency:
		return "latency"
	case Stall:
		return "stall"
	case Panic:
		return "panic"
	case CostError:
		return "cost-error"
	case MemPressure:
		return "mem-pressure"
	case ReplicaDown:
		return "replica-down"
	case ReplicaSlow:
		return "replica-slow"
	case ReplicaFlap:
		return "replica-flap"
	case LoadSpike:
		return "load-spike"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ParseClass resolves a class name.
func ParseClass(s string) (Class, error) {
	switch s {
	case "latency":
		return Latency, nil
	case "stall":
		return Stall, nil
	case "panic":
		return Panic, nil
	case "cost-error", "costerror", "cost_error":
		return CostError, nil
	case "mem-pressure", "mempressure", "mem_pressure":
		return MemPressure, nil
	case "replica-down", "replica_down":
		return ReplicaDown, nil
	case "replica-slow", "replica_slow":
		return ReplicaSlow, nil
	case "replica-flap", "replica_flap":
		return ReplicaFlap, nil
	case "load-spike", "load_spike", "loadspike":
		return LoadSpike, nil
	default:
		return 0, fmt.Errorf("faults: unknown class %q (want latency, stall, panic, cost-error, mem-pressure, replica-down, replica-slow, replica-flap or load-spike)", s)
	}
}

// standing reports whether the class is a standing condition, queried
// with Pressure, Outage or Spike for as long as it stays armed, rather
// than a fault that fires at an Apply.
func (c Class) standing() bool {
	switch c {
	case MemPressure, ReplicaDown, ReplicaSlow, ReplicaFlap, LoadSpike:
		return true
	}
	return false
}

// MarshalJSON renders the class name.
func (c Class) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", c.String())), nil
}

// UnmarshalJSON parses a class name.
func (c *Class) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("faults: class must be a JSON string, got %s", b)
	}
	v, err := ParseClass(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*c = v
	return nil
}

// Rule describes one injectable fault. A rule fires at a matching site
// evaluation either every Every-th evaluation (deterministic) or with
// probability P per evaluation (seeded), at most Count times (0 =
// unlimited).
type Rule struct {
	Class Class `json:"class"`
	// Site filters by injection site: "" matches every site, a name
	// ending in '*' matches by prefix, anything else matches exactly.
	Site string `json:"site,omitempty"`
	// Lane filters by lane key; "" matches every lane.
	Lane string `json:"lane,omitempty"`
	// Every fires the rule on each Every-th matching evaluation.
	Every int `json:"every,omitempty"`
	// P fires the rule with this probability when Every is zero.
	P float64 `json:"p,omitempty"`
	// Count caps total fires; 0 is unlimited.
	Count int `json:"count,omitempty"`
	// DelayMillis is the sleep for Latency and Stall faults.
	DelayMillis float64 `json:"delay_ms,omitempty"`
	// Fraction is the share of KV-block capacity a MemPressure rule
	// withholds while armed, in (0, 1].
	Fraction float64 `json:"fraction,omitempty"`
}

// Validate rejects rules that could never fire or have no trigger.
func (r Rule) Validate() error {
	if r.Every < 0 || r.Count < 0 || r.P < 0 || r.P > 1 || r.DelayMillis < 0 {
		return fmt.Errorf("faults: rule %s has negative or out-of-range trigger fields", r.Class)
	}
	if r.Class == MemPressure || r.Class == LoadSpike {
		// Standing conditions: armed is active, so they have no trigger.
		if r.Fraction <= 0 || r.Fraction > 1 {
			return fmt.Errorf("faults: %s rule needs fraction in (0, 1], got %g", r.Class, r.Fraction)
		}
		if r.Every != 0 || r.P != 0 || r.Count != 0 || r.DelayMillis != 0 {
			return fmt.Errorf("faults: %s rules take only site, lane and fraction", r.Class)
		}
		return nil
	}
	if r.Class == ReplicaDown || r.Class == ReplicaSlow || r.Class == ReplicaFlap {
		// Standing replica conditions: armed is active. Slow and flap
		// need a delay (the added latency / the flap half-period).
		if r.Every != 0 || r.P != 0 || r.Count != 0 || r.Fraction != 0 {
			return fmt.Errorf("faults: %s rules take only site, lane and delay", r.Class)
		}
		if r.Class != ReplicaDown && r.DelayMillis <= 0 {
			return fmt.Errorf("faults: %s rule needs delay_ms > 0", r.Class)
		}
		if r.Class == ReplicaDown && r.DelayMillis != 0 {
			return fmt.Errorf("faults: replica-down rules take no delay")
		}
		return nil
	}
	if r.Fraction != 0 {
		return fmt.Errorf("faults: fraction applies only to mem-pressure and load-spike rules")
	}
	if r.Every == 0 && r.P == 0 {
		return fmt.Errorf("faults: rule %s needs every > 0 or p > 0", r.Class)
	}
	if (r.Class == Latency || r.Class == Stall) && r.DelayMillis == 0 {
		return fmt.Errorf("faults: %s rule needs delay_ms > 0", r.Class)
	}
	return nil
}

func (r Rule) delay() time.Duration {
	return time.Duration(r.DelayMillis * float64(time.Millisecond))
}

func (r Rule) matches(site, lane string) bool {
	switch {
	case r.Site == "":
	case len(r.Site) > 0 && r.Site[len(r.Site)-1] == '*':
		prefix := r.Site[:len(r.Site)-1]
		if len(site) < len(prefix) || site[:len(prefix)] != prefix {
			return false
		}
	case r.Site != site:
		return false
	}
	return r.Lane == "" || r.Lane == lane
}

// Injected is both the error returned by CostError rules and the panic
// value raised by Panic rules, so supervisors and tests can recognize
// injected faults unambiguously.
type Injected struct {
	Rule Rule // the rule that fired
	N    int  // how many times the rule has fired, 1-based
	Site string
	Lane string
}

// Error describes the injected fault.
func (e *Injected) Error() string {
	return fmt.Sprintf("faults: injected %s at %s (lane %q, fire %d)",
		e.Rule.Class, e.Site, e.Lane, e.N)
}

// Attrs renders the fault as span attributes, so chaos events show up
// tagged in the request traces they failed.
func (e *Injected) Attrs() map[string]string {
	return map[string]string{
		"fault.class": e.Rule.Class.String(),
		"fault.site":  e.Site,
		"fault.lane":  e.Lane,
		"fault.fire":  strconv.Itoa(e.N),
	}
}

// ruleState pairs a rule with its evaluation bookkeeping. armedAt
// anchors time-varying standing conditions (replica-flap phases).
type ruleState struct {
	Rule
	evals   int
	fired   int
	armedAt time.Time
}

// RuleStatus is one rule with its counters, for snapshots.
type RuleStatus struct {
	Rule
	Evals int `json:"evals"`
	Fired int `json:"fired"`
}

// Status is the injector's observable state.
type Status struct {
	Seed     int64        `json:"seed"`
	Armed    bool         `json:"armed"`
	Injected uint64       `json:"injected_total"`
	Rules    []RuleStatus `json:"rules"`
}

// Injector evaluates armed rules at injection sites.
type Injector struct {
	mu    sync.Mutex
	seed  int64
	rng   *rand.Rand
	rules []ruleState
	// firing and standing count the armed rules of each kind. They are
	// written under mu, with rules, and read without it, so a query
	// with nothing of its kind armed takes no lock.
	firing, standing atomic.Int32

	total    *metrics.Counter
	byClass  map[Class]*metrics.Counter
	armed    *metrics.Gauge
	injected uint64
}

// New returns a disarmed injector whose probabilistic decisions derive
// from seed.
func New(seed int64) *Injector {
	return &Injector{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Instrument exports the injector's activity through reg:
// faults_injected_total, per-class faults_injected_<class>_total, and the
// faults_armed gauge.
func (i *Injector) Instrument(reg *metrics.Registry) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.total = reg.Counter("faults_injected_total", "faults injected across all classes")
	i.armed = reg.Gauge("faults_armed_rules", "fault rules currently armed")
	i.byClass = map[Class]*metrics.Counter{
		Latency:     reg.Counter("faults_injected_latency_total", "latency-spike faults injected"),
		Stall:       reg.Counter("faults_injected_stall_total", "stall faults injected"),
		Panic:       reg.Counter("faults_injected_panic_total", "panic faults injected"),
		CostError:   reg.Counter("faults_injected_cost_error_total", "cost-model-error faults injected"),
		MemPressure: reg.Counter("faults_injected_mem_pressure_total", "mem-pressure conditions applied"),
		ReplicaDown: reg.Counter("faults_injected_replica_down_total", "replica-down conditions applied"),
		ReplicaSlow: reg.Counter("faults_injected_replica_slow_total", "replica-slow conditions applied"),
		ReplicaFlap: reg.Counter("faults_injected_replica_flap_total", "replica-flap conditions applied"),
		LoadSpike:   reg.Counter("faults_injected_load_spike_total", "load-spike conditions applied"),
	}
	return i
}

// Arm replaces the rule set (and resets its counters and the RNG to the
// seed, so an identical arm replays identically). Invalid rules are
// rejected wholesale.
func (i *Injector) Arm(rules ...Rule) error {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rng = rand.New(rand.NewSource(i.seed))
	i.rules = make([]ruleState, len(rules))
	now := time.Now()
	var standing int32
	for idx, r := range rules {
		i.rules[idx] = ruleState{Rule: r, armedAt: now}
		if r.Class.standing() {
			standing++
		}
	}
	i.firing.Store(int32(len(rules)) - standing)
	i.standing.Store(standing)
	if i.armed != nil {
		i.armed.Set(int64(len(rules)))
	}
	return nil
}

// Disarm clears every rule; subsequent Apply calls are no-ops.
func (i *Injector) Disarm() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules = nil
	i.firing.Store(0)
	i.standing.Store(0)
	if i.armed != nil {
		i.armed.Set(0)
	}
}

// Armed reports whether any rules are active.
func (i *Injector) Armed() bool {
	return i.Firing() || i.holding()
}

// Firing reports, without taking the injector's lock, whether a rule that
// fires at Apply (latency, stall, panic, cost-error) is armed. While none
// is, Apply is a no-op at every site.
func (i *Injector) Firing() bool {
	return i != nil && i.firing.Load() > 0
}

// Snapshot returns the current rules and counters.
func (i *Injector) Snapshot() Status {
	if i == nil {
		return Status{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	st := Status{Seed: i.seed, Armed: len(i.rules) > 0, Injected: i.injected,
		Rules: make([]RuleStatus, len(i.rules))}
	for idx, r := range i.rules {
		st.Rules[idx] = RuleStatus{Rule: r.Rule, Evals: r.evals, Fired: r.fired}
	}
	return st
}

// Apply evaluates every armed rule against (site, lane). Latency and
// Stall fires sleep here; a Panic fire panics with an *Injected value; a
// CostError fire returns an *Injected error. Sleeps and the panic happen
// outside the injector's lock, so a recovered panic never wedges it. With
// no firing rule armed it returns at once, without the lock: the lane
// calls it every iteration.
func (i *Injector) Apply(site, lane string) error {
	if !i.Firing() {
		return nil
	}
	var sleep time.Duration
	var panicV, errV *Injected

	i.mu.Lock()
	for idx := range i.rules {
		r := &i.rules[idx]
		if r.Class.standing() {
			continue // queried via Pressure/Outage/Spike
		}
		if !r.matches(site, lane) {
			continue
		}
		r.evals++
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		var fire bool
		if r.Every > 0 {
			fire = r.evals%r.Every == 0
		} else {
			fire = i.rng.Float64() < r.P
		}
		if !fire {
			continue
		}
		r.fired++
		i.injected++
		if i.total != nil {
			i.total.Inc()
			i.byClass[r.Class].Inc()
		}
		inj := &Injected{Rule: r.Rule, N: r.fired, Site: site, Lane: lane}
		switch r.Class {
		case Latency, Stall:
			sleep += r.delay()
		case Panic:
			if panicV == nil {
				panicV = inj
			}
		case CostError:
			if errV == nil {
				errV = inj
			}
		}
	}
	i.mu.Unlock()

	if sleep > 0 {
		time.Sleep(sleep)
	}
	if panicV != nil {
		panic(panicV)
	}
	if errV != nil {
		return errV
	}
	return nil
}

// holding reports, without taking the lock, whether a standing rule is
// armed: with none, Pressure, Spike and Outage have nothing to report.
func (i *Injector) holding() bool {
	return i != nil && i.standing.Load() > 0
}

// Pressure returns the capacity fraction withheld at (site, lane) by
// armed mem-pressure rules: the sum of matching rules' fractions, capped
// at 1. Unlike firing classes, a mem-pressure rule exerts its effect for
// as long as it stays armed; disarming it releases the pressure. The
// method is nil-safe and counts each query as an evaluation, and the
// first query that observes a rule's pressure as its fire, so snapshots
// show standing rules taking effect.
func (i *Injector) Pressure(site, lane string) float64 {
	if !i.holding() {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	var frac float64
	for idx := range i.rules {
		r := &i.rules[idx]
		if r.Class != MemPressure || !r.matches(site, lane) {
			continue
		}
		r.evals++
		if r.fired == 0 {
			r.fired = 1
			i.injected++
			if i.total != nil {
				i.total.Inc()
				i.byClass[MemPressure].Inc()
			}
		}
		frac += r.Fraction
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// Spike returns the extra admission pressure standing load-spike rules
// exert at (site, lane): the sum of matching rules' fractions, capped at
// 1. The overload controller folds it into its pressure signal, so an
// armed load-spike drives the brownout ladder exactly as real offered
// load beyond capacity would — and disarming it recovers. Nil-safe;
// each query counts as an evaluation, and the first query that observes
// a rule's effect counts as its fire.
func (i *Injector) Spike(site, lane string) float64 {
	if !i.holding() {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	var frac float64
	for idx := range i.rules {
		r := &i.rules[idx]
		if r.Class != LoadSpike || !r.matches(site, lane) {
			continue
		}
		r.evals++
		if r.fired == 0 {
			r.fired = 1
			i.injected++
			if i.total != nil {
				i.total.Inc()
				i.byClass[LoadSpike].Inc()
			}
		}
		frac += r.Fraction
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// Outage reports the standing replica condition at (site, lane): whether
// matching replica-down/replica-flap rules hold the replica dead right
// now, and the extra per-request latency matching replica-slow rules
// impose. The cluster router's health checker polls it with site
// "replica" and the replica ID as the lane; like Pressure, the effect
// lasts for as long as the rule stays armed and ends at disarm. A
// replica-flap rule alternates dead and alive with half-period
// DelayMillis, anchored at arm time so the schedule is stable across
// polls. Nil-safe; each query counts as an evaluation, and the first
// query that observes a rule's effect counts as its fire.
func (i *Injector) Outage(site, lane string) (down bool, slow time.Duration) {
	if !i.holding() {
		return false, 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	now := time.Now()
	for idx := range i.rules {
		r := &i.rules[idx]
		var active bool
		switch r.Class {
		case ReplicaDown:
			active = true
		case ReplicaFlap:
			// Dead during even half-periods (starting at arm), alive
			// during odd ones.
			phase := int(now.Sub(r.armedAt) / r.delay())
			active = phase%2 == 0
		case ReplicaSlow:
			active = true
		default:
			continue
		}
		if !r.matches(site, lane) {
			continue
		}
		r.evals++
		if !active {
			continue
		}
		if r.fired == 0 {
			r.fired = 1
			i.injected++
			if i.total != nil {
				i.total.Inc()
				i.byClass[r.Class].Inc()
			}
		}
		switch r.Class {
		case ReplicaDown, ReplicaFlap:
			down = true
		case ReplicaSlow:
			slow += r.delay()
		}
	}
	return down, slow
}
