package faults

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestEveryFiresDeterministically(t *testing.T) {
	i := New(1)
	if err := i.Arm(Rule{Class: CostError, Site: "cost.decode", Every: 3}); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for n := 1; n <= 9; n++ {
		if err := i.Apply("cost.decode", "l"); err != nil {
			fired = append(fired, n)
			var inj *Injected
			if !errors.As(err, &inj) {
				t.Fatalf("error %v is not *Injected", err)
			}
		}
	}
	if len(fired) != 3 || fired[0] != 3 || fired[1] != 6 || fired[2] != 9 {
		t.Fatalf("fired at %v, want [3 6 9]", fired)
	}
	if st := i.Snapshot(); st.Rules[0].Evals != 9 || st.Rules[0].Fired != 3 {
		t.Errorf("snapshot %+v", st.Rules[0])
	}
}

func TestCountCapsAndSiteLaneFilters(t *testing.T) {
	i := New(1)
	if err := i.Arm(Rule{Class: CostError, Site: "cost.*", Lane: "a", Every: 1, Count: 2}); err != nil {
		t.Fatal(err)
	}
	if err := i.Apply("lane", "a"); err != nil {
		t.Error("site filter leaked to lane site")
	}
	if err := i.Apply("cost.prefill", "b"); err != nil {
		t.Error("lane filter leaked to lane b")
	}
	hits := 0
	for n := 0; n < 5; n++ {
		if i.Apply("cost.prefill", "a") != nil {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("count cap: %d fires, want 2", hits)
	}
}

func TestProbabilisticIsSeedReproducible(t *testing.T) {
	run := func() []bool {
		i := New(42)
		if err := i.Arm(Rule{Class: CostError, P: 0.5}); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 32)
		for n := range out {
			out[n] = i.Apply("cost.decode", "l") != nil
		}
		return out
	}
	a, b := run(), run()
	some := false
	for n := range a {
		if a[n] != b[n] {
			t.Fatalf("same seed diverged at eval %d", n)
		}
		some = some || a[n]
	}
	if !some {
		t.Error("p=0.5 over 32 evals never fired")
	}
}

func TestPanicCarriesInjectedValue(t *testing.T) {
	i := New(1)
	if err := i.Arm(Rule{Class: Panic, Site: "lane", Every: 1, Count: 1}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		inj, ok := r.(*Injected)
		if !ok || inj.Rule.Class != Panic || inj.Site != "lane" {
			t.Fatalf("recovered %#v", r)
		}
		// The injector must not be wedged after the panic.
		if err := i.Apply("lane", "l"); err != nil {
			t.Errorf("post-panic apply: %v", err)
		}
	}()
	i.Apply("lane", "l")
	t.Fatal("panic rule did not panic")
}

func TestLatencySleeps(t *testing.T) {
	i := New(1)
	if err := i.Arm(Rule{Class: Latency, Every: 1, Count: 1, DelayMillis: 30}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := i.Apply("cost.decode", "l"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("latency fault slept only %v", d)
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var i *Injector
	if err := i.Apply("lane", "l"); err != nil {
		t.Fatal(err)
	}
	if i.Armed() {
		t.Error("nil injector armed")
	}
	if st := i.Snapshot(); st.Armed || len(st.Rules) != 0 {
		t.Errorf("nil snapshot %+v", st)
	}
}

func TestArmValidatesAndResets(t *testing.T) {
	i := New(1)
	if err := i.Arm(Rule{Class: Latency, Every: 1}); err == nil {
		t.Error("latency without delay accepted")
	}
	if err := i.Arm(Rule{Class: CostError}); err == nil {
		t.Error("rule without trigger accepted")
	}
	if err := i.Arm(Rule{Class: CostError, P: 1.5}); err == nil {
		t.Error("p > 1 accepted")
	}
	if err := i.Arm(Rule{Class: CostError, Every: 2}); err != nil {
		t.Fatal(err)
	}
	i.Apply("x", "")
	i.Apply("x", "")
	if err := i.Arm(Rule{Class: CostError, Every: 2}); err != nil {
		t.Fatal(err)
	}
	if st := i.Snapshot(); st.Rules[0].Evals != 0 {
		t.Error("re-arm did not reset counters")
	}
	i.Disarm()
	if i.Armed() {
		t.Error("still armed after Disarm")
	}
}

func TestConcurrentApplyIsSafe(t *testing.T) {
	i := New(7).Instrument(metrics.NewRegistry())
	if err := i.Arm(Rule{Class: CostError, P: 0.3}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				_ = i.Apply("cost.decode", "l")
			}
		}()
	}
	wg.Wait()
	st := i.Snapshot()
	if st.Rules[0].Evals != 1600 {
		t.Errorf("evals %d, want 1600", st.Rules[0].Evals)
	}
	if st.Injected == 0 || uint64(st.Rules[0].Fired) != st.Injected {
		t.Errorf("injected %d, rule fired %d", st.Injected, st.Rules[0].Fired)
	}
}

// TestFiringCountsByKind: Firing sees only rules that fire at Apply, so a
// standing condition alone leaves Apply a lock-free no-op while Pressure
// still reports it.
func TestFiringCountsByKind(t *testing.T) {
	i := New(1)
	pressure := Rule{Class: MemPressure, Site: "govern.kv", Fraction: 0.5}
	if err := i.Arm(pressure); err != nil {
		t.Fatal(err)
	}
	if !i.Armed() || i.Firing() {
		t.Fatalf("mem-pressure alone: Armed %v Firing %v, want true false", i.Armed(), i.Firing())
	}
	if err := i.Apply("cost.decode", "l"); err != nil {
		t.Fatal(err)
	}
	if f := i.Pressure("govern.kv", "l"); f != 0.5 {
		t.Fatalf("pressure %g, want 0.5", f)
	}
	if err := i.Arm(pressure, Rule{Class: CostError, Every: 1}); err != nil {
		t.Fatal(err)
	}
	if !i.Firing() {
		t.Fatal("a cost-error rule is armed but Firing is false")
	}
	if err := i.Apply("cost.decode", "l"); err == nil {
		t.Fatal("armed cost-error rule did not fire")
	}
	i.Disarm()
	if i.Armed() || i.Firing() || i.Pressure("govern.kv", "l") != 0 {
		t.Fatal("disarmed injector still reports rules")
	}
}

// TestChaosArmRacesQueries re-arms and disarms while Apply and Pressure run on
// other goroutines (run under -race): every query sees either the rule set
// before a swap or the one after it, never a count of one and the rules
// of the other.
func TestChaosArmRacesQueries(t *testing.T) {
	i := New(3).Instrument(metrics.NewRegistry())
	sets := [][]Rule{
		{{Class: CostError, Site: "cost.decode", Every: 1}},
		{{Class: MemPressure, Site: "govern.kv", Fraction: 0.25}},
		{{Class: CostError, Site: "cost.decode", Every: 1}, {Class: MemPressure, Site: "govern.kv", Fraction: 0.25}},
		nil,
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var inj *Injected
				if err := i.Apply("cost.decode", "l"); err != nil && !errors.As(err, &inj) {
					t.Errorf("Apply returned %v", err)
				}
				if f := i.Pressure("govern.kv", "l"); f != 0 && f != 0.25 {
					t.Errorf("Pressure returned %g", f)
				}
			}
		}()
	}
	for n := 0; n < 2000; n++ {
		if rules := sets[n%len(sets)]; rules == nil {
			i.Disarm()
		} else if err := i.Arm(rules...); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := i.Arm(sets[0]...); err != nil {
		t.Fatal(err)
	}
	if i.Apply("cost.decode", "l") == nil || i.Pressure("govern.kv", "l") != 0 {
		t.Error("after the race, a cost-error rule alone is not what the injector reports")
	}
}

func TestMetricsExported(t *testing.T) {
	reg := metrics.NewRegistry()
	i := New(1).Instrument(reg)
	if err := i.Arm(Rule{Class: CostError, Every: 1, Count: 1}); err != nil {
		t.Fatal(err)
	}
	_ = i.Apply("cost.decode", "l")
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"faults_injected_total 1",
		"faults_injected_cost_error_total 1",
		"faults_armed_rules 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("panic@lane:every=50,count=3; latency@cost.decode:p=0.05,delay=20ms,lane=x")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("%d rules", len(rules))
	}
	if r := rules[0]; r.Class != Panic || r.Site != "lane" || r.Every != 50 || r.Count != 3 {
		t.Errorf("rule 0: %+v", r)
	}
	if r := rules[1]; r.Class != Latency || r.P != 0.05 || r.DelayMillis != 20 || r.Lane != "x" {
		t.Errorf("rule 1: %+v", r)
	}
	for _, bad := range []string{
		"", "bogus@lane:every=1", "panic@lane", "panic@lane:every", "panic@lane:weird=1",
		"latency:every=1", "stall:delay=abc", "cost-error:p=2",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestRuleJSONRoundTrip(t *testing.T) {
	in := Rule{Class: Stall, Site: "cost.prefill", Every: 4, Count: 2, DelayMillis: 100}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"class":"stall"`) {
		t.Errorf("class not marshaled as name: %s", b)
	}
	var out Rule
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip %+v != %+v", out, in)
	}
	if err := json.Unmarshal([]byte(`{"class":"nope"}`), &out); err == nil {
		t.Error("unknown class accepted")
	}
	if err := json.Unmarshal([]byte(`{"class":7}`), &out); err == nil {
		t.Error("numeric class accepted")
	}
}

func TestReplicaOutageConditions(t *testing.T) {
	inj := New(1)
	if down, slow := inj.Outage("replica", "r0"); down || slow != 0 {
		t.Fatalf("disarmed injector reports outage down=%v slow=%v", down, slow)
	}
	if err := inj.Arm(
		Rule{Class: ReplicaDown, Site: "replica", Lane: "r1"},
		Rule{Class: ReplicaSlow, Site: "replica", Lane: "r2", DelayMillis: 25},
	); err != nil {
		t.Fatal(err)
	}
	if down, slow := inj.Outage("replica", "r0"); down || slow != 0 {
		t.Errorf("unmatched replica r0: down=%v slow=%v", down, slow)
	}
	if down, _ := inj.Outage("replica", "r1"); !down {
		t.Error("replica-down rule did not take r1 down")
	}
	if down, slow := inj.Outage("replica", "r2"); down || slow != 25*time.Millisecond {
		t.Errorf("replica-slow on r2: down=%v slow=%v", down, slow)
	}
	inj.Disarm()
	if down, _ := inj.Outage("replica", "r1"); down {
		t.Error("outage survives disarm")
	}

	// Flap alternates dead/alive with half-period delay, dead first.
	if err := inj.Arm(Rule{Class: ReplicaFlap, Site: "replica", Lane: "r1", DelayMillis: 40}); err != nil {
		t.Fatal(err)
	}
	if down, _ := inj.Outage("replica", "r1"); !down {
		t.Error("flap not down in its first half-period")
	}
	time.Sleep(50 * time.Millisecond)
	if down, _ := inj.Outage("replica", "r1"); down {
		t.Error("flap still down in its second half-period")
	}
}

func TestReplicaRuleValidation(t *testing.T) {
	for _, bad := range []Rule{
		{Class: ReplicaDown, DelayMillis: 5},         // down takes no delay
		{Class: ReplicaSlow},                         // slow needs delay
		{Class: ReplicaFlap},                         // flap needs delay
		{Class: ReplicaDown, Every: 3},               // standing: no trigger
		{Class: ReplicaSlow, DelayMillis: 5, P: 0.5}, // standing: no trigger
		{Class: ReplicaFlap, DelayMillis: 5, Count: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("rule %+v accepted", bad)
		}
	}
	for _, spec := range []string{
		"replica-down@replica:lane=r1",
		"replica-slow@replica:lane=r1,delay=50ms",
		"replica-flap@replica:lane=r2,delay=200ms",
	} {
		if _, err := ParseSpec(spec); err != nil {
			t.Errorf("spec %q rejected: %v", spec, err)
		}
	}
}
