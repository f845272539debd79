package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// finishOne starts a trace, adds one span of the given phase and seals it.
func finishOne(tr *Tracer, phase string, err error) *Trace {
	t := tr.Start("req")
	start := time.Now()
	t.Add(SpanData{Name: phase, Start: start, End: start.Add(time.Millisecond)})
	t.SetError(err)
	t.Finish()
	return t
}

func TestStrideSamplingIsExact(t *testing.T) {
	for _, rate := range []float64{0, 0.1, 0.25, 0.5, 1} {
		tr := New(Config{SampleRate: rate})
		const n = 100
		var sampled int
		for i := 0; i < n; i++ {
			if tr.Start("req").sampled {
				sampled++
			}
		}
		if want := int(math.Floor(n * rate)); sampled != want {
			t.Errorf("rate %g: sampled %d of %d, want exactly %d", rate, sampled, n, want)
		}
	}
}

func TestErroredAndDegradedAlwaysRetained(t *testing.T) {
	tr := New(Config{SampleRate: 0})

	ok := finishOne(tr, PhaseDecode, nil)
	if _, found := tr.Get(ok.ID()); found {
		t.Error("unsampled ok trace was retained at rate 0")
	}

	failed := finishOne(tr, PhaseDecode, errors.New("boom"))
	rec, found := tr.Get(failed.ID())
	if !found {
		t.Fatal("errored trace not retained at rate 0")
	}
	if rec.Status != "error" || rec.Error == "" {
		t.Errorf("errored record %+v, want status=error with message", rec)
	}

	deg := tr.Start("req")
	deg.SetDegraded()
	deg.Finish()
	if rec, found = tr.Get(deg.ID()); !found || !rec.Degraded {
		t.Errorf("degraded trace not retained (found=%v rec=%+v)", found, rec)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := New(Config{SampleRate: 1, RingSize: 4})
	ids := make([]string, 6)
	for i := range ids {
		ids[i] = finishOne(tr, PhaseQueue, nil).ID()
	}
	for _, id := range ids[:2] {
		if _, found := tr.Get(id); found {
			t.Errorf("evicted trace %s still resolvable", id)
		}
	}
	recent := tr.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("Recent returned %d records, want 4", len(recent))
	}
	// Newest first: ids[5], ids[4], ids[3], ids[2].
	for i, rec := range recent {
		if want := ids[5-i]; rec.ID != want {
			t.Errorf("Recent[%d] = %s, want %s", i, rec.ID, want)
		}
	}
}

func TestJSONLOutput(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{SampleRate: 1, Output: &buf})
	finishOne(tr, PhasePrefill, nil)
	finishOne(tr, PhaseDecode, errors.New("boom"))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2: %q", len(lines), buf.String())
	}
	for i, line := range lines {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if rec.ID == "" || len(rec.Spans) != 1 {
			t.Errorf("line %d: incomplete record %+v", i, rec)
		}
	}
}

func TestPhaseHistogramsInRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Config{SampleRate: 0, Registry: reg})
	// Histograms must be fed even for traces that are not retained.
	finishOne(tr, PhaseDecode, nil)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	text := buf.String()
	if !strings.Contains(text, "trace_phase_decode_seconds") {
		t.Errorf("no decode phase histogram in exposition:\n%s", text)
	}
	if !strings.Contains(text, "trace_dropped_total 1") {
		t.Errorf("dropped counter not incremented:\n%s", text)
	}
}

func TestNilTraceAndTracerAreSafe(t *testing.T) {
	var tr *Tracer
	if tr.Start("req") != nil {
		t.Fatal("nil tracer should hand out nil traces")
	}
	var tc *Trace
	// None of these may panic.
	tc.SetLane("l")
	tc.SetDegraded()
	tc.SetError(errors.New("x"))
	tc.Add(SpanData{Name: PhaseQueue})
	tc.Event("fault", time.Now(), nil)
	tc.Finish()
	if tc.ID() != "" || tc.PhaseSeconds() != nil {
		t.Error("nil trace leaked state")
	}
	if _, found := tr.Get("x"); found {
		t.Error("nil tracer resolved a trace")
	}
}

func TestSpansAfterFinishDropped(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	tc := tr.Start("req")
	tc.Finish()
	tc.Add(SpanData{Name: PhaseDecode, Start: time.Now(), End: time.Now()})
	if rec, _ := tr.Get(tc.ID()); len(rec.Spans) != 0 {
		t.Errorf("span added after Finish was recorded: %+v", rec.Spans)
	}
}

func TestPhaseSecondsSumsPerName(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	tc := tr.Start("req")
	base := time.Now()
	tc.Add(SpanData{Name: PhaseDecode, Start: base, End: base.Add(10 * time.Millisecond)})
	tc.Add(SpanData{Name: PhaseDecode, Start: base, End: base.Add(5 * time.Millisecond)})
	tc.Add(SpanData{Name: PhaseQueue, Start: base, End: base.Add(2 * time.Millisecond)})
	got := tc.PhaseSeconds()
	if d := got[PhaseDecode]; math.Abs(d-0.015) > 1e-9 {
		t.Errorf("decode seconds %g, want 0.015", d)
	}
	if q := got[PhaseQueue]; math.Abs(q-0.002) > 1e-9 {
		t.Errorf("queue seconds %g, want 0.002", q)
	}
}

func TestServerTimingRoundTrip(t *testing.T) {
	in := map[string]float64{
		PhaseQueue:   0.0015,
		PhasePrefill: 0.25,
		PhaseDecode:  1.5,
		"custom":     0.004,
	}
	header := FormatServerTiming(in)
	// Canonical phases must come first, in PhaseOrder.
	if !strings.HasPrefix(header, fmt.Sprintf("%s;dur=", PhaseQueue)) {
		t.Errorf("header does not start with the first present canonical phase: %q", header)
	}
	out := ParseServerTiming(header)
	if len(out) != len(in) {
		t.Fatalf("round trip lost entries: %v -> %q -> %v", in, header, out)
	}
	for name, secs := range in {
		if ms := out[name]; math.Abs(ms-secs*1e3) > 0.001 {
			t.Errorf("%s: parsed %gms, want %gms", name, ms, secs*1e3)
		}
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	tc := tr.Start("req")
	ctx := NewContext(t.Context(), tc)
	if got := FromContext(ctx); got != tc {
		t.Fatal("trace lost in context round trip")
	}
	if got := FromContext(t.Context()); got != nil {
		t.Fatalf("empty context produced a trace: %v", got)
	}
}

func TestFinishIsIdempotent(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Config{SampleRate: 1, Registry: reg})
	tc := finishOne(tr, PhaseDecode, nil)
	tc.Finish() // second seal must not double-retain
	var n int
	for _, rec := range tr.Recent(10) {
		if rec.ID == tc.ID() {
			n++
		}
	}
	if n != 1 {
		t.Errorf("trace retained %d times after double Finish", n)
	}
}
