package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/record_golden.json")

const goldenPath = "testdata/record_golden.json"

// goldenSpans is one span of every shape the gateway emits, with fixed
// times: the rare phases, and the per-token phases (prefill, pricing,
// decode) plain and degraded.
func goldenSpans() []SpanData {
	t0 := time.Unix(1700000000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	cnt := &Counters{LLCMPKI: 12.5, CoreUtilization: 0.75, MemoryBoundFraction: 0.625, UPIUtilization: 0.125}
	decode := func(token, batch, ctx int, degraded bool) map[string]string {
		m := map[string]string{"token": strconv.Itoa(token), "batch": strconv.Itoa(batch), "ctx": strconv.Itoa(ctx)}
		if degraded {
			m["degraded"] = "true"
		}
		return m
	}
	pricing := func(site string, degraded bool) map[string]string {
		m := map[string]string{"site": site}
		if degraded {
			m["degraded"] = "true"
		}
		return m
	}
	return []SpanData{
		{Name: PhaseAdmission, Start: at(0), End: at(40), Attrs: map[string]string{"lane": "spr|OPT-13B|0||"}},
		{Name: PhaseQueue, Start: at(40), End: at(90), Attrs: map[string]string{"lane": "spr|OPT-13B|0||", "requeues": "1"}},
		{Name: PhaseCacheLookup, Start: at(60), End: at(70), Attrs: map[string]string{"result": "hit", "cached_tokens": "448"}},
		{Name: PhaseBatch, Start: at(90), End: at(91), Attrs: map[string]string{"batch": "8"}},
		{Name: PhasePricing, Start: at(92), End: at(95), ModelSeconds: 0.0421, Attrs: pricing("cost.prefill", false)},
		{Name: PhasePrefill, Start: at(91), End: at(100), ModelSeconds: 0.0421, Counters: cnt,
			Attrs: map[string]string{"batch": "2", "input_len": "64", "done": "64"}},
		{Name: PhasePricing, Start: at(101), End: at(104), ModelSeconds: 0.05, Attrs: pricing("cost.prefill", true)},
		{Name: PhasePrefill, Start: at(100), End: at(110), ModelSeconds: 0.05,
			Attrs: map[string]string{"batch": "2", "input_len": "64", "done": "128", "degraded": "true"}},
		{Name: PhaseCacheHit, Start: at(110), End: at(110), ModelSeconds: 0.25,
			Attrs: map[string]string{"cached_tokens": "448", "saved_s": "0.25"}},
		{Name: PhaseFirstToken, Start: at(40), End: at(110), Attrs: map[string]string{"batch": "8"}},
		{Name: PhasePricing, Start: at(111), End: at(112), ModelSeconds: 1.25e-05, Attrs: pricing("cost.decode", false)},
		{Name: PhaseDecode, Start: at(110), End: at(115), ModelSeconds: 1.25e-05, Counters: cnt, Attrs: decode(2, 1, 65, false)},
		{Name: PhasePricing, Start: at(116), End: at(117), ModelSeconds: 0.013, Attrs: pricing("cost.decode", true)},
		{Name: PhaseDecode, Start: at(115), End: at(120), ModelSeconds: 0.013, Attrs: decode(3, 8, 2047, true)},
		{Name: PhasePricing, Start: at(121), End: at(122), ModelSeconds: 0.031, Attrs: pricing("cost.decode", false)},
		{Name: PhaseSpeculative, Start: at(120), End: at(125), ModelSeconds: 0.031, Attrs: map[string]string{
			"k": "4", "proposed": "4", "accepted": "3", "committed": "4", "batch": "8", "ctx": "70"}},
		{Name: "fault", Start: at(125), End: at(125), Attrs: map[string]string{
			"fault.class": "cost-error", "fault.site": "cost.decode", "fault.lane": "spr|OPT-13B|0||", "fault.fire": "1"}},
		{Name: PhaseHandler, Start: at(0), End: at(130), Attrs: map[string]string{
			"method": "POST", "path": "/v1/generate", "status": "200"}},
	}
}

// goldenRecord runs spans through a tracer and returns the retained
// record with its run-dependent fields pinned, plus the JSONL line the
// tracer exported for it.
func goldenRecord(t *testing.T, spans []SpanData) (Record, []byte) {
	t.Helper()
	var out bytes.Buffer
	tr := New(Config{SampleRate: 1, Output: &out})
	tc := tr.Start("req-golden")
	tc.SetLane("spr|OPT-13B|0||")
	tc.SetDegraded()
	for _, s := range spans {
		tc.Add(s)
	}
	tc.Finish()
	recs := tr.Recent(1)
	if len(recs) != 1 {
		t.Fatalf("retained %d records, want 1", len(recs))
	}
	rec := recs[0]
	rec.ID = "00000000000000aa"
	rec.StartUnixNano = time.Unix(1700000000, 0).UnixNano()
	rec.DurationNanos = 130000
	return rec, out.Bytes()
}

// TestRecordGolden pins the exported form of a trace record byte for
// byte: what GET /v1/traces serves and what the JSONL Output receives.
func TestRecordGolden(t *testing.T) {
	rec, line := goldenRecord(t, goldenSpans())
	compact, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("record encoding differs from %s:\n%s", goldenPath, buf.Bytes())
	}

	// The JSONL export is the same encoder over the same spans.
	var exported, golden struct {
		Spans json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(line, &exported); err != nil {
		t.Fatalf("JSONL line: %v", err)
	}
	if err := json.Unmarshal(compact, &golden); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exported.Spans, golden.Spans) {
		t.Errorf("JSONL spans differ from the record's:\n%s\n%s", exported.Spans, golden.Spans)
	}
}
