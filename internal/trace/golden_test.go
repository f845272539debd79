package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/record_golden.json")

const goldenPath = "testdata/record_golden.json"

// goldenSpans is one span of every shape the gateway emits, with fixed
// times: the rare phases, and the per-token phases (prefill, pricing,
// decode) plain and degraded. The per-token phases carry their attributes
// typed (as the gateway records them) or, with typed false, as the maps
// the golden file was recorded from.
func goldenSpans(typed bool) []SpanData {
	t0 := time.Unix(1700000000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	cnt := &Counters{LLCMPKI: 12.5, CoreUtilization: 0.75, MemoryBoundFraction: 0.625, UPIUtilization: 0.125}
	// perToken fills in one per-token span's attributes either way.
	perToken := func(s SpanData, degraded bool, kv ...Attr) SpanData {
		if degraded {
			kv = append(kv, Attr{AttrDegraded, 1})
		}
		for _, a := range kv {
			if typed {
				s.Fixed = s.Fixed.With(a.Key, int(a.Val))
				continue
			}
			if s.Attrs == nil {
				s.Attrs = map[string]string{}
			}
			s.Attrs[attrNames[a.Key]] = a.value()
		}
		return s
	}
	pricing := func(s SpanData, site int32, degraded bool) SpanData {
		s.Name = PhasePricing
		return perToken(s, degraded, Attr{AttrSite, site})
	}
	prefill := func(s SpanData, batch, inputLen, done int32, degraded bool) SpanData {
		s.Name = PhasePrefill
		return perToken(s, degraded, Attr{AttrBatch, batch}, Attr{AttrInputLen, inputLen}, Attr{AttrDone, done})
	}
	decode := func(s SpanData, token, batch, ctx int32, degraded bool) SpanData {
		s.Name = PhaseDecode
		return perToken(s, degraded, Attr{AttrToken, token}, Attr{AttrBatch, batch}, Attr{AttrCtx, ctx})
	}
	return []SpanData{
		{Name: PhaseAdmission, Start: at(0), End: at(40), Attrs: map[string]string{"lane": "spr|OPT-13B|0||"}},
		{Name: PhaseQueue, Start: at(40), End: at(90), Attrs: map[string]string{"lane": "spr|OPT-13B|0||", "requeues": "1"}},
		{Name: PhaseCacheLookup, Start: at(60), End: at(70), Attrs: map[string]string{"result": "hit", "cached_tokens": "448"}},
		{Name: PhaseBatch, Start: at(90), End: at(91), Attrs: map[string]string{"batch": "8"}},
		pricing(SpanData{Start: at(92), End: at(95), ModelSeconds: 0.0421}, SitePrefill, false),
		prefill(SpanData{Start: at(91), End: at(100), ModelSeconds: 0.0421, Counters: cnt}, 2, 64, 64, false),
		pricing(SpanData{Start: at(101), End: at(104), ModelSeconds: 0.05}, SitePrefill, true),
		prefill(SpanData{Start: at(100), End: at(110), ModelSeconds: 0.05}, 2, 64, 128, true),
		{Name: PhaseCacheHit, Start: at(110), End: at(110), ModelSeconds: 0.25,
			Attrs: map[string]string{"cached_tokens": "448", "saved_s": "0.25"}},
		{Name: PhaseFirstToken, Start: at(40), End: at(110), Attrs: map[string]string{"batch": "8"}},
		pricing(SpanData{Start: at(111), End: at(112), ModelSeconds: 1.25e-05}, SiteDecode, false),
		decode(SpanData{Start: at(110), End: at(115), ModelSeconds: 1.25e-05, Counters: cnt}, 2, 1, 65, false),
		pricing(SpanData{Start: at(116), End: at(117), ModelSeconds: 0.013}, SiteDecode, true),
		decode(SpanData{Start: at(115), End: at(120), ModelSeconds: 0.013}, 3, 8, 2047, true),
		pricing(SpanData{Start: at(121), End: at(122), ModelSeconds: 0.031}, SiteDecode, false),
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
// The file was recorded when every attribute was a map entry; typed
// attributes must encode to the same bytes.
func TestRecordGolden(t *testing.T) {
	rec, line := goldenRecord(t, goldenSpans(true))
	compact, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	mapRec, _ := goldenRecord(t, goldenSpans(false))
	if fromMaps, err := json.Marshal(mapRec); err != nil || !bytes.Equal(fromMaps, compact) {
		t.Errorf("typed and map attributes encode differently (err %v):\n%s\n%s", err, compact, fromMaps)
	}
	if n := len(rec.Spans); cap(rec.Spans)-n > n/8 {
		t.Errorf("retained record holds %d spans in a buffer of %d", n, cap(rec.Spans))
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
