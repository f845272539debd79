package trace

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

// tokenSpans adds what one decoded token of a traced sequence adds: a
// pricing span and a decode span.
func tokenSpans(tc *Trace, now time.Time, token int) {
	tc.Add(SpanData{Name: PhasePricing, Start: now, End: now, ModelSeconds: 0.013,
		Fixed: FixedAttrs{}.With(AttrSite, SiteDecode)})
	tc.Add(SpanData{Name: PhaseDecode, Start: now, End: now, ModelSeconds: 0.013,
		Fixed: FixedAttrs{}.With(AttrToken, token).With(AttrBatch, 8).With(AttrCtx, 512+token)})
}

// BenchmarkAddFinish is one retained 64-token trace end to end: start,
// the two spans of every token, finish into the ring (histograms on).
func BenchmarkAddFinish(b *testing.B) {
	tr := New(Config{SampleRate: 1, Registry: metrics.NewRegistry()})
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := tr.Start("bench")
		for tok := 0; tok < 64; tok++ {
			tokenSpans(tc, now, tok)
		}
		tc.Finish()
	}
}
