package engine

import (
	"testing"
	"time"

	"repro/internal/model"
)

// TestClassClocks holds the operator-class counters to the calls that
// advance them. Every entry point into a forward pass advances each class
// it runs (rope on LLaMA only), its Total lies inside the wall time
// measured around the call and, on the quietest of a few runs, within a
// fifth of it; Unattributed is never negative. (That a warm DecodeStep
// allocates nothing with the clock, always on, is TestDecodeStepZeroAlloc.)
func TestClassClocks(t *testing.T) {
	const reps = 5
	for _, f := range []model.Family{model.OPT, model.LLaMA2} {
		e := tinyEngine(t, f, KernelTileBF16Parallel)
		prompts := [][]int{prompt(e, 12, 1), prompt(e, 12, 2)}
		prefilled := func(batch int) *Session {
			s := e.NewSession(batch, 48)
			if _, err := e.Prefill(s, prompts[:batch]); err != nil {
				t.Fatal(err)
			}
			return s
		}
		decode, verify := prefilled(2), prefilled(1)
		// Each call runs the entry point once, inside timed, and returns
		// the counters it added, read off the session (or the result) it
		// ran on.
		var wall time.Duration
		timed := func(call func() error) error {
			start := time.Now()
			err := call()
			wall = time.Since(start)
			return err
		}
		calls := []struct {
			name string
			run  func() (ClassTimes, error)
		}{
			{"Prefill", func() (ClassTimes, error) {
				s := e.NewSession(2, 48)
				defer s.Release()
				err := timed(func() error { _, err := e.Prefill(s, prompts); return err })
				return s.Classes(), err
			}},
			{"PrefillChunked", func() (ClassTimes, error) {
				s := e.NewSession(2, 48)
				defer s.Release()
				err := timed(func() error { _, err := e.PrefillChunked(s, prompts, 5, nil); return err })
				return s.Classes(), err
			}},
			{"PrefillResume", func() (ClassTimes, error) {
				s, err := e.ForkPagedSession(decode, 8)
				if err != nil {
					return ClassTimes{}, err
				}
				defer s.Release()
				err = timed(func() error { _, err := e.PrefillResume(s, prompts); return err })
				return s.Classes(), err
			}},
			{"DecodeStep", func() (ClassTimes, error) {
				before := decode.Classes()
				err := timed(func() error { _, err := e.DecodeStep(decode, []int{1, 2}); return err })
				return decode.Classes().Sub(before), err
			}},
			{"VerifyRows", func() (ClassTimes, error) {
				before := verify.Classes()
				err := timed(func() error { _, err := e.VerifyRows(verify, prompts[1][:4]); return err })
				return verify.Classes().Sub(before), err
			}},
			{"Perplexity", func() (res ClassTimes, err error) {
				err = timed(func() error { r, err := e.Perplexity(prompts[0]); res = r.Classes; return err })
				return res, err
			}},
			{"Generate", func() (res ClassTimes, err error) {
				err = timed(func() error { _, st, err := e.Generate(prompts, 4); res = st.Classes; return err })
				return res, err
			}},
		}
		for _, c := range calls {
			var sum [NumClasses]time.Duration
			quietest := 1.0
			for range reps {
				got, err := c.run()
				if err != nil {
					t.Fatalf("%s %s: %v", f, c.name, err)
				}
				if got.Total <= 0 || got.Total > wall {
					t.Errorf("%s %s: Total %v outside the call's wall time %v", f, c.name, got.Total, wall)
				}
				if u := got.Unattributed(); u < 0 {
					t.Errorf("%s %s: classes sum past Total by %v", f, c.name, -u)
				}
				quietest = min(quietest, float64(wall-got.Total)/float64(wall))
				for k, d := range got.Class {
					sum[k] += d
				}
			}
			if quietest > 0.2 {
				t.Errorf("%s %s: Total misses %.0f %% of the wall time around the call even on its quietest run",
					f, c.name, 100*quietest)
			}
			for k, d := range sum {
				class := Class(k)
				if ran := class != ClassRoPE || f == model.LLaMA2; ran != (d > 0) {
					t.Errorf("%s %s: class %s took %v over %d calls; ran: %v", f, c.name, class, d, reps, ran)
				}
			}
		}
	}
}
