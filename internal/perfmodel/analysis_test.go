package perfmodel

import (
	"strings"
	"testing"

	"repro/internal/model"
)

func TestAnalyzePhases(t *testing.T) {
	r := sprRun(model.OPT13B, 1, 128, 32)
	dec, err := r.Analyze(model.Decode, 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Batch-1 decode: every weight-carrying op must be memory-bound.
	for _, o := range dec {
		if o.Name == "qkv_proj" || o.Name == "ffn_up" || o.Name == "ffn_down" {
			if !o.MemBound {
				t.Errorf("decode %s should be memory-bound (AI %.1f)", o.Name, o.Intensity)
			}
		}
		if o.Seconds < o.ComputeSec || o.Seconds < o.MemorySec {
			t.Errorf("%s: Seconds not the max", o.Name)
		}
	}
	// Batch-8 prefill: the big linear ops must be compute-bound on AMX.
	r8 := sprRun(model.OPT13B, 8, 128, 32)
	pre, err := r8.Analyze(model.Prefill, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawComputeBoundAMX bool
	for _, o := range pre {
		if !o.MemBound && o.Path == "amx-bf16" {
			sawComputeBoundAMX = true
		}
	}
	if !sawComputeBoundAMX {
		t.Error("batch-8 prefill should have compute-bound AMX ops")
	}
	bad := r
	bad.Batch = 0
	if _, err := bad.Analyze(model.Decode, 1, 1); err == nil {
		t.Error("invalid run must fail analysis")
	}
}

func TestAnalyzeIntensityOrdering(t *testing.T) {
	r := sprRun(model.OPT13B, 8, 128, 32)
	pre, _ := r.Analyze(model.Prefill, 128, 0)
	dec, _ := r.Analyze(model.Decode, 1, 128)
	ai := func(ops []OpAnalysis, name string) float64 {
		for _, o := range ops {
			if o.Name == name {
				return o.Intensity
			}
		}
		t.Fatalf("op %s missing", name)
		return 0
	}
	if ai(pre, "qkv_proj") <= ai(dec, "qkv_proj") {
		t.Error("prefill AI must exceed decode AI for the same op")
	}
}

func TestRenderAnalysis(t *testing.T) {
	r := sprRun(model.Llama13B, 2, 128, 32)
	ops, err := r.Analyze(model.Decode, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderAnalysis(ops)
	for _, want := range []string{"qkv_proj", "lm_head", "total:", "bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
