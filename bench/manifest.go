package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifestPath is BENCHMARK.json, the benchmark's contract, seen from the
// root of the checkout, which is where run.sh starts the harness. It is
// the only list of workloads and metrics: the harness reports exactly the
// metrics it names, with the units it gives.
const manifestPath = "BENCHMARK.json"

// metricDef is one metric of the manifest. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

type manifest struct {
	Command    []string
	Paths      []string
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func loadManifest(path string) (manifest, error) {
	var mf manifest
	raw, err := os.ReadFile(path)
	if err != nil {
		return mf, err
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		return mf, fmt.Errorf("%s: %w", path, err)
	}
	return mf, nil
}

func (mf manifest) workloadNames() []string {
	names := make([]string, len(mf.Workloads))
	for i, w := range mf.Workloads {
		names[i] = w.Name
	}
	return names
}
