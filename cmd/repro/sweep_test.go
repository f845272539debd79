package main

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

func testGrid() grid {
	return grid{
		platforms: []string{"spr", "h100"},
		models:    []model.Config{core.MustModel("OPT-13B"), core.MustModel("OPT-66B")},
		batches:   []int{1, 8},
		inputs:    []int{128, 512},
		output:    32,
	}
}

func TestRunGridShape(t *testing.T) {
	rows, err := testGrid().run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*2*2*2 {
		t.Fatalf("got %d rows, want 16", len(rows))
	}
	// Row-major ordering: inputs vary fastest.
	if rows[0].input != 128 || rows[1].input != 512 {
		t.Error("ordering wrong")
	}
	for _, r := range rows {
		if r.err != nil {
			t.Errorf("%s/%s b=%d in=%d failed: %v", r.platform, r.model, r.batch, r.input, r.err)
			continue
		}
		if r.result.Throughput.E2E <= 0 {
			t.Errorf("degenerate point %+v", r)
		}
	}
}

func TestGridValidation(t *testing.T) {
	bad := testGrid()
	bad.platforms = nil
	if _, err := bad.run(); err == nil {
		t.Error("empty platforms must fail")
	}
	bad = testGrid()
	bad.platforms = []string{"tpu"}
	if _, err := bad.run(); err == nil {
		t.Error("unknown platform must fail")
	}
	bad = testGrid()
	bad.output = 0
	if _, err := bad.run(); err == nil {
		t.Error("zero output must fail")
	}
}

func TestWriteCSV(t *testing.T) {
	rows, err := testGrid().run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	skipped, err := writeCSV(&buf, 32, rows)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped %d rows", skipped)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(rows)+1 {
		t.Fatalf("CSV has %d records, want %d", len(recs), len(rows)+1)
	}
	if len(recs[0]) != len(csvHeader) {
		t.Error("header width wrong")
	}
	// Numeric fields parse.
	for _, rec := range recs[1:] {
		for col := 5; col < len(rec); col++ {
			if _, err := strconv.ParseFloat(rec[col], 64); err != nil {
				t.Fatalf("column %d = %q not numeric", col, rec[col])
			}
		}
	}
}

func TestWriteCSVSkipsFailedRows(t *testing.T) {
	rows := []sweepRow{{platform: "spr", model: "x", err: errFake}}
	var buf bytes.Buffer
	skipped, err := writeCSV(&buf, 32, rows)
	if err != nil || skipped != 1 {
		t.Errorf("skipped=%d err=%v", skipped, err)
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

func TestSimulateUnknownPlatform(t *testing.T) {
	if _, err := simulatePoint("tpu", core.MustModel("OPT-13B"), 1, 128, 32); err == nil {
		t.Error("unknown platform must fail")
	}
}
