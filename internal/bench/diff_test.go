package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport() *BenchReport {
	return &BenchReport{
		Unit: "test op",
		Entries: []BenchEntry{
			{Instance: "grid2d_10", Mode: "engine", Iterations: 1000, NsPerOp: 1000, Width: 4, AllocsPerOp: 10},
			{Instance: "grid2d_10", Mode: "engine-nocache", Iterations: 1000, NsPerOp: 5000, Width: 4, AllocsPerOp: 50},
			{Instance: "adder_25", Mode: "engine", Iterations: 1000, NsPerOp: 2000, Width: 2, AllocsPerOp: 20},
		},
	}
}

// degrade returns a copy of r with the named entry's ns/op multiplied.
func degrade(r *BenchReport, instance, mode string, factor float64) *BenchReport {
	out := &BenchReport{Unit: r.Unit, Entries: append([]BenchEntry(nil), r.Entries...)}
	for i, e := range out.Entries {
		if e.Instance == instance && e.Mode == mode {
			out.Entries[i].NsPerOp = e.NsPerOp * factor
		}
	}
	return out
}

func TestDiffReportsCleanRun(t *testing.T) {
	old := sampleReport()
	d := DiffReports(old, degrade(old, "grid2d_10", "engine", 1.2), 0.5)
	if d.Regressed() {
		t.Fatalf("20%% drift flagged at 50%% threshold:\n%s", d.Format())
	}
	for _, e := range d.Entries {
		if e.Verdict != "ok" {
			t.Fatalf("entry %s/%s verdict %q, want ok", e.Instance, e.Mode, e.Verdict)
		}
	}
}

func TestDiffReportsSyntheticRegression(t *testing.T) {
	old := sampleReport()
	bad := degrade(old, "grid2d_10", "engine", 3.0)
	d := DiffReports(old, bad, 0.5)
	if !d.Regressed() {
		t.Fatalf("3x slowdown not flagged:\n%s", d.Format())
	}
	var hit *DiffEntry
	for i := range d.Entries {
		if d.Entries[i].Instance == "grid2d_10" && d.Entries[i].Mode == "engine" {
			hit = &d.Entries[i]
		} else if d.Entries[i].Verdict == "regressed" {
			t.Fatalf("untouched entry flagged: %+v", d.Entries[i])
		}
	}
	if hit == nil || hit.Verdict != "regressed" || hit.Ratio < 2.9 || hit.Ratio > 3.1 {
		t.Fatalf("regressed entry wrong: %+v", hit)
	}
	if !strings.Contains(d.Format(), "REGRESSED") {
		t.Fatalf("format missing REGRESSED:\n%s", d.Format())
	}
}

func TestDiffReportsImprovementAndChurn(t *testing.T) {
	old := sampleReport()
	improved := degrade(old, "grid2d_10", "engine-nocache", 0.2)
	// Drop one entry and add a new mode.
	improved.Entries = improved.Entries[:len(improved.Entries)-1]
	improved.Entries = append(improved.Entries, BenchEntry{
		Instance: "grid2d_10", Mode: "engine-nooprec", Iterations: 1000, NsPerOp: 1100, Width: 4,
	})
	d := DiffReports(old, improved, 0.5)
	if d.Regressed() {
		t.Fatalf("improvement/churn flagged as regression:\n%s", d.Format())
	}
	verdicts := map[string]string{}
	for _, e := range d.Entries {
		verdicts[e.Instance+"/"+e.Mode] = e.Verdict
	}
	if verdicts["grid2d_10/engine-nocache"] != "improved" {
		t.Fatalf("5x speedup verdict %q", verdicts["grid2d_10/engine-nocache"])
	}
	if verdicts["adder_25/engine"] != "removed" || verdicts["grid2d_10/engine-nooprec"] != "added" {
		t.Fatalf("churn verdicts wrong: %v", verdicts)
	}
}

func TestDiffReportsWidthChangeIsNoteNotRegression(t *testing.T) {
	old := sampleReport()
	widthChanged := sampleReport()
	widthChanged.Entries[0].Width = 5
	d := DiffReports(old, widthChanged, 0.5)
	if d.Regressed() {
		t.Fatal("width change alone treated as perf regression")
	}
	if len(d.Entries[0].Notes) == 0 || !strings.Contains(d.Entries[0].Notes[0], "width changed") {
		t.Fatalf("width change not noted: %+v", d.Entries[0])
	}
}

func TestCompareBenchJSONEndToEnd(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	old := sampleReport()
	if err := WriteBenchJSON(old, oldPath); err != nil {
		t.Fatal(err)
	}
	if err := WriteBenchJSON(degrade(old, "adder_25", "engine", 4.0), newPath); err != nil {
		t.Fatal(err)
	}
	out, regressed, err := CompareBenchJSON(oldPath, newPath, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out, "REGRESSED") {
		t.Fatalf("gate did not trip:\n%s", out)
	}
	// Same file on both sides: never regressed.
	out, regressed, err = CompareBenchJSON(oldPath, oldPath, 0.5)
	if err != nil || regressed {
		t.Fatalf("self-compare regressed (%v):\n%s", err, out)
	}
	if _, _, err := CompareBenchJSON(oldPath, filepath.Join(dir, "missing.json"), 0.5); err == nil {
		t.Fatal("missing report not an error")
	}
}

// TestDiffReportsParNoiseFloor: the "-par" modes gate at threshold ×
// ParNoiseFactor, so scheduler-induced drift that would flag a serial mode
// passes, while a real parallel regression still trips.
func TestDiffReportsParNoiseFloor(t *testing.T) {
	old := &BenchReport{Unit: "test op", Entries: []BenchEntry{
		{Instance: "grid2d_14", Mode: "bb-serial", Iterations: 10, NsPerOp: 1000, Width: 4},
		{Instance: "grid2d_14", Mode: "bb-par", Iterations: 10, NsPerOp: 800, Width: 4, Workers: 4},
	}}
	// 1.8x: beyond the 50% serial gate, inside the widened 100% parallel gate.
	drifted := degrade(old, "grid2d_14", "bb-par", 1.8)
	d := DiffReports(old, drifted, 0.5)
	if d.Regressed() {
		t.Fatalf("1.8x parallel drift flagged despite ParNoiseFactor:\n%s", d.Format())
	}
	// The same drift on the serial mode must still trip.
	if d := DiffReports(old, degrade(old, "grid2d_14", "bb-serial", 1.8), 0.5); !d.Regressed() {
		t.Fatalf("1.8x serial slowdown not flagged:\n%s", d.Format())
	}
	// A real parallel regression beyond the widened gate trips too.
	if d := DiffReports(old, degrade(old, "grid2d_14", "bb-par", 2.5), 0.5); !d.Regressed() {
		t.Fatalf("2.5x parallel slowdown not flagged:\n%s", d.Format())
	}
}

// TestCheckBenchJSONParPairing: a report with a "-par" entry and no serial
// baseline (or with a bogus worker count) must fail validation; the width
// cross-check must not apply to the whole-search modes.
func TestCheckBenchJSONParPairing(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *BenchReport) string {
		p := filepath.Join(dir, name)
		if err := WriteBenchJSON(r, p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := &BenchReport{Unit: "test op", Entries: []BenchEntry{
		{Instance: "grid2d_10", Mode: "engine", Iterations: 10, NsPerOp: 1000, Width: 4},
		// Search modes legitimately report widths differing from the
		// evaluator mode (different op), and from each other when a budget
		// truncates the anytime run at a schedule-dependent point.
		{Instance: "grid2d_10", Mode: "bb-serial", Iterations: 10, NsPerOp: 5000, Width: 3},
		{Instance: "grid2d_10", Mode: "bb-par", Iterations: 10, NsPerOp: 2000, Width: 3, Workers: 4},
	}}
	if err := CheckBenchJSON(write("good.json", good)); err != nil {
		t.Fatalf("valid paired report rejected: %v", err)
	}
	unpaired := &BenchReport{Unit: "test op", Entries: []BenchEntry{
		{Instance: "grid2d_10", Mode: "bb-par", Iterations: 10, NsPerOp: 2000, Width: 3, Workers: 4},
	}}
	if err := CheckBenchJSON(write("unpaired.json", unpaired)); err == nil {
		t.Fatal("bb-par without bb-serial accepted")
	}
	serialPar := &BenchReport{Unit: "test op", Entries: []BenchEntry{
		{Instance: "grid2d_10", Mode: "bb-serial", Iterations: 10, NsPerOp: 5000, Width: 3},
		{Instance: "grid2d_10", Mode: "bb-par", Iterations: 10, NsPerOp: 2000, Width: 3, Workers: 1},
	}}
	if err := CheckBenchJSON(write("workers1.json", serialPar)); err == nil {
		t.Fatal("bb-par with workers=1 accepted")
	}
	badWidth := &BenchReport{Unit: "test op", Entries: []BenchEntry{
		{Instance: "grid2d_10", Mode: "engine", Iterations: 10, NsPerOp: 1000, Width: 4},
		{Instance: "grid2d_10", Mode: "engine-nocache", Iterations: 10, NsPerOp: 1000, Width: 5},
	}}
	if err := CheckBenchJSON(write("badwidth.json", badWidth)); err == nil {
		t.Fatal("evaluator width mismatch accepted")
	}
}
