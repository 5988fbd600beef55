package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestTraceNilSafe: every method on a nil Trace/Span is a no-op.
func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	sp := tr.Root()
	sp = sp.Child("x").AttrInt("n", 1).Attr("s", "v").AttrBool("b", true).SetDur(time.Second)
	sp.End()
	tr.Finish()
	if tr.String() != "" || sp.Name() != "" || sp.Dur() != 0 || sp.Find("x") != nil || sp.AttrValue("n") != "" {
		t.Fatal("nil trace leaked state")
	}
}

// TestTraceFind: spans are discoverable by name with their attributes.
func TestTraceFind(t *testing.T) {
	tr := NewTrace("q")
	tr.Root().Child("plan").AttrInt("est_rows", 42)
	tr.Finish()
	if got := tr.Root().Find("plan").AttrValue("est_rows"); got != "42" {
		t.Fatalf("est_rows = %q", got)
	}
}

// TestExplainGolden renders a hand-built trace (fixed durations — no
// clock reads reach the output) against the checked-in golden tree.
func TestExplainGolden(t *testing.T) {
	tr := NewTrace("SelectRange")
	root := tr.Root()
	root.Attr("table", "orders").Attr("col", "amount").AttrInt("lo", 100).AttrInt("hi", 900)
	root.SetDur(1234 * time.Microsecond)

	plan := root.Child("plan")
	plan.AttrBool("use_index", true).AttrInt("est_rows", 5000).Attr("why", "selectivity 0.5% below scan break-even")
	plan.SetDur(2 * time.Microsecond)

	cache := root.Child("cache")
	cache.Attr("outcome", "contained").AttrInt("tail_rows", 2)
	cache.SetDur(87 * time.Nanosecond)

	exec := root.Child("execute")
	exec.Attr("path", "sharded").AttrInt("shards_touched", 3).AttrInt("delta_runs", 1).AttrInt("workers", 4).AttrInt("rows", 4980)
	exec.SetDur(1100 * time.Microsecond)
	probe := exec.Child("shard-probe")
	probe.AttrInt("shards", 2).SetDur(90 * time.Microsecond)
	admit := root.Child("admit")
	admit.AttrInt("bytes", 19920).AttrBool("admitted", true)
	admit.SetDur(3 * time.Microsecond)

	got := tr.String()
	golden := filepath.Join("testdata", "explain.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("explain tree mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
