package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestListShowsAllExperiments(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	// The list is the paper suite, nothing more.
	var ids []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "  ") && len(f) > 0 {
			ids = append(ids, f[0])
		}
	}
	want := []string{"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "skew"}
	if !slices.Equal(ids, want) {
		t.Errorf("list shows %v, want %v", ids, want)
	}
}

func TestNoArgsPrintsHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit=%d", code)
	}
	if !strings.Contains(out.String(), "-run") {
		t.Error("help hint missing")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-run", "table1", "-quick", "-lookups", "100", "-repeats", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "cache line") {
		t.Errorf("table1 output missing:\n%s", out.String())
	}
}

func TestRunMultipleAndAlias(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-run", "fig5, fig2", "-quick", "-lookups", "100", "-repeats", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "comparison ratio") {
		t.Error("fig5 output missing")
	}
	if !strings.Contains(out.String(), "stepped frontier") {
		t.Error("fig2→fig14 alias output missing")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "fig99"}, &out, &errb); code != 2 {
		t.Fatalf("exit=%d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Error("error message missing")
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("exit=%d, want 2", code)
	}
}

// benchDoc mirrors the -json document shape.
type benchDoc struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Records    []struct {
		Experiment string         `json:"experiment"`
		Params     map[string]any `json:"params"`
		Metric     string         `json:"metric"`
		Value      float64        `json:"value"`
		Unit       string         `json:"unit"`
	} `json:"records"`
}

// fig10Methods are the eight indexes Figure 10 times, by record name.
var fig10Methods = []string{
	"array binary search", "tree binary search", "interpolation search", "T-tree",
	"B+-tree", "full CSS-tree", "level CSS-tree", "hash",
}

func TestJSONToStdoutSuppressesTables(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-run", "fig10", "-quick", "-lookups", "2000", "-repeats", "1", "-json", "-"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	var doc benchDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, out.String())
	}
	if doc.GoVersion == "" || doc.GOMAXPROCS < 1 {
		t.Errorf("environment context missing: %+v", doc)
	}
	if len(doc.Records) == 0 {
		t.Fatal("no records emitted")
	}
	// Figure 10 times every method twice: simulated on the Ultra Sparc II
	// caches and on this host's clock.
	seen := map[string]bool{}
	for _, r := range doc.Records {
		if r.Experiment != "fig10" || r.Metric != "lookup_time" || r.Value <= 0 {
			t.Fatalf("bad record: %+v", r)
		}
		mode, _ := r.Params["mode"].(string)
		method, _ := r.Params["method"].(string)
		seen[mode+"/"+method] = true
	}
	for _, mode := range []string{"simulated", "host"} {
		for _, m := range fig10Methods {
			if !seen[mode+"/"+m] {
				t.Errorf("no %s record for method %q", mode, m)
			}
		}
	}
}

func TestJSONToFileKeepsTables(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out, errb bytes.Buffer
	code := run([]string{"-run", "fig10", "-quick", "-lookups", "2000", "-repeats", "1", "-json", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "host wall-clock") {
		t.Error("table output suppressed with -json FILE")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("file is not JSON: %v", err)
	}
	methods := map[string]bool{}
	for _, r := range doc.Records {
		if m, ok := r.Params["method"].(string); ok {
			methods[m] = true
		}
	}
	for _, m := range fig10Methods {
		if !methods[m] {
			t.Errorf("file holds no record for method %q", m)
		}
	}
}
