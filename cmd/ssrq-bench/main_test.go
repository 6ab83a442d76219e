package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssrq/internal/exp"
)

func TestRunFigureSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "table2", "-scale", "small"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	got := stdout.String()
	for _, want := range []string{"Table 2", "gowalla", "completed in"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunJSONReport: -json must write a parseable report whose points carry
// the figure's series (one point per algorithm and swept value).
func TestRunJSONReport(t *testing.T) {
	args := []string{"-exp", "fig13", "-scale", "small", "-queries", "4"}
	path := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-json", path), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep exp.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, raw)
	}
	if rep.Exp != "fig13" || rep.Scale != "small" {
		t.Fatalf("report metadata = %q/%q", rep.Exp, rep.Scale)
	}
	if len(rep.Points) == 0 {
		t.Fatal("report has no points")
	}
	for _, p := range rep.Points {
		if p.Exp != "fig13" || p.Dataset != "twitter" || p.Algo == "" {
			t.Fatalf("point tagged %q/%q/%q", p.Exp, p.Dataset, p.Algo)
		}
		if p.Queries != 4 || p.RuntimeUS <= 0 {
			t.Fatalf("implausible point %+v", p)
		}
	}
	// stdout mode renders the same report.
	stdout.Reset()
	if code := run(append(args, "-json", "-"), &stdout, &stderr); code != 0 {
		t.Fatalf("run -json - = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), `"runtime_us"`) {
		t.Error("stdout JSON mode missing measurement payload")
	}
}

func TestRunValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "galactic"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad scale run = %d", code)
	}
	if code := run([]string{"-exp", "fig99", "-scale", "small"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown experiment run = %d", code)
	}
	if code := run([]string{"-badflag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag run = %d", code)
	}
	// The serving-cell flags are gone with their cells, and -ch with the
	// contraction hierarchy.
	for _, flag := range []string{"-parallel=2", "-ch"} {
		if code := run([]string{"-exp", "table2", "-scale", "small", flag}, &stdout, &stderr); code != 2 {
			t.Fatalf("retired %s flag run = %d", flag, code)
		}
	}
}
