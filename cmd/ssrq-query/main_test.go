package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"ssrq"
	"ssrq/internal/core"
	"ssrq/internal/httpapi"
)

func TestRunSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-preset", "twitter", "-n", "300", "-k", "5", "-algo", "TSA"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"dataset", "rank", "stats:", "algorithm TSA"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunBadArgs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-algo", "QUANTUM", "-preset", "twitter", "-n", "200"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown algo run = %d", code)
	}
	if !strings.Contains(errOut.String(), "unknown algorithm") {
		t.Fatalf("stderr: %s", errOut.String())
	}
	if code := run([]string{"-nosuchflag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag run = %d", code)
	}
	if code := run([]string{"-preset", "nope", "-n", "100"}, &out, &errOut); code != 1 {
		t.Fatalf("bad preset run = %d", code)
	}
}

// TestFrontEndsAgreeOnAlgorithms: the CLI and the HTTP API resolve -algo /
// algo= through one name table, so they accept exactly the same names —
// the four served ones, in any case — and refuse SPA and every figure
// variant alike. The -h usage line lists the menu in enum order, the same on
// every run.
func TestFrontEndsAgreeOnAlgorithms(t *testing.T) {
	ds, err := ssrq.Synthesize("twitter", 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ssrq.NewEngine(ds, &ssrq.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	api := httpapi.New(eng)

	var names []string
	for a := core.SFA; a <= core.BruteForce; a++ {
		names = append(names, a.String(), strings.ToLower(a.String()))
	}
	names = append(names, "BRUTE", "QUANTUM")
	accepted := 0
	for _, name := range names {
		var out, errOut bytes.Buffer
		code := run([]string{"-preset", "twitter", "-n", "200", "-q", "0", "-k", "3", "-algo", name}, &out, &errOut)
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest("GET", "/query?q=0&k=3&algo="+url.QueryEscape(name), nil))
		if (code == 0) != (rec.Code == http.StatusOK) {
			t.Fatalf("algo %q: CLI exit %d (%s), HTTP %d (%s)", name, code, errOut.String(), rec.Code, rec.Body)
		}
		if code == 0 {
			accepted++
		} else if !strings.Contains(errOut.String(), "unknown algorithm") || rec.Code != http.StatusBadRequest {
			t.Fatalf("algo %q: CLI stderr %q, HTTP %d, want an unknown-algorithm refusal from both", name, errOut.String(), rec.Code)
		}
	}
	if accepted != 9 { // four served names in two cases, plus "BRUTE"
		t.Fatalf("%d names accepted, want 9", accepted)
	}

	usage := func() string {
		var out, errOut bytes.Buffer
		if code := run([]string{"-h"}, &out, &errOut); code != 2 {
			t.Fatalf("-h exit = %d", code)
		}
		return errOut.String()
	}
	first := usage()
	if !strings.Contains(first, "algorithm: SFA|TSA|AIS|Brute") {
		t.Fatalf("usage does not list the menu in enum order:\n%s", first)
	}
	for i := 0; i < 5; i++ {
		if again := usage(); again != first {
			t.Fatalf("usage changed between runs:\n%s\nvs\n%s", first, again)
		}
	}
}
