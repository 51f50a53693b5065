package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
)

// TestArgumentAudit is the table-driven contract for argument handling:
// unknown subcommands and mistyped or inapplicable flags are rejected
// with a nonzero exit (run returns an error) and, for command-line
// errors, the usage summary.
func TestArgumentAudit(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the returned error
	}{
		{"no command", nil, "usage: decentsim"},
		{"unknown command", []string{"frobnicate"}, "unknown command"},
		{"unknown command shows usage", []string{"frobnicate"}, "usage: decentsim"},
		{"mistyped global flag", []string{"-bogus", "run", "E01"}, "-bogus"},
		{"mistyped subcommand flag", []string{"run", "-bogus", "E01"}, "-bogus"},
		{"run rejects html", []string{"run", "-html", "E01"}, "-html does not apply"},
		{"run rejects addr", []string{"run", "-addr", ":0", "E01"}, "-addr does not apply"},
		{"sweep rejects diff", []string{"sweep", "-diff", "x.json", "E01"}, "-diff does not apply"},
		{"rep rejects against", []string{"rep", "-against", "x.json", "E01"}, "-against does not apply"},
		{"trace rejects html", []string{"trace", "-html", "E01"}, "-html does not apply"},
		{"report rejects addr", []string{"report", "-addr", ":0", "E01"}, "-addr does not apply"},
		{"serve rejects csv", []string{"serve", "-csv"}, "-csv does not apply"},
		{"serve rejects out", []string{"serve", "-out", "x"}, "-out does not apply"},
		{"serve rejects seed", []string{"serve", "-seed", "2"}, "-seed does not apply"},
		{"serve rejects diff", []string{"serve", "-diff", "x.json"}, "-diff does not apply"},
		{"serve rejects multi-value knob", []string{"serve", "-set", "e01.exploration=0.2,0.4"}, "sweep subcommand"},
		{"serve unknown id", []string{"serve", "E99"}, "unknown experiment"},
		{"against needs diff", []string{"report", "-against", "x.json", "E01"}, "-against needs -diff"},
		{"diff rejects html", []string{"report", "-diff", "x.json", "-html", "E01"}, "writes no tree"},
		{"diff rejects out", []string{"report", "-diff", "x.json", "-out", "d", "E01"}, "writes no tree"},
		{"diff with against takes no ids", []string{"report", "-diff", "a.json", "-against", "b.json", "E01"}, "takes no experiment ids"},
		{"diff missing old file", []string{"report", "-diff", "does-not-exist.json", "E01"}, "does-not-exist.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error = %q, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestReportHTMLWritesSiblings checks `report -html` writes the HTML
// layer next to the markdown tree.
func TestReportHTMLWritesSiblings(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"report", "-html", "-seeds", "1", "-scale", "0.25", "-out", dir, "E01"}, &out)
	if err != nil {
		t.Fatalf("report -html: %v\n%s", err, out.String())
	}
	for _, want := range []string{"index.html", "REPORT.md", filepath.Join("experiments", "E01.html")} {
		data, err := os.ReadFile(filepath.Join(dir, want))
		if err != nil || len(data) == 0 {
			t.Errorf("missing artifact %s: %v", want, err)
		}
	}
}

// TestReportDiffAgainstFiles drives the pure two-file comparison: a
// verdict flip fails, identical manifests pass, and a drift-envelope
// breach fails — without running any experiments.
func TestReportDiffAgainstFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldMan := write("old.json", `{"title":"t","claims":[{"experiment":"E01","scenario":"E01|1|","title":"c","verdict":"REPRODUCED","checks_passed":1,"checks":1}],"files":[]}`)
	flipped := write("new.json", `{"title":"t","claims":[{"experiment":"E01","scenario":"E01|1|","title":"c","verdict":"NOT REPRODUCED","checks_passed":0,"checks":1}],"files":[]}`)

	var out bytes.Buffer
	err := run([]string{"report", "-diff", oldMan, "-against", flipped}, &out)
	if err == nil || !strings.Contains(err.Error(), "verdict(s) flipped") {
		t.Errorf("flip: err = %v, want verdict flip failure", err)
	}
	if !strings.Contains(out.String(), "FLIP") {
		t.Errorf("flip output = %q", out.String())
	}

	out.Reset()
	if err := run([]string{"report", "-diff", oldMan, "-against", oldMan}, &out); err != nil {
		t.Errorf("identical: err = %v", err)
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("identical output = %q", out.String())
	}

	oldDrift := write("old-drift.json", `{"seeds":100,"drift":[{"experiment":"E01","scale":1,"metric":"m","mean":1.5,"min":1.0,"max":2.0}],"runs":[]}`)
	breach := write("new-drift.json", `{"seeds":100,"drift":[{"experiment":"E01","scale":1,"metric":"m","mean":9.0,"min":8.0,"max":10.0}],"runs":[]}`)
	out.Reset()
	err = run([]string{"report", "-diff", oldDrift, "-against", breach}, &out)
	if err == nil || !strings.Contains(err.Error(), "drift envelope") {
		t.Errorf("breach: err = %v, want drift envelope failure", err)
	}
}

// TestReportDiffGeneratesAndCompares runs the generate-then-compare
// path end to end: the manifest of a fresh generation diffed against an
// identical baseline passes.
func TestReportDiffGeneratesAndCompares(t *testing.T) {
	reg, err := experiments.Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	tree, err := report.Generate(reg, report.Options{
		IDs: []string{"E01"}, Seeds: []int64{1}, Scale: 0.25,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	baseline := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(baseline, tree.Lookup("manifest.json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"report", "-diff", baseline, "-seeds", "1", "-scale", "0.25", "E01"}, &out); err != nil {
		t.Fatalf("self-diff failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS: no changes") {
		t.Errorf("self-diff output = %q", out.String())
	}
}

// TestServeHTTPServerTimeouts pins the hardening of the server serveCmd
// listens with: slow-header and idle connections are bounded, responses
// are not (a cold full-scale /report legitimately runs for minutes), and
// the handler is the one passed in.
func TestServeHTTPServerTimeouts(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTeapot) })
	srv := newHTTPServer(h)
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %s, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %s, want 2m", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %s, want none", srv.WriteTimeout)
	}
	rec := httptest.NewRecorder()
	srv.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusTeapot {
		t.Errorf("server does not route to the given handler (status %d)", rec.Code)
	}
}
