package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/report"
)

// TestArgumentAudit is the table-driven contract for argument handling:
// unknown subcommands and mistyped or inapplicable flags are rejected
// with a nonzero exit (run returns an error) and, for command-line
// errors, the usage summary. Every other error is one line, -h prints
// the flag list once and succeeds, and nothing reaches stderr: main
// prints the returned error once.
func TestArgumentAudit(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the returned error; "" when run must succeed
		out  string // with want "": text stdout carries exactly once
	}{
		{"no command", nil, "usage: decentsim", ""},
		{"unknown command", []string{"frobnicate"}, "unknown command", ""},
		{"unknown command shows usage", []string{"frobnicate"}, "usage: decentsim", ""},
		{"mistyped global flag", []string{"-bogus", "run", "E01"}, "-bogus (see 'decentsim -h')", ""},
		{"mistyped subcommand flag", []string{"run", "-bogus", "E01"}, "-bogus (see 'decentsim run -h')", ""},
		{"run rejects html", []string{"run", "-html", "E01"}, "-html does not apply", ""},
		{"run rejects addr", []string{"run", "-addr", ":0", "E01"}, "-addr does not apply", ""},
		{"sweep rejects diff", []string{"sweep", "-diff", "x.json", "E01"}, "flag provided but not defined: -diff", ""},
		{"rep rejects against", []string{"rep", "E01"}, `unknown command "rep"`, ""},
		{"n is undefined", []string{"sweep", "-n", "3", "E01"}, "flag provided but not defined: -n (see 'decentsim sweep -h')", ""},
		{"trace rejects html", []string{"trace", "-html", "E01"}, "-html does not apply", ""},
		{"report rejects addr", []string{"report", "-addr", ":0", "E01"}, "-addr does not apply", ""},
		{"serve rejects csv", []string{"serve", "-csv"}, "-csv does not apply", ""},
		{"serve rejects out", []string{"serve", "-out", "x"}, "-out does not apply", ""},
		{"serve rejects seed", []string{"serve", "-seed", "2"}, "-seed does not apply", ""},
		{"serve rejects html", []string{"serve", "-html"}, "-html does not apply; serve always renders HTML", ""},
		{"serve rejects diff", []string{"serve", "-diff", "x.json"}, "flag provided but not defined: -diff", ""},
		{"serve rejects multi-value knob", []string{"serve", "-set", "e01.exploration=0.2,0.4"}, "sweep subcommand", ""},
		{"serve unknown id", []string{"serve", "E99"}, "unknown experiment", ""},
		{"against needs diff", []string{"report", "-diff", "x.json", "E01"}, "-diff (see 'decentsim report -h')", ""},
		{"diff rejects html", []string{"diff", "-html", "a.json", "b.json"}, "diff: takes no flags", ""},
		{"diff rejects out", []string{"diff", "-out", "d", "a.json", "b.json"}, "diff: takes no flags", ""},
		{"diff with against takes no ids", []string{"diff", "a.json", "b.json", "E01"}, "takes two sweep reports, OLD NEW (got 3 arguments)", ""},
		{"diff takes two files", []string{"diff", "a.json"}, "(got 1 arguments)", ""},
		{"diff missing old file", []string{"diff", "does-not-exist.json", "b.json"}, "does-not-exist.json", ""},
		{"help lists flags once", []string{"sweep", "-h"}, "", "\n  -seeds string\n"},
		{"global help lists flags once", []string{"-h"}, "", "\n  -seeds string\n"},
		{"help of a flagless command", []string{"diff", "-h"}, "", "diff OLD NEW"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			var err error
			if stderr := captureStderr(t, func() { err = run(tc.args, &out) }); stderr != "" {
				t.Errorf("run(%v) wrote to stderr: %q", tc.args, stderr)
			}
			if tc.want == "" {
				if err != nil {
					t.Fatalf("run(%v) = %v, want success", tc.args, err)
				}
				if n := strings.Count(out.String(), tc.out); n != 1 {
					t.Errorf("run(%v) printed %q %d times, want once:\n%s", tc.args, tc.out, n, out.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.want) {
				t.Errorf("run(%v) error = %q, want substring %q", tc.args, msg, tc.want)
			} else if strings.Contains(msg, "\n") && !strings.Contains(msg, "usage: decentsim") {
				t.Errorf("run(%v) error spans lines: %q", tc.args, msg)
			}
		})
	}
}

// captureStderr runs f with os.Stderr pointed at a temporary file and
// returns what f wrote there.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = tmp
	f()
	os.Stderr = saved
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
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

// TestReportDiffAgainstFiles drives `diff` over two sweep-report
// files without running any experiments: identical reports pass, a
// verdict flip fails, a headline mean that left the old report's
// envelope fails, and a report manifest is refused.
func TestReportDiffAgainstFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	sweep := func(name string, reproduced bool, mean, min, max float64) string {
		t.Helper()
		data, err := (&harness.Report{Groups: []harness.Group{{
			ExperimentID: "E01", Scale: 1, Replications: 100, Reproduced: reproduced,
			Metrics: []harness.MetricAgg{{Name: "m", N: 100, Mean: mean, Std: 0.1, Min: min, Max: max}},
		}}}).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return write(name, data)
	}
	old := sweep("old.json", true, 1.5, 1.0, 2.0)
	for _, tc := range []struct {
		name, file, want, out string
	}{
		{"identical", old, "", "PASS: no changes"},
		{"flip", sweep("flip.json", false, 1.5, 1.0, 2.0), "1 verdict flip(s), 0 envelope breach(es)", "FLIP  E01|1|: REPRODUCED -> NOT REPRODUCED"},
		{"breach", sweep("breach.json", true, 9.0, 8.0, 10.0), "0 verdict flip(s), 1 envelope breach(es)", "BREACH E01|1|: m mean 9"},
		{"manifest", write("manifest.json", []byte(`{"title":"t","groups":1,"claims":[],"files":[]}`)), "sweep -json", ""},
	} {
		var out bytes.Buffer
		err := run([]string{"diff", old, tc.file}, &out)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if !strings.Contains(out.String(), tc.out) {
			t.Errorf("%s: output = %q, want %q", tc.name, out.String(), tc.out)
		}
	}
}

// TestDriftRoundTrip feeds the sweep report `sweep -json` writes to the soak
// gate's reader: against itself it passes with nothing to report, and
// against a copy with one headline mean moved past its old [min, max] it
// reports exactly that breach.
func TestDriftRoundTrip(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"sweep", "-seeds", "1..2", "-scale", "0.25", "-json", "E01", "E11"}, &out); err != nil {
		t.Fatalf("sweep -json: %v\n%s", err, out.String())
	}
	data := out.Bytes()
	d, err := report.DiffDocs(data, data)
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if d.Failing() || d.Render() != "PASS: no changes\n" {
		t.Errorf("self-diff = %+v\n%s", d, d.Render())
	}

	var doc harness.Report
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Groups) != 2 {
		t.Fatalf("report has %d groups, want one per experiment: %+v", len(doc.Groups), doc.Groups)
	}
	g := &doc.Groups[1]
	head, ok := g.Headline()
	if !ok {
		t.Fatalf("E11 has no headline metric: %+v", g)
	}
	var moved *harness.MetricAgg
	for i := range g.Metrics {
		if g.Metrics[i].Name == head.Name {
			moved = &g.Metrics[i]
			break
		}
	}
	moved.Mean = moved.Max + 1
	movedData, err := doc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	d, err = report.DiffDocs(data, movedData)
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if !d.Failing() || len(d.Breaches) != 1 || len(d.Added)+len(d.Removed)+len(d.Flips) != 0 {
		t.Fatalf("want exactly one breach: %+v", d)
	}
	if br := d.Breaches[0]; br.Metric != moved.Name || !strings.HasPrefix(br.Scenario, "E11|") ||
		br.NewMean != moved.Mean || br.OldMin != moved.Min || br.OldMax != moved.Max {
		t.Errorf("breach = %+v, want E11's %q at %g outside [%g, %g]", br, moved.Name, moved.Mean, moved.Min, moved.Max)
	}
}

// TestSoakBaseline checks the committed soak baseline without running a
// simulation: SOAK_baseline.json is the sweep report of
// `sweep -seeds 1..50 -json all`, one error-free group of 50 replications
// with a headline metric per experiment, in registry order, and the
// verdict gate passes it against itself. It asserts no verdict: the seed
// count is chosen for CI time, not so that a claim reads REPRODUCED.
func TestSoakBaseline(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "SOAK_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc harness.Report
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("SOAK_baseline.json is not a sweep report: %v", err)
	}
	reg, err := experiments.Registry()
	if err != nil {
		t.Fatal(err)
	}
	var ids, want []string
	for _, e := range reg.All() {
		want = append(want, e.ID())
	}
	for _, g := range doc.Groups {
		ids = append(ids, g.ExperimentID)
		if _, ok := g.Headline(); !ok || g.Replications != 50 || len(g.Seeds) != 50 || len(g.Errors) != 0 {
			t.Errorf("%s: %d replications over %d seeds, %d errors, headline %t; want 50, 50, 0, true",
				g.ExperimentID, g.Replications, len(g.Seeds), len(g.Errors), ok)
		}
	}
	if got, want := strings.Join(ids, " "), strings.Join(want, " "); got != want || len(ids) != 19 {
		t.Errorf("baseline groups = %q, want the 19 experiments in registry order %q", got, want)
	}
	d, err := report.DiffDocs(data, data)
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if got := d.Render(); got != "PASS: no changes\n" {
		t.Errorf("self-diff = %q, want PASS: no changes", got)
	}
}

// TestReportDiffGeneratesAndCompares runs a slice of the soak end to
// end: E01's 50-seed sweep report, diffed against the committed
// SOAK_baseline.json, matches its group there, so the gate passes with
// the other 18 groups REMOVED. A change that flips E01's verdict fails it.
func TestReportDiffGeneratesAndCompares(t *testing.T) {
	var sweep bytes.Buffer
	if err := run([]string{"sweep", "-seeds", "1..50", "-json", "E01"}, &sweep); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	soak := filepath.Join(t.TempDir(), "soak.json")
	if err := os.WriteFile(soak, sweep.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"diff", filepath.Join("..", "..", "SOAK_baseline.json"), soak}, &out); err != nil {
		t.Fatalf("diff against the soak baseline: %v\n%s", err, out.String())
	}
	if !strings.HasSuffix(out.String(), "PASS: no verdict flips or breaches (0 added, 18 removed)\n") {
		t.Errorf("diff output = %q", out.String())
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

// TestServeRefusesBadBaseScenario checks that serve refuses a base
// scenario no /report could generate before it listens, instead of
// serving a 500 for every /report. The timeout guards the failure mode:
// a serve that accepts the scenario listens until interrupted.
func TestServeRefusesBadBaseScenario(t *testing.T) {
	for _, tc := range []struct{ set, id, want string }{
		{"e01.customers=1", "E01", "below the measurement floor"},
		{"e08.loss=0.1", "E08", "requires e08.mix away from its default"},
	} {
		var out bytes.Buffer
		errc := make(chan error, 1)
		go func() {
			errc <- run([]string{"serve", "-set", tc.set, "-addr", "127.0.0.1:0", tc.id}, &out)
		}()
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("serve -set %s err = %v, want %q", tc.set, err, tc.want)
			}
			if strings.Contains(out.String(), "listening") {
				t.Errorf("serve listened before refusing its scenario: %q", out.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("serve accepted the base scenario -set %s and kept listening", tc.set)
		}
	}
}
