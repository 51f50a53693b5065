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
		{"rep rejects against", []string{"rep", "-against", "x.json", "E01"}, `unknown command "rep"`},
		{"sweep rejects against", []string{"sweep", "-against", "x.json", "E01"}, "-against does not apply"},
		{"n is undefined", []string{"sweep", "-n", "3", "E01"}, "flag provided but not defined: -n"},
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
// verdict flip fails, identical manifests pass, and a sweep report whose
// headline mean left the old report's envelope fails — without running
// any experiments.
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

	sweep := func(name string, mean, min, max float64) string {
		t.Helper()
		data, err := (&harness.Report{Groups: []harness.Group{{
			ExperimentID: "E01", Scale: 1, Replications: 100,
			Metrics: []harness.MetricAgg{{Name: "m", N: 100, Mean: mean, Std: 0.1, Min: min, Max: max}},
		}}}).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return write(name, string(data))
	}
	oldSweep, breach := sweep("old-sweep.json", 1.5, 1.0, 2.0), sweep("new-sweep.json", 9.0, 8.0, 10.0)
	out.Reset()
	err = run([]string{"report", "-diff", oldSweep, "-against", breach}, &out)
	if err == nil || !strings.Contains(err.Error(), "drift envelope") {
		t.Errorf("breach: err = %v, want drift envelope failure", err)
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
	if d.Kind != "sweep" || d.Failing() || d.Render() != "PASS: no changes\n" {
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
	if !d.Failing() || len(d.Breaches) != 1 || len(d.Added)+len(d.Removed)+len(d.Flips)+len(d.Drifts) != 0 {
		t.Fatalf("want exactly one breach: %+v", d)
	}
	if br := d.Breaches[0]; br.Metric != moved.Name || !strings.HasPrefix(br.Scenario, "E11|") ||
		br.NewMean != moved.Mean || br.OldMin != moved.Min || br.OldMax != moved.Max {
		t.Errorf("breach = %+v, want E11's %q at %g outside [%g, %g]", br, moved.Name, moved.Mean, moved.Min, moved.Max)
	}
}

// TestSoakBaseline checks the committed soak baseline without running a
// simulation: SOAK_baseline.json is the sweep report of
// `sweep -seeds 1..100 -json E01 E03 E11 E16`, one error-free group of 100
// replications with a headline metric per experiment, and the soak gate's
// comparator passes it against itself.
func TestSoakBaseline(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "SOAK_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc harness.Report
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("SOAK_baseline.json is not a sweep report: %v", err)
	}
	var ids []string
	for _, g := range doc.Groups {
		ids = append(ids, g.ExperimentID)
		if _, ok := g.Headline(); !ok || g.Replications != 100 || len(g.Seeds) != 100 || len(g.Errors) != 0 {
			t.Errorf("%s: %d replications over %d seeds, %d errors, headline %t; want 100, 100, 0, true",
				g.ExperimentID, g.Replications, len(g.Seeds), len(g.Errors), ok)
		}
	}
	if got := strings.Join(ids, " "); got != "E01 E03 E11 E16" {
		t.Errorf("baseline groups = %q, want E01 E03 E11 E16", got)
	}
	d, err := report.DiffDocs(data, data)
	if err != nil {
		t.Fatalf("DiffDocs: %v", err)
	}
	if got := d.Render(); got != "PASS: no changes\n" {
		t.Errorf("self-diff = %q, want PASS: no changes", got)
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
