package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/report"
)

// testScenario keeps handler tests fast: one small experiment, one seed,
// quarter scale.
var testScenario = report.Options{IDs: []string{"E01"}, Seeds: []int64{1}, Scale: 0.25}

func testServer(t *testing.T) *Server {
	t.Helper()
	reg, err := experiments.Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	return New(reg, testScenario, obs.NewCollector())
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestReportCacheMissThenHit pins the cache contract: the first /report
// request generates (miss), the second is served from the cache (hit)
// with byte-identical content, and the obs lanes record both.
func TestReportCacheMissThenHit(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	first := get(t, h, "/report")
	if first.Code != http.StatusOK {
		t.Fatalf("first /report: %d %s", first.Code, first.Body.String())
	}
	if lane := first.Header().Get("X-Decentsim-Cache"); lane != "miss" {
		t.Errorf("first request lane = %q, want miss", lane)
	}
	second := get(t, h, "/report")
	if second.Code != http.StatusOK {
		t.Fatalf("second /report: %d", second.Code)
	}
	if lane := second.Header().Get("X-Decentsim-Cache"); lane != "hit" {
		t.Errorf("second request lane = %q, want hit", lane)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("cached response differs from generated response")
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Sweeps != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 sweep", st)
	}
}

// TestServedBytesMatchOffline pins the byte-identity acceptance
// criterion: what the service streams equals the offline report tree for
// the same scenario.
func TestServedBytesMatchOffline(t *testing.T) {
	reg, err := experiments.Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	opts := testScenario
	opts.HTML = true
	offline, err := report.Generate(reg, opts)
	if err != nil {
		t.Fatalf("offline Generate: %v", err)
	}
	h := testServer(t).Handler()
	for _, f := range offline.Files {
		rec := get(t, h, "/report/"+f.Path)
		if rec.Code != http.StatusOK {
			t.Fatalf("/report/%s: %d", f.Path, rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), f.Data) {
			t.Fatalf("/report/%s differs from offline tree", f.Path)
		}
	}
}

// TestRoutes covers the route surface: index aliases, per-experiment
// pages, content types, unknown artifacts.
func TestRoutes(t *testing.T) {
	h := testServer(t).Handler()

	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Errorf("/healthz = %d %q", rec.Code, rec.Body.String())
	}
	index := get(t, h, "/report")
	if ct := index.Header().Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("/report content type = %q", ct)
	}
	alias := get(t, h, "/report/index.html")
	if !bytes.Equal(alias.Body.Bytes(), index.Body.Bytes()) {
		t.Errorf("/report and /report/index.html disagree")
	}
	man := get(t, h, "/report/manifest.json")
	if man.Code != http.StatusOK || man.Header().Get("Content-Type") != "application/json" {
		t.Errorf("/report/manifest.json = %d %q", man.Code, man.Header().Get("Content-Type"))
	}
	page := get(t, h, "/experiments/e01")
	if page.Code != http.StatusOK || !bytes.Contains(page.Body.Bytes(), []byte("<html")) {
		t.Errorf("/experiments/e01 = %d", page.Code)
	}
	if rec := get(t, h, "/report/no-such-file"); rec.Code != http.StatusNotFound {
		t.Errorf("/report/no-such-file = %d, want 404", rec.Code)
	}
	if rec := get(t, h, "/experiments/E99"); rec.Code >= 200 && rec.Code < 300 {
		t.Errorf("/experiments/E99 = %d, want failure", rec.Code)
	}
	if rec := get(t, h, "/statz"); rec.Code != http.StatusOK ||
		!bytes.Contains(rec.Body.Bytes(), []byte("cache_hits")) {
		t.Errorf("/statz = %d %q", rec.Code, rec.Body.String())
	}
}

// TestStatzBody pins /statz's exact bytes: Stats' JSON keys in field order,
// compact, one trailing newline.
func TestStatzBody(t *testing.T) {
	h := testServer(t).Handler()
	get(t, h, "/report")
	get(t, h, "/report")
	rec := get(t, h, "/statz")
	const want = `{"cache_hits":1,"cache_misses":1,"cache_inflight_waits":0,"sweeps":1}` + "\n"
	if rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Errorf("/statz = %d %q, want %q", rec.Code, rec.Body.String(), want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/statz content type = %q", ct)
	}
}

// TestRunSingleflight pins the collapse contract: concurrent identical
// /run requests share one generation — exactly one sweep runs, every
// response carries identical bytes, and the lane headers partition into
// one miss plus waits/hits.
func TestRunSingleflight(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	const n = 8
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/run?scenario=E01&seeds=1&scale=0.25", nil))
			recs[i] = rec
		}(i)
	}
	wg.Wait()

	lanes := map[string]int{}
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body.String())
		}
		lanes[rec.Header().Get("X-Decentsim-Cache")]++
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Errorf("request %d bytes differ", i)
		}
	}
	if lanes["miss"] != 1 {
		t.Errorf("lanes = %v, want exactly one miss", lanes)
	}
	if lanes["miss"]+lanes["wait"]+lanes["hit"] != n {
		t.Errorf("lanes = %v, want %d total", lanes, n)
	}
	if st := s.Stats(); st.Sweeps != 1 {
		t.Errorf("stats = %+v, want exactly one sweep for %d identical requests", st, n)
	}
}

// TestRunScenarioIdentity checks /run keying: the same scenario spelled
// through /run hits the cache entry the default /report scenario filled,
// under the key of the canonical base, and a different scenario misses.
func TestRunScenarioIdentity(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	base := testScenario
	base.HTML = true
	canon, err := report.Canonical(s.reg, base)
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	if got, want := get(t, h, "/report").Header().Get("X-Decentsim-Key"), Key(canon); got != want {
		t.Errorf("/report X-Decentsim-Key = %q, want the canonical base's %q", got, want)
	}
	same := get(t, h, "/run?scenario=E01&seeds=1&scale=0.25&artifact=index.html")
	if lane := same.Header().Get("X-Decentsim-Cache"); lane != "hit" {
		t.Errorf("identical scenario via /run lane = %q, want hit", lane)
	}
	if got, want := same.Header().Get("X-Decentsim-Key"), Key(canon); got != want {
		t.Errorf("/run X-Decentsim-Key = %q, want the base's %q", got, want)
	}
	other := get(t, h, "/run?scenario=E01&seeds=2&scale=0.25")
	if lane := other.Header().Get("X-Decentsim-Cache"); lane != "miss" {
		t.Errorf("different seed set lane = %q, want miss", lane)
	}
	if other.Header().Get("X-Decentsim-Key") == same.Header().Get("X-Decentsim-Key") {
		t.Errorf("different scenarios share a cache key")
	}
}

// TestRunMalformedScenario pins the 400 contract for every malformed
// scenario class. The seed specs are the ones harness.ParseSeeds' own
// table rejects — /run parses seeds with that function, so the service
// and the CLI refuse the same lists — plus the per-request seed cap.
func TestRunMalformedScenario(t *testing.T) {
	srv := testServer(t)
	h := srv.Handler()
	cases := []struct{ name, query, want string }{
		{"unknown key", "/run?frobnicate=1", "unknown query key"},
		{"unknown experiment", "/run?scenario=E99", "unknown experiment"},
		{"duplicate experiment", "/run?scenario=E01,e01", "duplicate experiment id E01"},
		{"zero seed", "/run?scenario=E01&seeds=0", ""},
		{"zero seed range", "/run?scenario=E01&seeds=0..2", ""},
		{"negative seed", "/run?scenario=E01&seeds=-1", ""},
		{"bad seed", "/run?scenario=E01&seeds=x", ""},
		{"bad range bound", "/run?scenario=E01&seeds=1..x", ""},
		{"empty seeds", "/run?scenario=E01&seeds=", ""},
		{"empty seed entry", "/run?scenario=E01&seeds=1,,2", ""},
		{"lone comma", "/run?scenario=E01&seeds=,", ""},
		{"inverted range", "/run?scenario=E01&seeds=5..2", ""},
		{"duplicate seed", "/run?scenario=E01&seeds=2,2", "duplicate seed"},
		{"duplicate seed in range", "/run?scenario=E01&seeds=1,1..5", "duplicate seed"},
		{"overflow", "/run?scenario=E01&seeds=1..9223372036854775807", ""},
		{"overflowing literal", "/run?scenario=E01&seeds=9223372036854775808", ""},
		{"huge range", "/run?scenario=E01&seeds=1..99999", "max 10000"},
		{"one past the cap", "/run?scenario=E01&seeds=1..10001", "max 10000"},
		{"bad scale", "/run?scenario=E01&scale=banana", ""},
		{"negative scale", "/run?scenario=E01&scale=-1", ""},
		{"infinite scale", "/run?scenario=E01&scale=Inf", "finite"},
		{"NaN scale", "/run?scenario=E01&scale=NaN", "finite"},
		{"unknown knob", "/run?scenario=E01&knob.nope=1", ""},
		{"bad knob value", "/run?scenario=E01&knob.e01.exploration=x", ""},
		{"NaN knob value", "/run?scenario=E01&knob.e01.exploration=NaN", "finite"},
		{"infinite knob value", "/run?scenario=E01&knob.e01.exploration=-Inf", "finite"},
		{"bad bool", "/run?scenario=E01&sensitivity=maybe", ""},
		{"knob of an unselected experiment", "/run?scenario=E01&knob.e03.lookups=100", "not among the selected experiments"},
		{"knob below its floor", "/run?scenario=E01&seeds=1..50&knob.e01.customers=1", "below the measurement floor"},
		{"knob above its maximum", "/run?scenario=E01&knob.e01.cdnproviders=501", "above the maximum"},
		{"fractional integer knob", "/run?scenario=E01&knob.e01.customers=2000.5", "must be an integer"},
		{"scaled knob below its floor", "/run?scenario=E01&scale=0.01&knob.e01.customers=2000", "falls below the measurement floor"},
		{"knob without its Requires companion", "/run?scenario=E08&seeds=1&scale=0.25&knob.e08.loss=0.1", "requires e08.mix away from its default"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, spec, ok := strings.Cut(tc.query, "seeds="); ok && !strings.Contains(tc.want, "max") {
				if _, err := harness.ParseSeeds(spec); err == nil {
					t.Fatalf("harness.ParseSeeds(%q) accepts a spec this table expects /run to refuse", spec)
				}
			}
			rec := get(t, h, tc.query)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s = %d %q, want 400", tc.query, rec.Code, rec.Body.String())
			}
			if !strings.Contains(rec.Body.String(), tc.want) {
				t.Errorf("%s body = %q, want substring %q", tc.query, rec.Body.String(), tc.want)
			}
		})
	}
	// Refused at parse time: none of the above reached the generator.
	if st := srv.Stats(); st.Sweeps != 0 {
		t.Errorf("stats = %+v, want no sweep counted for refused scenarios", st)
	}
}

// TestKeyCanonical pins that key computation is insensitive to id case
// and spelling order of defaults.
func TestKeyCanonical(t *testing.T) {
	reg, err := experiments.Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	key := func(id string, seed int64) string {
		t.Helper()
		opts, err := report.Canonical(reg, report.Options{IDs: []string{id}, Seeds: []int64{seed}, Scale: 0.25, HTML: true})
		if err != nil {
			t.Fatalf("Canonical: %v", err)
		}
		return Key(opts)
	}
	a, b, c := key("e01", 1), key("E01", 1), key("E01", 2)
	if a != b {
		t.Errorf("case-insensitive ids should share a key")
	}
	if a == c {
		t.Errorf("different seeds should change the key")
	}
	spelled, err := report.Canonical(reg, report.Options{IDs: []string{"E01"}, Seeds: []int64{1, 2, 3}, Scale: 1})
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	defaulted, err := report.Canonical(reg, report.Options{IDs: []string{"E01"}})
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	if Key(spelled) != Key(defaulted) {
		t.Errorf("spelled-out defaults (seeds 1..3, scale 1) should share a key with omitted ones")
	}
	// /run keys Check's canonical options without resolving them again,
	// which is sound only if canonical options resolve to themselves.
	for _, canon := range []report.Options{spelled, defaulted} {
		again, err := report.Canonical(reg, canon)
		if err != nil {
			t.Fatalf("Canonical of canonical options: %v", err)
		}
		if !reflect.DeepEqual(again, canon) || Key(again) != Key(canon) {
			t.Errorf("Canonical is not idempotent: %+v resolves to %+v", canon, again)
		}
	}
	// The grid count is part of the key only when the sensitivity layer
	// runs, and an omitted count keys as the default it sweeps.
	for _, pair := range [][2]report.Options{
		{{IDs: []string{"E01"}, Sensitivity: true}, {IDs: []string{"E01"}, Sensitivity: true, GridPoints: experiments.DefaultGridPoints}},
		{{IDs: []string{"E01"}}, {IDs: []string{"E01"}, GridPoints: 3}},
	} {
		var keys [2]string
		for i, o := range pair {
			opts, err := report.Canonical(reg, o)
			if err != nil {
				t.Fatalf("Canonical: %v", err)
			}
			keys[i] = Key(opts)
		}
		if keys[0] != keys[1] {
			t.Errorf("sensitivity=%t: grid points %d and %d generate one tree but key apart",
				pair[0].Sensitivity, pair[0].GridPoints, pair[1].GridPoints)
		}
	}
}

// TestEviction checks completed idle entries beyond the cap are dropped
// LRU-first while in-flight entries survive.
func TestEviction(t *testing.T) {
	s := testServer(t)
	s.maxCached = 1
	mk := func(n int) *entry {
		e := &entry{ready: make(chan struct{}), lastUse: int64(n)}
		close(e.ready)
		return e
	}
	s.mu.Lock()
	s.cache["a"] = mk(1)
	s.cache["b"] = mk(2)
	inflight := &entry{ready: make(chan struct{}), lastUse: 0}
	s.cache["c"] = inflight
	s.evictLocked()
	_, hasA := s.cache["a"]
	_, hasB := s.cache["b"]
	_, hasC := s.cache["c"]
	s.mu.Unlock()
	if hasA || !hasB || !hasC {
		t.Errorf("eviction kept a=%t b=%t c=%t, want only b (newest done) and c (in flight)", hasA, hasB, hasC)
	}
}

// TestConcurrentDefaultScenarioLowerCaseIDs is the -race regression for
// the shared default scenario: a server whose base ids are spelled in
// lower case serves concurrent /report and /experiments requests without
// any request writing to the base options (canonicalisation must build a
// fresh id slice), and New leaves the caller's slice untouched.
func TestConcurrentDefaultScenarioLowerCaseIDs(t *testing.T) {
	reg, err := experiments.Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	ids := []string{"e01"}
	s := New(reg, report.Options{IDs: ids, Seeds: []int64{1}, Scale: 0.25}, obs.NewCollector())
	if ids[0] != "e01" {
		t.Errorf("New rewrote the caller's Options.IDs to %q", ids)
	}
	h := s.Handler()
	var wg sync.WaitGroup
	for _, path := range []string{"/report", "/experiments/e01", "/report", "/experiments/e01"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("%s = %d %s", path, rec.Code, rec.Body.String())
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Sweeps != 1 {
		t.Errorf("stats = %+v, want one sweep shared by all requests", st)
	}
}

// TestBaseRefusedByCanonical pins the answer to a base New could not
// resolve: every base route is the 500 it was when each request resolved
// the base itself, byte for byte and with empty lane and key headers,
// while /run serves its own scenarios.
func TestBaseRefusedByCanonical(t *testing.T) {
	reg, err := experiments.Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	s := New(reg, report.Options{IDs: []string{"E99"}, Seeds: []int64{1}, Scale: 0.25}, obs.NewCollector())
	h := s.Handler()
	const want = `scenario generation failed: core: unknown experiment: "E99"` + "\n"
	for _, path := range []string{"/report", "/report/manifest.json", "/experiments/e01"} {
		rec := get(t, h, path)
		if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
			t.Errorf("%s = %d %q, want 500 %q", path, rec.Code, rec.Body.String(), want)
		}
		for _, name := range []string{"X-Decentsim-Cache", "X-Decentsim-Key"} {
			if v, ok := rec.Header()[name]; !ok || len(v) != 1 || v[0] != "" {
				t.Errorf("%s header %s = %q, want one empty value", path, name, v)
			}
		}
	}
	if rec := get(t, h, "/run?scenario=E01&seeds=1&scale=0.25"); rec.Code != http.StatusOK {
		t.Errorf("/run beside a refused base = %d %s", rec.Code, rec.Body.String())
	}
	if st := s.Stats(); st.Sweeps != 1 {
		t.Errorf("stats = %+v, want the one /run sweep only", st)
	}
}

// TestBaseHitAllocs pins the warm base hit at zero allocations: after one
// fill, the base routes' keyed lookup neither resolves nor hashes the
// scenario again.
func TestBaseHitAllocs(t *testing.T) {
	reg, err := core.NewRegistry(stubExp{id: "S1"}, stubExp{id: "S2"})
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, report.Options{Seeds: []int64{1}}, obs.NewCollector())
	if rec := get(t, s.Handler(), "/report"); rec.Code != http.StatusOK {
		t.Fatalf("filling /report = %d %s", rec.Code, rec.Body.String())
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4; i++ {
			if tree, lane, err := s.lookup(ctx, s.base.opts, s.base.key); tree == nil || lane != "hit" || err != nil {
				t.Fatalf("warm base lookup = %v %q %v, want a hit", tree, lane, err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm base hit allocates %.2f times per 4 lookups, want 0", allocs)
	}
}

// stubExp is a minimal experiment for failure-path tests; it panics when
// told to.
type stubExp struct {
	id     string
	panics bool
}

func (e stubExp) ID() string    { return e.id }
func (e stubExp) Title() string { return "stub " + e.id }
func (e stubExp) Claim() string { return "§I: stub claim" }

func (e stubExp) Run(cfg core.Config) (*core.Result, error) {
	if e.panics {
		panic("stub exploded")
	}
	r := &core.Result{ID: e.id, Title: e.Title(), Claim: e.Claim()}
	r.AddCheck(true, "ok", "seed %d", cfg.Seed)
	return r, nil
}

// TestRunPanickingExperiment pins panic containment at the service: a
// scenario holding an experiment that panics is a 500 naming the run, and
// the process goes on serving — the health check and the healthy scenario
// next to it.
func TestRunPanickingExperiment(t *testing.T) {
	reg, err := core.NewRegistry(stubExp{id: "S1"}, stubExp{id: "S2", panics: true}, stubExp{id: "S3"})
	if err != nil {
		t.Fatal(err)
	}
	h := New(reg, report.Options{Workers: 2}, obs.NewCollector()).Handler()

	rec := get(t, h, "/run?scenario=S1,S2,S3&seeds=1..2")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("/run over a panicking experiment = %d, want 500", rec.Code)
	}
	for _, want := range []string{"2 run(s) errored", "S2", "seed 1", "stub exploded"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("500 body %q does not carry %q", rec.Body.String(), want)
		}
	}
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("/healthz after the panic = %d", rec.Code)
	}
	if rec := get(t, h, "/run?scenario=S1,S3"); rec.Code != http.StatusOK {
		t.Errorf("healthy scenario after the panic = %d %s", rec.Code, rec.Body.String())
	}
}
