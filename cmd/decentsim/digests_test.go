package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// pinCase is one row of testdata/digests.json: a decentsim command line
// (split on whitespace) and the SHA-256 of exactly what it writes. A gate
// case is also timed: its run must finish within gateBound.
type pinCase struct {
	Name   string `json:"name"`
	Args   string `json:"args"`
	SHA256 string `json:"sha256"`
	Gate   bool   `json:"gate"`
	Why    string `json:"why"`
}

// gateBound is the wall-time bound on every gate case's run.
const gateBound = 30 * time.Second

var pinName = regexp.MustCompile(`^[A-Za-z0-9-]+$`)

// encodePins is the one form of the table: the committed file is
// byte-for-byte what -update writes.
func encodePins(t *testing.T, cases []pinCase) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cases); err != nil {
		t.Fatalf("encode pins: %v", err)
	}
	return buf.Bytes()
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestScaledDigests runs every case of testdata/digests.json through run
// and compares the SHA-256 of what it writes with the pinned value. Gate
// cases are the large runs that bound a hot path's time as well as its
// bytes; they skip under -short and under the race detector. Under
// -update only the sha256 column is rewritten: case order, args, gate and
// why stay as committed.
func TestScaledDigests(t *testing.T) {
	path := filepath.Join("testdata", "digests.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read pin table: %v", err)
	}
	var cases []pinCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if len(cases) == 0 {
		t.Fatalf("%s has no cases", path)
	}
	if !*update && !bytes.Equal(encodePins(t, cases), raw) {
		t.Errorf("%s is not in the form -update writes; re-pin it", path)
	}
	seen := make(map[string]bool)
	for i, c := range cases {
		if !pinName.MatchString(c.Name) || seen[c.Name] {
			t.Fatalf("case %d: name %q is a duplicate or not [A-Za-z0-9-]+", i, c.Name)
		}
		seen[c.Name] = true
	}
	skipGates := testing.Short() || raceEnabled()
	for i := range cases {
		c := &cases[i]
		t.Run(c.Name, func(t *testing.T) {
			if c.Gate && skipGates {
				t.Skip("gate case: skipped under -short or -race")
			}
			var out bytes.Buffer
			start := time.Now()
			if err := run(strings.Fields(c.Args), &out); err != nil {
				t.Fatalf("decentsim %s: %v", c.Args, err)
			}
			if d := time.Since(start); c.Gate && d > gateBound {
				t.Errorf("decentsim %s took %v, over the %v gate", c.Args, d.Round(time.Millisecond), gateBound)
			}
			sum := sha256.Sum256(out.Bytes())
			got := hex.EncodeToString(sum[:])
			if *update {
				c.SHA256 = got
			} else if got != c.SHA256 {
				t.Errorf("decentsim %s: sha256 %s, want %s", c.Args, got, c.SHA256)
			}
		})
	}
	if *update {
		if err := os.WriteFile(path, encodePins(t, cases), 0o644); err != nil {
			t.Fatalf("update pins: %v", err)
		}
	}
}
