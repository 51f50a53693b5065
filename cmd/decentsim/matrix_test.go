package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites this package's pins from the current code:
// testdata/flag_matrix.golden (the pair-by-pair contract of which command
// accepts which flag and what it says when it does not) and the sha256
// column of testdata/digests.json. One command re-pins them together
// with the experiment and report goldens:
//
//	go test ./internal/experiments ./internal/report ./cmd/decentsim -update
//
// Only do this when the moved bytes are meant to move; `git diff` then
// shows exactly which pins did.
var update = flag.Bool("update", false, "rewrite testdata/flag_matrix.golden and the sha256 column of testdata/digests.json")

// TestFlagMatrix drives every command × flag pair through run and pins
// the outcome: "accept" (the flag got past the applicability check — the
// command then fails on the unknown id E99, so nothing actually runs) or
// the exact rejection error.
func TestFlagMatrix(t *testing.T) {
	tmp := t.TempDir()
	values := map[string]string{
		"seed": "2", "scale": "0.5", "parallel": "1", "seeds": "1..2", "scales": "0.5,1",
		"set": "e01.exploration=0.5", "grid-points": "3", "trace-limit": "10",
		"addr": "127.0.0.1:0",
		"out":  filepath.Join(tmp, "out"), "profile": filepath.Join(tmp, "prof"),
	}
	var flags []*flag.Flag
	fs := flag.NewFlagSet("matrix", flag.ContinueOnError)
	new(options).register(fs)
	fs.VisitAll(func(f *flag.Flag) { flags = append(flags, f) })
	if len(flags) != 16 {
		t.Fatalf("CLI registers %d flags, want 16", len(flags))
	}

	var got bytes.Buffer
	cmds := []string{"list", "run", "sweep", "report", "serve", "trace", "diff"}
	if len(cmds) != len(commands) {
		t.Fatalf("matrix covers %d commands, the CLI has %d", len(cmds), len(commands))
	}
	for _, cmd := range cmds {
		for _, f := range flags {
			args := []string{cmd, "-" + f.Name}
			if b, ok := f.Value.(interface{ IsBoolFlag() bool }); !ok || !b.IsBoolFlag() {
				v, ok := values[f.Name]
				if !ok {
					t.Fatalf("no test value for -%s", f.Name)
				}
				args = append(args, v)
			}
			if !flagless(cmd) {
				args = append(args, "E99")
			}
			err := run(args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) succeeded; every matrix case must fail before running anything", args)
			}
			outcome := "accept"
			if msg := err.Error(); strings.Contains(msg, "does not apply; ") || strings.Contains(msg, "takes no flags") {
				outcome = msg
			}
			fmt.Fprintf(&got, "%s -%s: %s\n", cmd, f.Name, outcome)
		}
	}

	path := filepath.Join("testdata", "flag_matrix.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("matrix has %d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("pair %d:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
}
