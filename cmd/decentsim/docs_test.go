package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// designPath is DESIGN.md, whose CLI section holds the generated
// reference.
var designPath = filepath.Join("..", "..", "DESIGN.md")

// TestDesignCLICurrent fails when DESIGN.md's <!-- generated:cli --> block
// differs from what `decentsim -h` prints; -update rewrites it in place:
//
//	go test ./cmd/decentsim -run DesignCLI -update
func TestDesignCLICurrent(t *testing.T) {
	var help bytes.Buffer
	if err := run([]string{"-h"}, &help); err != nil {
		t.Fatalf("decentsim -h: %v", err)
	}
	want := "```text\n" + help.String() + "```\n"

	data, err := os.ReadFile(designPath)
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	doc := string(data)
	begin, end := "<!-- generated:cli -->\n", "<!-- /generated:cli -->"
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("DESIGN.md lacks the %s…%s markers", strings.TrimSpace(begin), end)
	}
	i += len(begin)
	if doc[i:j] == want {
		return
	}
	if !*update {
		t.Fatalf("DESIGN.md block \"cli\" is stale; run: go test ./cmd/decentsim -run DesignCLI -update")
	}
	if err := os.WriteFile(designPath, []byte(doc[:i]+want+doc[j:]), 0o644); err != nil {
		t.Fatalf("rewrite DESIGN.md: %v", err)
	}
}

// TestDocumentedInvocations finds every `decentsim <command> …` command
// line in the hand-kept documents and the CI workflow, and checks each
// -flag on it against that command's flagRules entry, so no document
// shows a flag the CLI refuses. It runs nothing.
func TestDocumentedInvocations(t *testing.T) {
	docs := []string{
		filepath.Join("..", "..", "README.md"),
		designPath,
		filepath.Join("..", "..", ".claude", "skills", "verify", "SKILL.md"),
		filepath.Join("..", "..", ".github", "workflows", "ci.yml"),
	}
	fs := flag.NewFlagSet("docs", flag.ContinueOnError)
	new(options).register(fs)
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		found := 0
		for n, line := range logicalLines(string(data)) {
			for _, inv := range invocations(line, fs) {
				found++
				for _, name := range inv.flags {
					if msg := flagProblem(inv.cmd, name); msg != "" {
						t.Errorf("%s:%d: decentsim %s: -%s %s", path, n+1, inv.cmd, name, msg)
					}
				}
			}
		}
		if found == 0 {
			t.Errorf("%s: no decentsim invocation found; the scan has lost its anchor", path)
		}
	}
}

// flagProblem says why cmd refuses the flag name, or "" when it takes it.
func flagProblem(cmd, name string) string {
	if name == "h" || name == "help" {
		return ""
	}
	if flagless(cmd) {
		return "is given to a command that takes no flags"
	}
	rule, ok := flagRules[name]
	if !ok {
		return "is not a decentsim flag"
	}
	if !slices.Contains(strings.Fields(rule.cmds), cmd) {
		return "does not apply (flagRules: " + rule.cmds + ")"
	}
	return ""
}

// logicalLines splits text into lines, joining a shell line that ends in
// a backslash with the next. A joined line leaves an empty one in its
// place, so each index is still the 0-based number of the line it starts
// on.
func logicalLines(text string) []string {
	lines := strings.Split(text, "\n")
	for i := len(lines) - 2; i >= 0; i-- {
		if strings.HasSuffix(lines[i], "\\") {
			lines[i] = strings.TrimSuffix(lines[i], "\\") + " " + lines[i+1]
			lines[i+1] = ""
		}
	}
	return lines
}

// invocation is one documented decentsim command line: the command and
// every flag name given to it, before or after the command word.
type invocation struct {
	cmd   string
	flags []string
}

// invocations finds the decentsim command lines in one logical line. A
// match is the word decentsim (bare, at the end of a binary's path, or
// as `go run ./cmd/decentsim`, but not the package path other go
// commands take), then any global flags, then a command name. The command line ends at a shell operator, an inline-code
// backtick, a comment, a table bar or a token that ends a sentence.
func invocations(line string, fs *flag.FlagSet) []invocation {
	var out []invocation
	for rest := line; ; {
		k := strings.Index(rest, "decentsim")
		if k < 0 {
			return out
		}
		before, after := rest[:k], rest[k+len("decentsim"):]
		rest = after
		if strings.HasSuffix(before, "cmd/") && !strings.HasSuffix(before, "go run ./cmd/") ||
			!(before == "" || strings.ContainsAny(before[len(before)-1:], " \t/`(")) {
			continue
		}
		if after == "" || (after[0] != ' ' && after[0] != '\t') {
			continue
		}
		if cut := strings.IndexAny(after, "`|#>;&"); cut >= 0 {
			after = after[:cut]
		}
		var inv invocation
		tokens := strings.Fields(after)
		for i := 0; i < len(tokens); i++ {
			tok := tokens[i]
			if strings.HasPrefix(tok, "-") && len(tok) > 1 && tok[1] >= 'a' && tok[1] <= 'z' {
				name, _, inline := strings.Cut(strings.TrimLeft(tok, "-"), "=")
				name = strings.TrimRight(name, ".,:)")
				inv.flags = append(inv.flags, name)
				if f := fs.Lookup(name); f != nil && !inline && !isBool(f) {
					i++ // the flag's value
				}
				if strings.HasSuffix(tok, ".") || strings.HasSuffix(tok, ",") {
					break
				}
				continue
			}
			if inv.cmd == "" {
				word := strings.TrimRight(tok, ".,:)")
				if _, ok := commands[word]; !ok {
					break
				}
				inv.cmd = word
				if word != tok {
					break
				}
				continue
			}
			if strings.HasSuffix(tok, ".") || strings.HasSuffix(tok, ",") {
				break
			}
		}
		if inv.cmd != "" {
			out = append(out, inv)
		}
	}
}

// isBool reports whether f is a boolean flag, which takes no value
// argument.
func isBool(f *flag.Flag) bool {
	b, ok := f.Value.(interface{ IsBoolFlag() bool })
	return ok && b.IsBoolFlag()
}
