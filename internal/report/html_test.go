package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestHTMLTreeShape checks the HTML layer: every markdown page gains an
// HTML sibling, the siblings are manifest-indexed, and the markdown tree
// itself is unchanged by enabling it.
func TestHTMLTreeShape(t *testing.T) {
	opts := Options{IDs: []string{"E01", "E12"}, Seeds: []int64{1, 2}, Scale: 0.25}
	plain, err := Generate(registry(t), opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	opts.HTML = true
	tree, err := Generate(registry(t), opts)
	if err != nil {
		t.Fatalf("Generate with HTML: %v", err)
	}
	for _, want := range []string{"index.html", "experiments/E01.html", "experiments/E12.html"} {
		if tree.Lookup(want) == nil {
			t.Errorf("missing %s in HTML tree", want)
		}
	}
	for _, f := range plain.Files {
		if f.Path == "manifest.json" {
			continue // gains the html rows
		}
		if !bytes.Equal(tree.Lookup(f.Path), f.Data) {
			t.Errorf("%s changed when HTML rendering was enabled", f.Path)
		}
	}
	var man Manifest
	if err := json.Unmarshal(tree.Lookup("manifest.json"), &man); err != nil {
		t.Fatalf("decode manifest.json: %v", err)
	}
	indexed := map[string]bool{}
	for _, mf := range man.Files {
		indexed[mf.Path] = mf.SHA256 != ""
	}
	for _, want := range []string{"index.html", "experiments/E01.html"} {
		if !indexed[want] {
			t.Errorf("manifest does not content-hash %s", want)
		}
	}
}

// TestHTMLDeterminism pins the byte contract: the HTML layer is a pure
// function of the markdown pages, so two generations at different worker
// counts agree byte for byte.
func TestHTMLDeterminism(t *testing.T) {
	gen := func(workers int) *Tree {
		tree, err := Generate(registry(t), Options{
			IDs: []string{"E01", "E12"}, Seeds: []int64{1, 2}, Scale: 0.25,
			HTML: true, Workers: workers,
		})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		return tree
	}
	a, b := gen(1), gen(4)
	if len(a.Files) != len(b.Files) {
		t.Fatalf("file counts differ: %d vs %d", len(a.Files), len(b.Files))
	}
	for i := range a.Files {
		if a.Files[i].Path != b.Files[i].Path || !bytes.Equal(a.Files[i].Data, b.Files[i].Data) {
			t.Errorf("tree diverges at %s", a.Files[i].Path)
		}
	}
}

// TestHTMLPageContent checks the converted pages: self-contained
// skeleton, rewritten intra-tree links, preserved figure references, and
// no JS.
func TestHTMLPageContent(t *testing.T) {
	tree, err := Generate(registry(t), Options{
		IDs: []string{"E01", "E12"}, Seeds: []int64{1, 2}, Scale: 0.25, HTML: true,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	index := string(tree.Lookup("index.html"))
	for _, want := range []string{
		"<!doctype html>", "<style>", "<table>", "<th>",
		`<a href="experiments/E01.html">`,
	} {
		if !strings.Contains(index, want) {
			t.Errorf("index.html lacks %q", want)
		}
	}
	if strings.Contains(index, "<script") {
		t.Errorf("index.html contains script tags; pages must be JS-free")
	}
	if strings.Contains(index, ".md)") || strings.Contains(index, `href="REPORT.md"`) {
		t.Errorf("index.html still links markdown artifacts")
	}
	page := string(tree.Lookup("experiments/E12.html"))
	if !strings.Contains(page, `<img src="../figures/E12-1.svg"`) {
		t.Errorf("E12.html lost its figure reference:\n%.400s", page)
	}
	if !strings.Contains(page, `<a href="../index.html">`) {
		t.Errorf("E12.html back-link does not target index.html")
	}
}

// TestMDBodyConversion pins the converter on the exact markdown subset
// the renderers emit.
func TestMDBodyConversion(t *testing.T) {
	cases := []struct {
		name, md, want string
	}{
		{"heading", "## Verdicts\n", "<h2>Verdicts</h2>"},
		{"heading code", "### `e01.churn`\n", "<h3><code>e01.churn</code></h3>"},
		{"bold", "**Stability: fragile**", "<strong>Stability: fragile</strong>"},
		{"star em", "a claim is *stable* when", "a claim is <em>stable</em> when"},
		{"whole line underscore em", "_No runs recorded._", "<p><em>No runs recorded.</em></p>"},
		{"inline underscores literal", "mean delivery_delay_ns over", "mean delivery_delay_ns over"},
		{"code", "the `-parallel` knob", "the <code>-parallel</code> knob"},
		{"link rewrite", "[E01](experiments/E01.md)", `<a href="experiments/E01.html">E01</a>`},
		{"report link rewrite", "[Back](../REPORT.md)", `<a href="../index.html">Back</a>`},
		{"non-md link kept", "[manifest](manifest.json)", `<a href="manifest.json">manifest</a>`},
		{"external link kept", "[p](https://x.test/a.md)", `<a href="https://x.test/a.md">p</a>`},
		{"image", "![E12 figure 1](../figures/E12-1.svg)", `<img src="../figures/E12-1.svg" alt="E12 figure 1">`},
		{"hr", "---\n", "<hr>"},
		{"list", "- **run error:** seed 3\n", "<ul>\n<li><strong>run error:</strong> seed 3</li>\n</ul>"},
		{"escaping", "a < b & c\n", "a &lt; b &amp; c"},
		{"table", "| a | b |\n|---|---|\n| 1 | 2 |\n",
			"<table>\n<tr><th>a</th><th>b</th></tr>\n<tr><td>1</td><td>2</td></tr>\n</table>"},
		{"escaped pipe cell", "| x \\| y |\n", "<td>x | y</td>"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, _ := mdBody(tc.md)
			if !strings.Contains(body, tc.want) {
				t.Errorf("mdBody(%q) = %q, want substring %q", tc.md, body, tc.want)
			}
		})
	}
}

// TestHTMLTitle checks the <title> comes from the first heading with
// markers stripped.
func TestHTMLTitle(t *testing.T) {
	page := renderHTMLPage("# Report — `decentsim` verdicts\n\nbody\n")
	if !strings.Contains(page, "<title>Report — decentsim verdicts</title>") {
		t.Errorf("title not extracted from first heading:\n%.300s", page)
	}
}

// TestTreeOpen covers the in-memory artifact API serve streams from.
func TestTreeOpen(t *testing.T) {
	tree := &Tree{Files: []File{
		{Path: "REPORT.md", Data: []byte("a")},
		{Path: "manifest.json", Data: []byte("{}")},
	}}
	rd, ok := tree.Open("manifest.json")
	if !ok {
		t.Fatalf("Open(manifest.json) missing")
	}
	var buf bytes.Buffer
	buf.ReadFrom(rd)
	if buf.String() != "{}" {
		t.Errorf("Open read %q", buf.String())
	}
	if _, ok := tree.Open("nope"); ok {
		t.Errorf("Open(nope) should report absence")
	}
}
