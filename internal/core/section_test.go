package core

import "testing"

// secExp is a minimal Experiment carrying only a claim.
type secExp struct{ claim string }

func (f secExp) ID() string                  { return "EX" }
func (f secExp) Title() string               { return "fake" }
func (f secExp) Claim() string               { return f.claim }
func (f secExp) Run(Config) (*Result, error) { return &Result{}, nil }

func TestSectionOfParsesClaimPrefix(t *testing.T) {
	cases := []struct{ claim, want string }{
		{"§I: concentration", "§I"},
		{"§III-C P2: layer 2", "§III-C P2"},
		{"§V / Fig.1: edge federations", "§V"},
		{"no section marker here", ""},
		{"", ""},
	}
	for _, c := range cases {
		if got := SectionOf(secExp{claim: c.claim}); got != c.want {
			t.Errorf("SectionOf(claim %q) = %q, want %q", c.claim, got, c.want)
		}
	}
}
