package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// child runs one workload in a fresh process — this same binary — so that
// no workload inherits another's heap, caches or high-water mark. Children
// run one at a time. Its output is passed through to w; the parsed last
// line is returned.
func child(w io.Writer, opts runOpts) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if opts.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", opts.workload, "--seed", strconv.FormatInt(opts.seed, 10),
		"--seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64), "--trace", trace)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(w, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("bench: %s printed no result (%v): %w", opts.workload, runErr, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("bench: %s: %w", opts.workload, runErr)
	}
	return res, nil
}

// workloadResult is one workload's row of out/result.json and BASELINE.json.
type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	// Layers is the traced run's self time per layer: each span's duration
	// minus what its child spans cover.
	Layers map[string]layerSelf `json:"layers"`
}

// runAll runs every workload, untraced then traced, and writes the
// combined result to out/result.json.
func runAll(opts runOpts) error {
	doc := struct {
		Env       environment               `json:"env"`
		Seed      int64                     `json:"seed"`
		Seconds   float64                   `json:"seconds"`
		Workloads map[string]workloadResult `json:"workloads"`
	}{environmentNow(), opts.seed, opts.seconds, make(map[string]workloadResult)}
	failed := 0
	for _, w := range workloads {
		opts.workload = w.Name
		opts.trace = false
		e2e, err := child(os.Stdout, opts)
		if err != nil {
			return err
		}
		opts.trace = true
		layer, err := child(os.Stdout, opts)
		if err != nil {
			return err
		}
		row := workloadResult{e2e.Attempted + layer.Attempted, e2e.Failed + layer.Failed, e2e.Metrics, layer.Metrics, nil}
		data, err := os.ReadFile(filepath.Join(benchDir(), "out", "layers-"+w.Name+".json"))
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &row.Layers); err != nil {
			return err
		}
		doc.Workloads[w.Name] = row
		failed += e2e.Failed + layer.Failed
	}

	fmt.Printf("\n%-14s", "end to end")
	for _, m := range endToEnd {
		fmt.Printf(" %14s", m.Name)
	}
	fmt.Println()
	for _, w := range workloads {
		fmt.Printf("%-14s", w.Name)
		for _, m := range endToEnd {
			fmt.Printf(" %14.4f", doc.Workloads[w.Name].EndToEnd[m.Name].Value)
		}
		fmt.Println()
	}
	path := filepath.Join(benchDir(), "out", "result.json")
	if err := writeJSON(path, doc); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and %s/trace-<workload>.json; failed operations: %d\n", path, filepath.Dir(path), failed)
	if failed > 0 {
		return fmt.Errorf("bench: %d operations failed", failed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// updateExpectations regenerates testdata/expected.json: digests from one
// pass of every workload at the pinned seed, shape verdicts from one pass
// of every scale-1 scenario at every base seed.
func updateExpectations() error {
	exp := &expectations{
		Seed:       1,
		Reproduced: make(map[string]string),
		Digests:    make(map[string]string),
		learn:      true,
		shapes:     make(map[string][]bool),
	}
	once := full
	once.setups = 1
	for seed := int64(1); seed <= seedFold; seed++ {
		for _, w := range workloads {
			if seed != exp.Seed && w.Name == wlServe {
				continue // serve-warm checks no shapes; its digests need the pinned seed only
			}
			fmt.Fprintf(os.Stderr, "update: %s base seed %d\n", w.Name, seed)
			r := newRun(runOpts{workload: w.Name, seed: seed}, once, exp)
			if err := r.execute(); err != nil {
				return err
			}
			if r.out.failed > 0 {
				return fmt.Errorf("bench: update: %s seed %d: %v", w.Name, seed, r.out.failures)
			}
		}
	}
	exp.settle()
	path := filepath.Join(benchDir(), "testdata", "expected.json")
	if err := writeJSON(path, exp); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d digests, %d shape expectations\n", path, len(exp.Digests), len(exp.Reproduced))
	return nil
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the exclusive method), which is how the driver measures spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// selfCheck is the acceptance test of the benchmark itself: two sets of
// runs of the same code, ten seeds per workload each. Within a set every
// end-to-end metric's spread (interquartile range over median) must stay
// inside its bound, setup_s excepted; between sets no median may be worse
// by more than the bound; and the exact counts of a traced run must be
// identical. The verdict is written to out/selfcheck.json.
func selfCheck() error {
	const seeds = 10
	type cell struct {
		Values [2][]float64 `json:"values"`
		Median [2]float64   `json:"median"`
		Spread [2]float64   `json:"spread"`
		Worse  float64      `json:"second_worse_by"`
		Bound  float64      `json:"bound"`
		OK     bool         `json:"ok"`
	}
	doc := struct {
		Env       environment                 `json:"env"`
		OK        bool                        `json:"ok"`
		Problems  []string                    `json:"problems"`
		Workloads map[string]map[string]*cell `json:"workloads"`
		Exact     map[string]map[string]bool  `json:"exact_counts_equal"`
	}{Env: environmentNow(), OK: true, Workloads: make(map[string]map[string]*cell), Exact: make(map[string]map[string]bool)}
	problem := func(format string, args ...any) {
		doc.OK = false
		doc.Problems = append(doc.Problems, fmt.Sprintf(format, args...))
	}

	var exact [2]map[string]map[string]float64
	for set := 0; set < 2; set++ {
		exact[set] = make(map[string]map[string]float64)
		for _, w := range workloads {
			if doc.Workloads[w.Name] == nil {
				doc.Workloads[w.Name] = make(map[string]*cell)
			}
			for seed := int64(1); seed <= seeds; seed++ {
				fmt.Fprintf(os.Stderr, "selfcheck: set %d %s seed %d\n", set+1, w.Name, seed)
				res, err := child(io.Discard, runOpts{workload: w.Name, seed: seed, seconds: runSeconds})
				if err != nil {
					return err
				}
				for _, m := range endToEnd {
					c := doc.Workloads[w.Name][m.Name]
					if c == nil {
						c = &cell{Bound: m.Bound}
						doc.Workloads[w.Name][m.Name] = c
					}
					c.Values[set] = append(c.Values[set], res.Metrics[m.Name].Value)
				}
			}
			res, err := child(io.Discard, runOpts{workload: w.Name, seed: 1, seconds: runSeconds, trace: true})
			if err != nil {
				return err
			}
			exact[set][w.Name] = make(map[string]float64)
			for _, m := range perLayer {
				if m.Exact {
					exact[set][w.Name][m.Name] = res.Metrics[m.Name].Value
				}
			}
		}
	}

	for _, w := range workloads {
		for _, m := range endToEnd {
			c := doc.Workloads[w.Name][m.Name]
			c.OK = true
			for set := 0; set < 2; set++ {
				q1, q2, q3 := quartiles(c.Values[set])
				c.Median[set], c.Spread[set] = q2, (q3-q1)/q2
				if m.Name != "setup_s" && c.Spread[set] > m.Bound {
					c.OK = false
					problem("%s %s: spread %.4f of set %d exceeds bound %.2f", w.Name, m.Name, c.Spread[set], set+1, m.Bound)
				}
			}
			c.Worse = c.Median[1]/c.Median[0] - 1
			if m.Better == higher {
				c.Worse = 1 - c.Median[1]/c.Median[0]
			}
			if c.Worse > m.Bound {
				c.OK = false
				problem("%s %s: second set's median worse by %.4f, bound %.2f", w.Name, m.Name, c.Worse, m.Bound)
			}
			if m.Exact && !slices.Equal(c.Values[0], c.Values[1]) {
				c.OK = false
				problem("%s %s: exact count differs between sets", w.Name, m.Name)
			}
		}
		doc.Exact[w.Name] = make(map[string]bool)
		for name, v := range exact[0][w.Name] {
			same := v == exact[1][w.Name][name]
			doc.Exact[w.Name][name] = same
			if !same {
				problem("%s %s: exact count %v in set 1, %v in set 2", w.Name, name, v, exact[1][w.Name][name])
			}
		}
	}
	path := filepath.Join(benchDir(), "out", "selfcheck.json")
	if err := writeJSON(path, doc); err != nil {
		return err
	}
	for _, w := range workloads {
		for _, m := range endToEnd {
			c := doc.Workloads[w.Name][m.Name]
			fmt.Printf("%-14s %-14s median %12.4f %12.4f  spread %.4f %.4f  second worse by %+.4f  bound %.2f\n",
				w.Name, m.Name, c.Median[0], c.Median[1], c.Spread[0], c.Spread[1], c.Worse, c.Bound)
		}
	}
	fmt.Printf("wrote %s\n", path)
	if !doc.OK {
		return fmt.Errorf("bench: selfcheck failed:\n  %s", strings.Join(doc.Problems, "\n  "))
	}
	return nil
}
