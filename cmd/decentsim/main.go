// Command decentsim runs the paper-reproduction experiments, singly or as
// parallel multi-seed sweeps, renders and serves the reproduction report,
// records event traces, and diffs two sweep reports' verdicts.
//
// `decentsim -h` lists the commands and every flag; DESIGN.md's CLI
// section holds the same text, generated from it (TestDesignCLICurrent).
// Flags may appear before or after the command; flagRules says which
// commands take each one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "decentsim:", err)
		os.Exit(1)
	}
}

// options holds every flag; the same set is registered globally and per
// subcommand so flags work in either position.
type options struct {
	seed     int64
	scale    float64
	csv      bool
	json     bool
	parallel int
	seeds    string
	scales   string
	out      string
	set      knobFlags

	sensitivity bool
	gridPoints  int

	resources  bool
	profile    string
	traceLimit int

	html bool
	addr string
}

// knobFlags collects repeatable -set name=v1,v2 knob specifications.
type knobFlags struct {
	params map[string][]float64
}

func (k *knobFlags) String() string { return "" }

func (k *knobFlags) Set(spec string) error {
	name, vals, err := harness.ParseParam(spec)
	if err != nil {
		return err
	}
	known := experiments.KnobSpecs()
	if _, ok := known[name]; !ok {
		return fmt.Errorf("unknown knob %q (known: %s)", name,
			strings.Join(slices.Sorted(maps.Keys(known)), ", "))
	}
	if k.params == nil {
		k.params = make(map[string][]float64)
	}
	if _, dup := k.params[name]; dup {
		return fmt.Errorf("knob %s given twice; list all values in one -set %s=v1,v2", name, name)
	}
	k.params[name] = vals
	return nil
}

// flagRule says where one flag applies: the commands that take it, and
// what a user who passes it to any other command is told. run's
// applicability check and register's usage strings both read flagRules,
// so a flag's reach is written down once.
type flagRule struct {
	cmds   string            // space-separated commands the flag applies to
	reason string            // why it does not apply to any other command ...
	except map[string]string // ... unless that command has a reason of its own
}

// everyCommand lists the commands that take flags at all (list and diff
// take none).
const everyCommand = "run sweep report serve trace"

// notTables is why -csv and -json do not apply to the commands whose
// output is not a result or aggregate table.
var notTables = map[string]string{
	"report": "the report is a markdown/SVG/JSON directory tree",
	"serve":  "serve renders the HTML/markdown report tree",
	"trace":  "trace writes Chrome trace-event JSON",
}

var flagRules = map[string]flagRule{
	"seed": {cmds: "run trace", except: map[string]string{
		"sweep":  "use -seeds to choose sweep seeds",
		"report": "use -seeds to choose the replication seeds",
		"serve":  "serve scenarios replicate over -seeds",
	}},
	"scale":    {cmds: everyCommand},
	"csv":      {cmds: "run sweep", except: notTables},
	"json":     {cmds: "run sweep", except: notTables},
	"parallel": {cmds: "run sweep report serve", reason: "trace records one run in-process"},
	"seeds": {cmds: "sweep report serve", except: map[string]string{
		"run":   "use the sweep subcommand for multi-seed runs",
		"trace": "trace records one run; use -seed",
	}},
	"scales": {cmds: "sweep", except: map[string]string{
		"run":    "use the sweep subcommand to cross scales",
		"report": "the report runs one scale; use -scale",
		"serve":  "the served default scenario runs one scale; use -scale",
		"trace":  "trace records one run; use -scale",
	}},
	"out": {cmds: "report trace", reason: "only the report and trace subcommands write output files", except: map[string]string{
		"serve": "serve streams artifacts from memory; use the report subcommand to write a tree",
	}},
	"set":         {cmds: "run sweep serve trace", reason: "the report documents baseline runs; use -sensitivity for knob grids, or sweep"},
	"sensitivity": {cmds: "report serve", reason: "only the report and serve subcommands render sensitivity pages"},
	"grid-points": {cmds: "report serve", reason: "only the report and serve subcommands sweep knob grids"},
	"resources":   {cmds: "report serve", reason: "only the report and serve subcommands render the resources appendix"},
	"profile":     {cmds: "sweep report", reason: "only the sweep and report subcommands run on the profiled harness"},
	"trace-limit": {cmds: "trace", reason: "only the trace subcommand buffers an event trace"},
	"html": {cmds: "report", reason: "only the report and serve subcommands render HTML pages", except: map[string]string{
		"serve": "serve always renders HTML",
	}},
	"addr": {cmds: "serve", reason: "only the serve subcommand listens on an address"},
}

func (o *options) register(fs *flag.FlagSet) {
	// help leads a usage line with the commands the flag applies to,
	// unless that is every command.
	help := func(name, usage string) string {
		if cmds := flagRules[name].cmds; cmds != everyCommand {
			return strings.ReplaceAll(cmds, " ", "/") + ": " + usage
		}
		return usage
	}
	fs.Int64Var(&o.seed, "seed", o.seed, help("seed", "master random seed for single runs (>= 1)"))
	fs.Float64Var(&o.scale, "scale", o.scale, help("scale", "workload scale factor (smaller = faster)"))
	fs.BoolVar(&o.csv, "csv", o.csv, help("csv", "emit CSV instead of aligned text"))
	fs.BoolVar(&o.json, "json", o.json, help("json", "emit JSON instead of text"))
	fs.IntVar(&o.parallel, "parallel", o.parallel, help("parallel", "upper bound on jobs in flight (0 = none); jobs and their parts share GOMAXPROCS cores"))
	fs.StringVar(&o.seeds, "seeds", o.seeds, help("seeds", "seed list, e.g. 1..10 or 1,3,9 (default: sweep 1..5, report and serve 1..3)"))
	fs.StringVar(&o.scales, "scales", o.scales, help("scales", "scale list to cross, e.g. 0.25,0.5,1 (default: -scale)"))
	fs.StringVar(&o.out, "out", o.out, help("out", "output directory for the report tree; for trace, the output file (default trace.json)"))
	fs.Var(&o.set, "set", help("set", "knob values, e.g. -set e03.lookups=100,200 (repeatable; every experiment has knobs — see DESIGN.md)"))
	fs.BoolVar(&o.sensitivity, "sensitivity", o.sensitivity, help("sensitivity", "sweep every registered knob over its default grid and render per-knob sensitivity pages"))
	fs.IntVar(&o.gridPoints, "grid-points", o.gridPoints, help("grid-points", "swept values per knob grid (default 5; needs -sensitivity)"))
	fs.BoolVar(&o.resources, "resources", o.resources, help("resources", "attach run telemetry and render a per-experiment Resources appendix plus resources/host.json"))
	fs.StringVar(&o.profile, "profile", o.profile, help("profile", "write per-run CPU and heap pprof profiles into this directory; <stem>.heap.base.pprof is the heap before the run, for go tool pprof -base"))
	fs.IntVar(&o.traceLimit, "trace-limit", o.traceLimit, help("trace-limit", "event buffer limit (default 100000; overflow is counted, not stored)"))
	fs.BoolVar(&o.html, "html", o.html, help("html", "also render every markdown page as a self-contained HTML sibling (index.html, experiments/<ID>.html)"))
	fs.StringVar(&o.addr, "addr", o.addr, help("addr", "HTTP listen address"))
}

// usage is the command summary printed when the subcommand line itself is
// wrong (missing or unknown command) and at the head of -h's output.
const usage = `usage: decentsim [flags] <command> [flags] [ids]

commands:
  list                 show all experiments
  run <ids|all>        run experiments once
  sweep <ids|all>      multi-seed / multi-scale / multi-knob sweeps
  report <ids|all>     render the reproduction report tree (-html)
  serve [ids|all]      serve the living report over HTTP (-addr)
  trace <id>           run once, write a Chrome trace
  diff OLD NEW         compare two sweep -json reports; fail on a verdict
                       flip or a headline mean outside its old [min, max]

run 'decentsim <command> -h' for that command's flags (list and diff take none)`

func run(args []string, out io.Writer) error {
	opts := options{seed: 1, scale: 1, out: "report", addr: ":8080"}
	global := flag.NewFlagSet("decentsim", flag.ContinueOnError)
	opts.register(global)
	if stop, err := parseFlags(global, args, out, true); stop {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("expected a command\n%s", usage)
	}
	cmd, rest := rest[0], rest[1:]
	command, ok := commands[cmd]
	if !ok {
		return fmt.Errorf("unknown command %q\n%s", cmd, usage)
	}
	// Subcommand flags: re-register over the already-parsed values so
	// "decentsim sweep -parallel 8 E03" works like "-parallel 8 sweep E03".
	sub := flag.NewFlagSet("decentsim "+cmd, flag.ContinueOnError)
	opts.register(sub)
	if stop, err := parseFlags(sub, rest, out, !flagless(cmd)); stop {
		return err
	}
	ids := sub.Args()

	// Flags that don't apply to the chosen command are rejected rather
	// than silently ignored (e.g. `run -seeds 1..10` is not a sweep).
	provided := make(map[string]bool)
	global.Visit(func(f *flag.Flag) { provided[f.Name] = true })
	sub.Visit(func(f *flag.Flag) { provided[f.Name] = true })
	if flagless(cmd) && len(provided) > 0 {
		return fmt.Errorf("%s: takes no flags", cmd)
	}
	for _, name := range slices.Sorted(maps.Keys(provided)) {
		if rule := flagRules[name]; !slices.Contains(strings.Fields(rule.cmds), cmd) {
			reason, ok := rule.except[cmd]
			if !ok {
				reason = rule.reason
			}
			return fmt.Errorf("%s: -%s does not apply; %s", cmd, name, reason)
		}
	}
	if opts.json && opts.csv {
		return fmt.Errorf("%s: choose one of -json or -csv", cmd)
	}
	if provided["scale"] && provided["scales"] {
		return fmt.Errorf("%s: -scale and -scales conflict; choose one", cmd)
	}
	if provided["grid-points"] && !opts.sensitivity {
		return errors.New("report: -grid-points needs -sensitivity")
	}
	if provided["grid-points"] && opts.gridPoints < 1 {
		return fmt.Errorf("report: -grid-points must be >= 1 (got %d)", opts.gridPoints)
	}
	if (cmd == "run" || cmd == "trace") && opts.seed < 1 {
		return fmt.Errorf("%s: -seed must be >= 1 (got %d)", cmd, opts.seed)
	}
	if provided["trace-limit"] && opts.traceLimit < 1 {
		return fmt.Errorf("trace: -trace-limit must be >= 1 (got %d)", opts.traceLimit)
	}
	// The two file-writing commands share -out but not a sensible default:
	// report writes a tree, trace a single JSON file.
	if cmd == "trace" && !provided["out"] {
		opts.out = "trace.json"
	}
	// core.Config would silently remap scale <= 0 to 1 while reports
	// label the group with the raw value — reject up front instead.
	// !(scale > 0) also catches NaN, which compares false to everything.
	if !(opts.scale > 0) || math.IsInf(opts.scale, 0) {
		return fmt.Errorf("%s: -scale must be a finite number > 0 (got %g)", cmd, opts.scale)
	}

	if opts.profile != "" {
		if err := os.MkdirAll(opts.profile, 0o755); err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
	}
	reg, err := experiments.Registry()
	if err != nil {
		return err
	}
	return command(out, reg, &opts, ids)
}

// flagless reports whether cmd is one of the commands that take no flags.
func flagless(cmd string) bool { return cmd == "list" || cmd == "diff" }

// parseFlags parses args into fs with the flag package's own printing
// off, and reports whether the command line stops here. -h (or -help)
// prints the command summary and, when listFlags is set, fs's flags to
// out, once, with no error. Any other flag error is one line that names
// the flag and points at the help.
func parseFlags(fs *flag.FlagSet, args []string, out io.Writer, listFlags bool) (stop bool, err error) {
	fs.SetOutput(io.Discard)
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		fmt.Fprintln(out, usage)
		if listFlags {
			fmt.Fprintf(out, "\nflags of %s:\n", fs.Name())
			fs.SetOutput(out)
			fs.PrintDefaults()
		}
		return true, nil
	case err != nil:
		return true, fmt.Errorf("%v (see '%s -h')", err, fs.Name())
	}
	return false, nil
}

// commands maps each subcommand to its implementation.
var commands = map[string]func(out io.Writer, reg *core.Registry, opts *options, ids []string) error{
	"list":   listCmd,
	"run":    runCmd,
	"sweep":  sweepCmd,
	"report": reportCmd,
	"serve":  serveCmd,
	"trace":  traceCmd,
	"diff":   diffCmd,
}

func listCmd(out io.Writer, reg *core.Registry, _ *options, ids []string) error {
	if len(ids) > 0 {
		return fmt.Errorf("list: takes no arguments (got %s)", strings.Join(ids, " "))
	}
	for _, e := range reg.All() {
		fmt.Fprintf(out, "%-5s %s\n      %s\n", e.ID(), e.Title(), e.Claim())
	}
	return nil
}

// expandIDs resolves "all" and canonicalises the ids against the registry
// by the rule report generation and the report service use (unknown and
// duplicate ids are errors; ids come back in registry case).
func expandIDs(reg *core.Registry, ids []string) ([]string, error) {
	if len(ids) == 0 {
		return nil, errors.New("requires experiment ids or 'all'")
	}
	if len(ids) == 1 && strings.EqualFold(ids[0], "all") {
		ids = nil
	}
	sc, err := report.Canonical(reg, report.Options{IDs: ids})
	return sc.IDs, err
}

// runCmd executes each experiment once. Errors do not abort the batch:
// every experiment runs, then all errors are reported together.
func runCmd(out io.Writer, reg *core.Registry, opts *options, ids []string) error {
	grid, err := opts.grid(reg, "run", ids)
	if err != nil {
		return err
	}
	grid.Seeds, grid.Scales = []int64{opts.seed}, []float64{opts.scale}
	jobs := grid.Jobs()
	// Text and CSV modes stream each result as soon as every earlier job
	// has finished, so long batches show progress; output order stays the
	// job order regardless of which worker finishes first. JSON must be a
	// single document and is emitted at the end.
	printResult := func(jr harness.JobResult) {
		if jr.Err != nil {
			return
		}
		if opts.csv {
			for _, t := range jr.Result.Tables {
				fmt.Fprintln(out, t.CSV())
			}
		} else {
			fmt.Fprintln(out, jr.Result)
		}
	}
	next := 0
	pending := make(map[int]harness.JobResult, len(jobs))
	runner := harness.Runner{Registry: reg, Workers: opts.parallel}
	if !opts.json {
		runner.OnResult = func(i int, jr harness.JobResult) {
			pending[i] = jr
			for {
				jr, ok := pending[next]
				if !ok {
					break
				}
				printResult(jr)
				delete(pending, next)
				next++
			}
		}
	}
	results := runner.Run(context.Background(), jobs)
	var runErrs []string
	failures := 0
	// runDoc mirrors the sweep JSON contract: errored runs stay in-band
	// rather than only on stderr. Slices are non-nil so empty sections
	// encode as [] rather than null.
	type runError struct {
		Experiment string `json:"experiment"`
		Error      string `json:"error"`
	}
	runDoc := struct {
		Results []*core.Result `json:"results"`
		Errors  []runError     `json:"errors"`
	}{Results: []*core.Result{}, Errors: []runError{}}
	for _, jr := range results {
		if jr.Err != nil {
			// Canonical upper-case ids, as Aggregate and the registry emit.
			id := strings.ToUpper(jr.Job.ExperimentID)
			runErrs = append(runErrs, fmt.Sprintf("%s: %v", id, jr.Err))
			runDoc.Errors = append(runDoc.Errors, runError{
				Experiment: id,
				Error:      jr.Err.Error(),
			})
			continue
		}
		if opts.json {
			runDoc.Results = append(runDoc.Results, jr.Result)
		}
		if !jr.Result.Reproduced() {
			failures++
		}
	}
	if opts.json {
		enc, err := json.MarshalIndent(runDoc, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(enc))
	}
	if len(runErrs) > 0 {
		return fmt.Errorf("%d experiment(s) errored:\n  %s", len(runErrs), strings.Join(runErrs, "\n  "))
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed their shape checks", failures)
	}
	return nil
}

// grid builds the harness.Sweep that run, sweep and trace expand into
// jobs, leaving seeds and scales to the command: ids are canonicalised,
// and knob ownership is validated by the one rule every command shares
// (a knob prefixed for one selected experiment is not attached to the
// others; one owned by an unselected experiment is an error). Only sweep
// crosses knob values — anywhere else a multi-value knob is a sweep
// request, and silently taking the first value would drop grid points.
func (o *options) grid(reg *core.Registry, cmd string, ids []string) (harness.Sweep, error) {
	g := harness.Sweep{Params: o.set.params}
	var err error
	if g.Experiments, err = expandIDs(reg, ids); err != nil {
		return g, fmt.Errorf("%s: %w", cmd, err)
	}
	if cmd != "sweep" {
		if err := rejectMultiValueKnobs(cmd, o.set.params); err != nil {
			return g, err
		}
	}
	if err := g.Validate(); err != nil {
		return g, fmt.Errorf("%s: %w", cmd, err)
	}
	return g, nil
}

func rejectMultiValueKnobs(cmd string, params map[string][]float64) error {
	for _, name := range slices.Sorted(maps.Keys(params)) {
		if vals := params[name]; len(vals) > 1 {
			return fmt.Errorf("%s: knob %s has %d values; use the sweep subcommand to cross knob values", cmd, name, len(vals))
		}
	}
	return nil
}

// scenario builds the report.Options that report and serve share from
// the flags. A flag the command does not take is still at its zero
// value, so one literal serves both.
func (o *options) scenario(reg *core.Registry, cmd string, ids []string) (report.Options, error) {
	ids, err := expandIDs(reg, ids)
	if err != nil {
		return report.Options{}, fmt.Errorf("%s: %w", cmd, err)
	}
	sc := report.Options{
		IDs:         ids,
		Scale:       o.scale,
		HTML:        o.html,
		Workers:     o.parallel,
		Sensitivity: o.sensitivity,
		GridPoints:  o.gridPoints,
		Resources:   o.resources,
		ProfileDir:  o.profile,
	}
	if o.seeds != "" {
		if sc.Seeds, err = harness.ParseSeeds(o.seeds); err != nil {
			return sc, err
		}
	}
	if len(o.set.params) > 0 {
		sc.Params = make(map[string]float64, len(o.set.params))
		for name, vals := range o.set.params {
			sc.Params[name] = vals[0]
		}
	}
	return sc, nil
}

// reportCmd generates the reproduction report: every selected experiment
// replicated across the seed set on the worker pool, rendered as a
// deterministic document tree (REPORT.md traceability matrix, one page
// per experiment, SVG figures, hash manifest) under -out. Shape-check
// outcomes live in the report; only run errors fail the command.
func reportCmd(out io.Writer, reg *core.Registry, opts *options, ids []string) error {
	sc, err := opts.scenario(reg, "report", ids)
	if err != nil {
		return err
	}
	tree, err := report.Generate(reg, sc)
	if err != nil {
		return err
	}
	if err := tree.WriteDir(opts.out); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	fmt.Fprintf(out, "report: wrote %d files to %s (%d/%d scenarios reproduced)\n",
		len(tree.Files), opts.out, tree.Reproduced, tree.Groups)
	if tree.RunErrors > 0 {
		return fmt.Errorf("report: %d run(s) errored (see the generated pages)", tree.RunErrors)
	}
	return nil
}

// diffCmd compares two sweep reports (`sweep -json`), OLD then NEW. It
// prints one line per verdict flip, headline breach and added or removed
// scenario, and fails exactly when a verdict flipped or a headline mean
// left its old [min, max]: the exit code is the soak's verdict gate.
func diffCmd(out io.Writer, _ *core.Registry, _ *options, files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("diff: takes two sweep reports, OLD NEW (got %d arguments)", len(files))
	}
	var docs [2][]byte
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return fmt.Errorf("diff: %w", err)
		}
		docs[i] = data
	}
	d, err := report.DiffDocs(docs[0], docs[1])
	if err != nil {
		return err
	}
	fmt.Fprint(out, d.Render())
	if d.Failing() {
		return fmt.Errorf("diff: %d verdict flip(s), %d envelope breach(es)", len(d.Flips), len(d.Breaches))
	}
	return nil
}

// The served process faces clients it does not control: bound how long one
// may take to send its request headers and how long an idle keep-alive
// connection is held. There is deliberately no WriteTimeout — a cold
// full-scale /report legitimately runs for minutes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the http.Server serveCmd listens with.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serveCmd runs the living-report service: the report tree for the
// selected scenario (default: every experiment, seeds 1..3, scale 1)
// behind an HTTP API with scenario-hash caching. It blocks until
// interrupted; SIGINT/SIGTERM drain in-flight requests before exit.
func serveCmd(out io.Writer, reg *core.Registry, opts *options, ids []string) error {
	if len(ids) == 0 {
		ids = []string{"all"}
	}
	if err := rejectMultiValueKnobs("serve", opts.set.params); err != nil {
		return err
	}
	base, err := opts.scenario(reg, "serve", ids)
	if err != nil {
		return err
	}
	// Refuse a base scenario no /report could generate before listening.
	if _, err := report.Check(reg, base); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	srv := serve.New(reg, base, obs.NewCollector())
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// Announce the resolved address (not the flag) so -addr :0 is usable.
	fmt.Fprintf(out, "serve: listening on http://%s\n", ln.Addr())
	httpSrv := newHTTPServer(srv.Handler())
	done := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		httpSrv.Shutdown(context.Background())
		close(done)
	}()
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", err)
	}
	<-done
	fmt.Fprintln(out, "serve: shut down")
	return nil
}

// sweepCmd runs every selected experiment across the seed, scale and
// knob grid and emits the aggregate report. Shape-check outcomes live in
// the report; only run errors fail the command.
func sweepCmd(out io.Writer, reg *core.Registry, opts *options, ids []string) error {
	sweep, err := opts.grid(reg, "sweep", ids)
	if err != nil {
		return err
	}
	sweep.Seeds = []int64{1, 2, 3, 4, 5}
	if opts.seeds != "" {
		if sweep.Seeds, err = harness.ParseSeeds(opts.seeds); err != nil {
			return err
		}
	}
	if opts.scales != "" {
		if sweep.Scales, err = harness.ParseScales(opts.scales); err != nil {
			return err
		}
	} else {
		sweep.Scales = []float64{opts.scale}
	}
	runner := harness.Runner{
		Registry:   reg,
		Workers:    opts.parallel,
		ProfileDir: opts.profile,
	}
	results := runner.Run(context.Background(), sweep.Jobs())
	report := harness.Aggregate(results)
	switch {
	case opts.json:
		enc, err := report.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(enc))
	case opts.csv:
		fmt.Fprint(out, report.CSV())
	default:
		fmt.Fprint(out, report)
	}
	errs := 0
	for _, g := range report.Groups {
		errs += len(g.Errors)
	}
	if errs > 0 {
		return fmt.Errorf("sweep: %d run(s) errored (see report)", errs)
	}
	return nil
}

// traceCmd runs one experiment in-process with a telemetry collector and
// event trace attached, writes the trace in Chrome trace-event JSON
// (load it in chrome://tracing or Perfetto), and prints a telemetry
// summary. Single-run by construction: a trace interleaving several runs
// would be unreadable and the collector is per-run state.
func traceCmd(out io.Writer, reg *core.Registry, opts *options, ids []string) error {
	grid, err := opts.grid(reg, "trace", ids)
	if err != nil {
		return err
	}
	if len(grid.Experiments) != 1 {
		return fmt.Errorf("trace: takes exactly one experiment id (got %d)", len(grid.Experiments))
	}
	grid.Seeds, grid.Scales = []int64{opts.seed}, []float64{opts.scale}
	jobs := grid.Jobs()
	col := obs.NewCollector(obs.WithTrace(opts.traceLimit))
	cfg := jobs[0].Config
	cfg.Obs = col
	res, err := reg.Run(jobs[0].ExperimentID, cfg)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(opts.out)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := col.Trace().WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	snap := col.Snapshot()
	fmt.Fprintf(out, "trace: wrote %s (%d events, %d dropped)\n", opts.out, snap.TraceEvents, snap.TraceDropped)
	fmt.Fprintf(out, "kernel: %d events fired, peak %d pending, virtual time %s\n",
		snap.Sim.Fired, snap.Sim.MaxPending, time.Duration(snap.Sim.VirtualNano))
	for _, c := range snap.Counters {
		fmt.Fprintf(out, "counter %s = %d\n", c.Name, c.Total)
	}
	for _, h := range snap.Hists {
		fmt.Fprintf(out, "histogram %s: n=%d p50=%s p99=%s\n",
			h.Name, h.Count, time.Duration(h.P50), time.Duration(h.P99))
	}
	if !res.Reproduced() {
		fmt.Fprintf(out, "note: %s failed its shape checks on this run\n", res.ID)
	}
	return nil
}
