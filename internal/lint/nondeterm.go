package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterministicPkgs is the deterministic package set: everything an
// experiment run executes between reading its seed and emitting bytes.
// Wall clocks, ambient RNG streams, environment reads, and order-dependent
// map iteration in these packages can silently break the byte-identical
// golden baselines, so the nondeterm analyzer bans them statically.
var DeterministicPkgs = []string{
	"internal/sim",
	"internal/netmodel",
	"internal/experiments",
	"internal/core",
	"internal/metrics",
	"internal/report",
	"internal/harness",
	"internal/obs",
	// Substrates: every protocol/economy layer the experiments drive.
	"internal/churn",
	"internal/cloudbase",
	"internal/econ",
	"internal/edge",
	"internal/gossip",
	"internal/incentive",
	"internal/ledger",
	"internal/offchain",
	"internal/overlay",
	"internal/pbft",
	"internal/permissioned",
	"internal/pow",
	"internal/raft",
	"internal/randdist",
	"internal/sybil",
	"internal/workload",
}

// WallclockAllowedPkgs may read the wall clock: the harness times jobs
// (Elapsed is measurement metadata, not experiment output). Audited call
// sites there additionally carry //decentlint:allow annotations as the
// review trail. Every other nondeterm check still applies to them.
var WallclockAllowedPkgs = []string{
	"internal/harness",
}

// NonDeterm bans nondeterminism sources inside the deterministic package
// set.
var NonDeterm = &Analyzer{
	Name: "nondeterm",
	Doc: "bans wall clocks (time.Now/Since/Until), ambient randomness " +
		"(global math/rand functions), environment reads (os.Getenv), and " +
		"map iteration with order-dependent writes inside the deterministic " +
		"package set",
	Run: runNonDeterm,
}

func runNonDeterm(pass *Pass) {
	pkgPath := pass.Pkg.Path()
	if !pathInSet(pkgPath, DeterministicPkgs) {
		return
	}
	wallOK := pathInSet(pkgPath, WallclockAllowedPkgs)
	seen := make(map[token.Pos]bool)
	report := func(pos token.Pos, format string, args ...any) {
		if !seen[pos] {
			seen[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNonDetCall(pass, n, wallOK, report)
			case *ast.RangeStmt:
				checkMapRange(pass, n, report)
			}
			return true
		})
	}
}

// checkNonDetCall flags a single call of a banned package-level function.
func checkNonDetCall(pass *Pass, call *ast.CallExpr, wallOK bool, report func(token.Pos, string, ...any)) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return
	}
	name := fn.Name()
	switch funcPkgPath(fn) {
	case "time":
		if wallOK {
			return
		}
		switch name {
		case "Now", "Since", "Until":
			report(call.Pos(), "time.%s reads the wall clock; deterministic code must use sim virtual time", name)
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			report(call.Pos(), "os.%s makes output depend on the environment; thread configuration through knobs instead", name)
		}
	case "math/rand", "math/rand/v2":
		if randConstructors[name] {
			return // rngstream's domain: constructors are legal only in sim/randdist.
		}
		report(call.Pos(), "global math/rand.%s draws from the shared process stream; use a named sim.Stream RNG", name)
	}
}

// randConstructors are the math/rand(/v2) entry points that take or build
// an explicit source; the rngstream analyzer owns their placement.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// writeMethods are io.Writer-ish method names whose invocation inside a
// map-range body makes the output order-dependent.
var writeMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
}

// fmtOutputFuncs are the fmt functions that emit to a writer. The pure
// Sprint/Sprintf/Errorf family is deliberately exempt: building a string
// per map entry is order-independent unless it is written somewhere, and
// the write is what the other checks flag.
var fmtOutputFuncs = map[string]bool{
	"Print": true, "Println": true, "Printf": true,
	"Fprint": true, "Fprintln": true, "Fprintf": true,
}

// scheduleMethods are sim-kernel and transport entry points that assign
// event sequence numbers. Calling them while iterating a map makes
// same-instant event tie-breaking (which is by sequence) depend on map
// order — a determinism hazard even though nothing is written yet.
var scheduleMethods = map[string]bool{
	"At": true, "After": true, "AfterFunc": true,
	"Every": true, "Send": true, "SendFrom": true, "Broadcast": true,
	"Call": true, // books the deadline, then sends the request
}

// checkMapRange flags map iteration whose body performs order-dependent
// writes: appends to outer slices, fmt printing, io.Writer-style method
// calls, or string concatenation into outer variables. The one exempt
// shape is the key-collection idiom — a body that only appends the range
// key to a slice (`keys = append(keys, k)`), which callers sort before
// using; golden-baseline diffs remain the dynamic backstop for an
// unsorted copy of that slice.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, report func(token.Pos, string, ...any)) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if isKeyCollect(pass, rng) {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(pass.TypesInfo, n, "append") && len(n.Args) > 0 {
				if declaredOutside(pass, n.Args[0], rng) {
					report(n.Pos(), "append to outer slice inside map iteration is order-dependent; sort the keys first")
				}
				return true
			}
			if fn := calleeFunc(pass.TypesInfo, n); fn != nil {
				sig, _ := fn.Type().(*types.Signature)
				switch {
				case funcPkgPath(fn) == "fmt" && sig != nil && sig.Recv() == nil && fmtOutputFuncs[fn.Name()]:
					report(n.Pos(), "fmt.%s inside map iteration emits output in map order; sort the keys first", fn.Name())
				case sig != nil && sig.Recv() != nil && writeMethods[fn.Name()]:
					report(n.Pos(), "%s call inside map iteration writes output in map order; sort the keys first", fn.Name())
				case sig != nil && sig.Recv() != nil && scheduleMethods[fn.Name()]:
					report(n.Pos(), "%s call inside map iteration schedules events in map order (sequence-number tie-breaking becomes nondeterministic); sort the keys first", fn.Name())
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				lt := pass.TypesInfo.Types[n.Lhs[0]].Type
				if lt != nil {
					if b, ok := lt.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 && declaredOutside(pass, n.Lhs[0], rng) {
						report(n.Pos(), "string concatenation into outer variable inside map iteration is order-dependent; sort the keys first")
					}
				}
			}
		}
		return true
	})
}

// isKeyCollect reports whether rng's body is exactly `s = append(s, k)`
// where k is the range key.
func isKeyCollect(pass *Pass, rng *ast.RangeStmt) bool {
	if rng.Value != nil || len(rng.Body.List) != 1 {
		return false
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltin(pass.TypesInfo, call, "append") || len(call.Args) != 2 {
		return false
	}
	arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok {
		return false
	}
	return pass.TypesInfo.Uses[arg] == pass.TypesInfo.Defs[key]
}

// declaredOutside reports whether expr is (rooted at) a variable declared
// before the range statement — i.e. outside its body.
func declaredOutside(pass *Pass, expr ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[e]
			if obj == nil {
				obj = pass.TypesInfo.Defs[e]
			}
			return obj != nil && obj.Pos() < rng.Pos()
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return false
		}
	}
}
