package lint

import (
	"go/ast"
	"go/types"
)

// RNGConstructorPkgs are the only packages allowed to construct raw
// math/rand generators: sim derives them from the master seed per named
// stream, and randdist wraps those streams in distributions. Everywhere
// else a raw constructor bypasses the stream-naming discipline that keeps
// new randomness consumers from perturbing existing streams.
var RNGConstructorPkgs = []string{
	"internal/sim",
	"internal/randdist",
}

// RNGStream requires every RNG to originate from a named sim stream.
var RNGStream = &Analyzer{
	Name: "rngstream",
	Doc: "flags math/rand generator construction (rand.New, rand.NewSource, " +
		"and the math/rand/v2 equivalents) outside internal/sim and " +
		"internal/randdist; all other code must draw from named sim.Stream RNGs",
	Run: runRNGStream,
}

// rngCtorNames are the generator/source constructors per rand package.
// NewZipf is excluded: it wraps an existing *rand.Rand, so its determinism
// is the wrapped stream's, and randdist feeds it named streams.
var rngCtorNames = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runRNGStream(pass *Pass) {
	if pathInSet(pass.Pkg.Path(), RNGConstructorPkgs) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || !rngCtorNames[fn.Name()] {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			switch funcPkgPath(fn) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(call.Pos(), "rand.%s constructs an unnamed RNG; derive one from a named sim.Stream (or add it to internal/randdist)", fn.Name())
			}
			return true
		})
	}
}
