package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// FloatFmtPkgs are the byte-determinism-critical render paths: every byte
// they emit is hashed into manifest.json and diffed against golden
// baselines, so float formatting must pin an explicit precision. A bare
// %v/%g (or fmt.Sprint) renders the shortest representation, whose WIDTH
// depends on the value — one knob nudge turns "0.25" into
// "0.2500000000000001" and shifts every table column after it.
var FloatFmtPkgs = []string{
	"internal/report",
	"internal/metrics",
}

// FloatFmt bans width-unstable float formatting in render paths.
var FloatFmt = &Analyzer{
	Name: "floatfmt",
	Doc: "flags %v and precision-less %g/%G applied to floating-point " +
		"operands, and fmt.Sprint-style calls with float operands, in the " +
		"report/metrics render paths; use an explicit precision (%.6g, " +
		"strconv.FormatFloat) so output width is value-independent",
	Run: runFloatFmt,
}

// fmtFormatFuncs maps fmt formatting functions to the index of their
// format-string argument.
var fmtFormatFuncs = map[string]int{
	"Sprintf": 0, "Printf": 0, "Errorf": 0,
	"Fprintf": 1, "Appendf": 1,
}

// fmtPlainFuncs maps fmt concatenation functions to the index of their
// first operand argument.
var fmtPlainFuncs = map[string]int{
	"Sprint": 0, "Sprintln": 0, "Print": 0, "Println": 0,
	"Fprint": 1, "Fprintln": 1, "Append": 1, "Appendln": 1,
}

func runFloatFmt(pass *Pass) {
	if !pathInSet(pass.Pkg.Path(), FloatFmtPkgs) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || funcPkgPath(fn) != "fmt" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			if idx, ok := fmtFormatFuncs[fn.Name()]; ok {
				checkFormatCall(pass, call, fn.Name(), idx)
			} else if idx, ok := fmtPlainFuncs[fn.Name()]; ok {
				for _, arg := range call.Args[min(idx, len(call.Args)):] {
					if t := pass.TypesInfo.Types[arg].Type; t != nil && isFloaty(t) {
						pass.Reportf(arg.Pos(), "fmt.%s renders %s with value-dependent width; use an explicit precision (e.g. strconv.FormatFloat or %%.6g)", fn.Name(), t)
					}
				}
			}
			return true
		})
	}
}

// checkFormatCall matches the format literal's verbs against operand types
// and flags %v and precision-less %g/%G on floats. Non-constant format
// strings and parses the scanner cannot follow are skipped: the dynamic
// golden gates still cover them.
func checkFormatCall(pass *Pass, call *ast.CallExpr, fname string, fmtIdx int) {
	if len(call.Args) <= fmtIdx {
		return
	}
	tv := pass.TypesInfo.Types[call.Args[fmtIdx]]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	operands := call.Args[fmtIdx+1:]
	for _, v := range parseVerbs(constant.StringVal(tv.Value)) {
		if v.argIndex < 0 || v.argIndex >= len(operands) {
			continue
		}
		bad := v.verb == 'v' || ((v.verb == 'g' || v.verb == 'G') && !v.hasPrecision)
		if !bad {
			continue
		}
		arg := operands[v.argIndex]
		if t := pass.TypesInfo.Types[arg].Type; t != nil && isFloaty(t) {
			pass.Reportf(arg.Pos(), "%%%s%c in fmt.%s renders %s with value-dependent width; pin a precision (e.g. %%.6g)", v.flags, v.verb, fname, t)
		}
	}
}

// verb is one parsed conversion in a format string.
type verb struct {
	verb         rune
	flags        string
	hasPrecision bool
	argIndex     int
}

// parseVerbs scans a fmt format string and assigns each verb its operand
// index, accounting for '*' width/precision operands and explicit [n]
// argument indexes. It returns nil when it loses track.
func parseVerbs(format string) []verb {
	var out []verb
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			return out
		}
		if format[i] == '%' {
			continue
		}
		v := verb{argIndex: -1}
		// Flags.
		for i < len(format) && strings.ContainsRune("+-# 0", rune(format[i])) {
			v.flags += string(format[i])
			i++
		}
		// Width.
		if i < len(format) && format[i] == '*' {
			arg++
			i++
		} else {
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				i++
			}
		}
		// Precision.
		if i < len(format) && format[i] == '.' {
			v.hasPrecision = true
			i++
			if i < len(format) && format[i] == '*' {
				arg++
				i++
			} else {
				for i < len(format) && format[i] >= '0' && format[i] <= '9' {
					i++
				}
			}
		}
		// Explicit argument index [n].
		if i < len(format) && format[i] == '[' {
			j := strings.IndexByte(format[i:], ']')
			if j < 0 {
				return out
			}
			n := 0
			for _, c := range format[i+1 : i+j] {
				if c < '0' || c > '9' {
					return out
				}
				n = n*10 + int(c-'0')
			}
			arg = n - 1
			i += j + 1
		}
		if i >= len(format) {
			return out
		}
		v.verb = rune(format[i])
		v.argIndex = arg
		arg++
		out = append(out, v)
	}
	return out
}
