package lint

import (
	"go/ast"
	"go/types"
)

// FramedWrite guards the durability invariant of internal/checkpoint:
// every byte that reaches a WAL segment or snapshot file must pass
// through a CRC-framing helper, because recovery scans frames and a
// single unframed byte makes every record behind it unreachable. The
// analyzer flags, anywhere in loom/internal/checkpoint:
//
//   - method calls Write/WriteString/WriteAt/ReadFrom on a value of
//     type *os.File, and
//   - io.WriteString / io.Copy / io.CopyN / fmt.Fprint* calls whose
//     destination argument is statically a *os.File,
//
// unless the enclosing function is annotated //loom:framedwriter
// <reason>, which marks it as one of the framing helpers themselves.
//
// The same discipline covers loom/internal/stream: its frame payloads
// are the element bodies of WAL batch records and snapshot graph
// sections, so a raw file write there would corrupt recovery just as
// surely as one in checkpoint itself.
var FramedWrite = &Analyzer{
	Name: "framedwrite",
	Doc: "in internal/checkpoint and internal/stream, bans raw writes to " +
		"file handles outside //loom:framedwriter framing helpers",
	Run: runFramedWrite,
}

// framedPaths are the packages under the framing discipline.
var framedPaths = map[string]bool{
	"loom/internal/checkpoint": true,
	"loom/internal/stream":     true,
}

// fileWriteMethods are the *os.File methods that emit bytes.
var fileWriteMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteAt":     true,
	"ReadFrom":    true,
}

// writerFirstArgFuncs are the package functions whose first argument is
// the destination writer.
var writerFirstArgFuncs = map[string]map[string]bool{
	"io":  {"WriteString": true, "Copy": true, "CopyN": true, "CopyBuffer": true},
	"fmt": {"Fprint": true, "Fprintf": true, "Fprintln": true},
}

func runFramedWrite(pass *Pass) {
	if !framedPaths[pass.Pkg.Path()] {
		return
	}
	pass.eachFuncWithFile(func(f *ast.File, fn *ast.FuncDecl) {
		if d, ok := pass.FuncDirective(f, fn, "framedwriter"); ok {
			if d.Reason == "" {
				pass.Reportf(fn.Pos(), "//loom:framedwriter annotation requires a written reason")
			}
			return
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkFramedCall(pass, call)
			return true
		})
	})
}

func checkFramedCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if sig.Recv() != nil {
		// Method call: is the receiver an *os.File?
		if fileWriteMethods[fn.Name()] && isOSFile(pass.TypeOf(sel.X)) {
			pass.Reportf(call.Pos(), "raw %s on a checkpoint file handle bypasses CRC framing; "+
				"go through a //loom:framedwriter helper so recovery can scan past this write", fn.Name())
		}
		return
	}
	if fn.Pkg() == nil {
		return
	}
	if names, ok := writerFirstArgFuncs[fn.Pkg().Path()]; ok && names[fn.Name()] && len(call.Args) > 0 {
		if isOSFile(pass.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(), "%s.%s writes raw bytes to a checkpoint file handle, bypassing CRC framing; "+
				"go through a //loom:framedwriter helper", fn.Pkg().Name(), fn.Name())
		}
	}
}

// isOSFile reports whether t is *os.File (or os.File).
func isOSFile(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
}
