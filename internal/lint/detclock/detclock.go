// Package detclock implements the finelbvet analyzer that keeps the
// deterministic substrate deterministic.
//
// The repository's headline property — bit-identical golden-seed
// digests for the simulator and the mem-transport prototype — holds
// only while the packages those digests flow through stay pure
// functions of their seeds and specs. detclock turns that convention
// into a machine-checked invariant:
//
//  1. In deterministic packages (the simulator stack plus the
//     in-memory transport fabric), calls to wall-clock functions
//     (time.Now, time.Sleep, time.After, timers, tickers) and to the
//     global math/rand RNG are forbidden; only injected clocks and
//     seeded *rand.Rand values pass.
//  2. In deterministic packages, ranging over a map while appending to
//     an outer slice or sending on a channel is flagged: map iteration
//     order would leak into results.
//  3. Everywhere (any package), a function that already has an
//     injected clock in scope — a receiver or struct-parameter field
//     `now func() time.Time` / `sleep func(time.Duration)`, or a
//     parameter of those shapes — must use it; a direct time.Now or
//     time.Sleep beside an injected clock is almost always the bug
//     that splits a code path across two clocks.
//
// Scope: a package is deterministic if its import path is listed in
// DeterministicPackages, if one of its files carries a
// `//lint:deterministic` comment, or (file granularity) if the file is
// listed in DeterministicFiles or carries `//lint:deterministic file`.
// Intentional wall-clock escapes (the mem fabric's latency and
// deadline timers) are annotated in place with
// `//lint:allow detclock <reason>`. The packages of
// DeterministicPackages carry none: the prototype driver replays their
// fault and membership schedules on its own clock, and CI fails on any
// such directive there.
package detclock

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"finelb/internal/lint/analysis"
)

// Analyzer is the detclock pass.
var Analyzer = &analysis.Analyzer{
	Name: "detclock",
	Doc: "forbid wall clocks, global math/rand, and map-order-dependent writes in deterministic packages, " +
		"and direct time.Now/time.Sleep wherever an injected clock is in scope",
	Run: run,
}

// DeterministicPackages is the fixed deterministic core: every package
// whose behavior must be a pure function of seed and spec. The list is
// a backstop — removing a `//lint:deterministic` marker cannot descope
// these packages.
var DeterministicPackages = map[string]bool{
	"finelb/internal/simcluster": true,
	"finelb/internal/sim":        true,
	"finelb/internal/queueing":   true,
	"finelb/internal/workload":   true,
	"finelb/internal/faults":     true,
	"finelb/internal/membership": true,
	"finelb/internal/stats":      true,
}

// DeterministicFiles extends the scope with single files inside
// otherwise wall-clock packages: the transport package hosts both the
// real-socket substrate (wall clock by nature) and the deterministic
// in-memory fabric.
var DeterministicFiles = map[string]map[string]bool{
	"finelb/internal/transport": {"mem.go": true},
}

// forbiddenTime are the time package functions that read or schedule
// on the wall clock.
var forbiddenTime = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

// allowedRand are the math/rand (and v2) package-level constructors
// that produce explicitly seeded generators; everything else at
// package level draws from the shared global source.
var allowedRand = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	pkgDet := DeterministicPackages[pass.Pkg.Path()]
	files := DeterministicFiles[pass.Pkg.Path()]
	if !pkgDet {
		for _, f := range pass.Files {
			if marker(f) == "package" {
				pkgDet = true
				break
			}
		}
	}
	for _, f := range pass.Files {
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		det := pkgDet || files[base] || marker(f) == "file"
		checkFile(pass, f, det)
	}
	return nil
}

// marker classifies a file's `//lint:deterministic` directive:
// "package" scopes the whole package, "file" just this file, "" none.
func marker(f *ast.File) string {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//lint:deterministic")
			if !ok {
				continue
			}
			if strings.TrimSpace(rest) == "file" {
				return "file"
			}
			return "package"
		}
	}
	return ""
}

func checkFile(pass *analysis.Pass, f *ast.File, deterministic bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if deterministic {
				checkCall(pass, n)
			}
		case *ast.RangeStmt:
			if deterministic {
				checkMapRange(pass, n)
			}
		case *ast.FuncDecl:
			// The injected-clock consistency check runs everywhere; in
			// deterministic files the outright ban already covers the
			// same calls, so skip it to avoid double reports.
			if !deterministic {
				checkInjectedClock(pass, n)
			}
		}
		return true
	})
}

// callee resolves a call to its package-level *types.Func (nil for
// methods, builtins, and locals).
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := callee(pass, call)
	if fn == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTime[fn.Name()] {
			pass.Reportf(call.Pos(),
				"call to time.%s in deterministic code; take an injected clock (the simulator's event clock or a now/sleep func value)",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			pass.Reportf(call.Pos(),
				"call to the global %s.%s in deterministic code; draw from a seeded *rand.Rand (stats.NewRNG) instead",
				filepath.Base(fn.Pkg().Path()), fn.Name())
		}
	}
}

// checkMapRange flags `for k := range m` loops whose bodies append to
// a slice declared outside the loop or send on a channel: the write
// order then depends on Go's randomized map iteration. The one exempt
// shape is appending the bare range key — that is the first half of
// the idiomatic fix (collect keys, sort, iterate sorted).
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, ok := tv.Type.Underlying().(*types.Map); !ok {
		return
	}
	var keyObj types.Object
	if id, ok := rng.Key.(*ast.Ident); ok {
		keyObj = pass.TypesInfo.ObjectOf(id)
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "send inside a map-range loop publishes values in nondeterministic map order; iterate over sorted keys")
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltin(pass, call.Fun, "append") || i >= len(n.Lhs) {
					continue
				}
				id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(id)
				if obj == nil || obj.Pos() == token.NoPos {
					continue
				}
				if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
					continue // loop-local accumulator
				}
				if appendsOnlyKey(pass, call, keyObj) {
					continue // collecting keys to sort them is the fix, not the bug
				}
				pass.Reportf(n.Pos(),
					"append to %s inside a map-range loop records values in nondeterministic map order; iterate over sorted keys", id.Name)
			}
		}
		return true
	})
}

// appendsOnlyKey reports whether every appended element is the bare
// range key variable.
func appendsOnlyKey(pass *analysis.Pass, call *ast.CallExpr, keyObj types.Object) bool {
	if keyObj == nil || len(call.Args) < 2 {
		return false
	}
	for _, arg := range call.Args[1:] {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || pass.TypesInfo.ObjectOf(id) != keyObj {
			return false
		}
	}
	return true
}

func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// checkInjectedClock enforces rule 3: a function with an injected
// clock in scope may not call time.Now/time.Sleep directly.
func checkInjectedClock(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	nowVia, sleepVia := clockSources(pass, fd)
	if nowVia == "" && sleepVia == "" {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(pass, call)
		if fn == nil || fn.Pkg().Path() != "time" {
			return true
		}
		switch {
		case fn.Name() == "Now" && nowVia != "":
			pass.Reportf(call.Pos(), "time.Now bypasses the injected clock %s; call it instead", nowVia)
		case fn.Name() == "Sleep" && sleepVia != "":
			pass.Reportf(call.Pos(), "time.Sleep bypasses the injected sleeper %s; call it instead", sleepVia)
		}
		return true
	})
}

// clockSources finds an injected clock reachable from fd's receiver or
// parameters: a func() time.Time (readable description returned) for
// now, and a func(time.Duration) named like a sleeper for sleep.
func clockSources(pass *analysis.Pass, fd *ast.FuncDecl) (nowVia, sleepVia string) {
	consider := func(name, container string, t types.Type) {
		if !clockish(name) {
			return
		}
		switch {
		case isFuncTimeTime(t) && nowVia == "":
			nowVia = container + name
		case isFuncDuration(t) && sleepVia == "" && sleepish(name):
			sleepVia = container + name
		}
	}
	scan := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, id := range field.Names {
				obj := pass.TypesInfo.ObjectOf(id)
				if obj == nil {
					continue
				}
				consider(id.Name, "", obj.Type())
				if st, ok := obj.Type().Underlying().(*types.Pointer); ok {
					scanStruct(pass, consider, id.Name+".", st.Elem())
				} else {
					scanStruct(pass, consider, id.Name+".", obj.Type())
				}
			}
		}
	}
	scan(fd.Recv)
	scan(fd.Type.Params)
	return nowVia, sleepVia
}

// scanStruct feeds a struct type's immediate fields to consider,
// skipping fields the analyzed package cannot reference (an unexported
// clock in somebody else's struct is not an injected clock here).
func scanStruct(pass *analysis.Pass, consider func(name, container string, t types.Type), prefix string, t types.Type) {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() && f.Pkg() != pass.Pkg {
			continue
		}
		consider(f.Name(), prefix, f.Type())
	}
}

// clockish names mark a value as an injected time source.
func clockish(name string) bool {
	switch strings.ToLower(name) {
	case "now", "clock", "sleep":
		return true
	}
	return false
}

func sleepish(name string) bool { return strings.ToLower(name) == "sleep" }

func isFuncTimeTime(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	return isTimeType(sig.Results().At(0).Type(), "Time")
}

func isFuncDuration(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	return isTimeType(sig.Params().At(0).Type(), "Duration")
}

func isTimeType(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == name
}
