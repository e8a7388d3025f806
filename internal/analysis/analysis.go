// Package analysis is cake-vet: a suite of static analyzers that
// mechanically enforce the repo's concurrency and hot-path invariants. The
// codebase carries real concurrency surface — lock-free span rings in
// internal/obs, single-flight executors behind an atomic guard in
// internal/core — and hot-path kernels whose performance story (the paper's §4.4 byte
// attribution and the constant-bandwidth claim) silently breaks if an
// allocation, defer or plain read of an atomic field sneaks into a loop.
// These invariants used to live in code review; this package turns each one
// into a re-runnable check (GEMMbench's argument: reproducible GEMM work
// needs mechanical verification, not one-off diligence).
//
// The framework mirrors golang.org/x/tools/go/analysis — Analyzer, Pass,
// Reportf — but is self-contained on the standard library (go/ast, go/types,
// go/importer): the build environment is hermetic, so the suite cannot
// depend on fetched modules. Packages are loaded via `go list -export`
// (see load.go) and each analyzer receives fully type-checked syntax.
//
// Analyzers (see DESIGN §9 for the invariants' rationale):
//
//   - atomicfield: a struct field accessed through sync/atomic anywhere must
//     never be read or written plainly, and sync/atomic value types
//     (atomic.Int64 & friends) must never be copied.
//   - hotpathalloc: functions annotated //cake:hotpath must not allocate
//     (make/new/append/composite literals/closures), defer, spawn
//     goroutines, convert to interfaces, or concatenate strings.
//
// Invariants with only a handful of sites (lease balance, span byte
// attribution, request record outcomes) are pinned by runtime tests
// instead; DESIGN §9 names them.
//
// Two further passes are profile-guided rather than purely structural and
// are constructed with external inputs (see DESIGN §15):
//
//   - hotcover (NewHotCover): joins the committed corpus pprof profiles to
//     the annotation set — any function whose leaf flat share of a
//     scenario's CPU time reaches the threshold must carry //cake:hotpath
//     (so hotpathalloc inspects it) or an explicit //cake:hotpath-exempt
//     with a reason; annotated functions never sampled in any committed
//     profile are advisory staleness findings.
//   - escapecheck (NewEscapeCheck): attributes the compiler's own
//     escape-analysis diagnostics (go build -gcflags=-m) to enclosing
//     functions and fails when a //cake:hotpath function heap-allocates —
//     the compiler-introduced boxing, closure captures and append growth
//     that AST-level hotpathalloc structurally cannot see.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Syntax analyzers run off parsed
// ASTs alone (Pass.Pkg and Pass.Info may be nil when packages were loaded
// with LoadSyntax); all others require the fully type-checked Load.
type Analyzer struct {
	Name   string
	Doc    string
	Syntax bool
	Run    func(*Pass) error
}

// Pass carries one loaded package through one analyzer. Path is the
// package's import path; Pkg and Info are nil under LoadSyntax.
type Pass struct {
	Analyzer *Analyzer
	Path     string
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Diagnostic severities. Errors fail the go-vet exit contract; advisories
// inform (stale annotations, inlining misses) and never flip the exit code.
const (
	SeverityError    = "error"
	SeverityAdvisory = "advisory"
)

// Diagnostic is one reported finding. Severity is SeverityError for
// violations and SeverityAdvisory for informational findings.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Severity string
}

func (d Diagnostic) String() string {
	if d.Severity == SeverityAdvisory {
		return fmt.Sprintf("%s: [%s] advisory: %s", d.Pos, d.Analyzer, d.Message)
	}
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Severity: SeverityError,
	})
}

// Advisoryf records an informational finding at pos. Advisories surface in
// -json output and TestSuiteCleanOnRepo logs but never fail a run.
func (p *Pass) Advisoryf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Severity: SeverityAdvisory,
	})
}

// Suite returns every cake-vet analyzer, in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		AtomicField,
		HotPathAlloc,
	}
}

// ByName returns the named analyzer from Suite, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Suite() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Check runs the analyzers over the loaded packages and returns every
// diagnostic, sorted by file position.
func Check(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !a.Syntax && pkg.Info == nil {
				return diags, fmt.Errorf("%s: %s: analyzer needs type information but package was loaded with LoadSyntax", a.Name, pkg.Path)
			}
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// hasDirective reports whether the comment group carries the //cake:<name>
// directive. Directives follow the standard Go directive shape: no space
// after //, the directive alone on its line.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	want := "//cake:" + name
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == want || strings.HasPrefix(text, want+" ") {
			return true
		}
	}
	return false
}

// pkgFuncCall reports whether call invokes pkgPath.name (a package-level
// function accessed through an import), returning true and the resolved
// object name on match.
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return "", false
	}
	if _, ok := obj.(*types.Func); !ok {
		return "", false
	}
	return obj.Name(), true
}

func unalias(t types.Type) types.Type {
	if a, ok := t.(*types.Alias); ok {
		return types.Unalias(a)
	}
	return t
}
