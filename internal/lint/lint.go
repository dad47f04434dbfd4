// Package lint is mistlint's engine: a stdlib-only static-analysis
// driver (go/parser + go/ast + go/types via the source importer — no
// module dependencies, works offline) that loads every package in the
// repo and runs a suite of repo-specific analyzers. Each analyzer
// machine-checks one invariant the replicated serving cluster's
// correctness rests on — invariants that PR 4–5 enforced only by
// reviewer vigilance: protocol determinism (nodeterm), no lock held
// across I/O (lockio), context propagation (ctxflow), tracked
// goroutines (gotrack), complete wire tags (wiretags), no dropped
// mutation errors (errdrop), and documented packages and wire types
// (doccomment).
//
// Diagnostics print as "file:line: [check-name] message". Intentional
// exceptions are suppressed with a "//mistlint:ignore check reason"
// directive on the offending line or the line above; the driver parses
// and tallies every directive so ignores cannot accumulate silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pos is the primary position, printed as file:line.
	Pos token.Position
	// AltPos lists alternate anchor positions: an ignore directive at
	// any of them also suppresses this diagnostic. lockio uses this to
	// anchor findings to the Lock() call, so one directive at the
	// acquisition site exempts the whole critical section.
	AltPos []token.Position
	// Check is the analyzer name, e.g. "lockio".
	Check string
	// Message describes the violated invariant.
	Message string
}

// String renders the diagnostic in the canonical output format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
}

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the check name used in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/cluster").
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's expression and object facts.
	Info *types.Info
}

// Config scopes each analyzer to the packages whose invariants it
// polices. An entry of "*" matches every loaded package (used by the
// fixture tests); otherwise entries are exact import paths.
type Config struct {
	// ProtocolPkgs must be deterministic: no wall clock, no ambient
	// randomness (nodeterm).
	ProtocolPkgs []string
	// WirePkgs hold JSON wire/store structs needing complete tags
	// (wiretags).
	WirePkgs []string
	// GoroutinePkgs may not spawn naked goroutines (gotrack).
	GoroutinePkgs []string
	// CtxPkgs must plumb contexts through I/O paths (ctxflow).
	CtxPkgs []string
	// MutationPkgs are callee packages whose error returns must not be
	// discarded anywhere in the module (errdrop).
	MutationPkgs []string
	// DocPkgs must carry package-level doc comments; exported types in
	// WirePkgs additionally need doc comments (doccomment).
	DocPkgs []string
}

// DefaultConfig scopes the analyzers to this repo's packages.
func DefaultConfig() *Config {
	return &Config{
		ProtocolPkgs: []string{
			"repro/internal/cluster",
			"repro/internal/pilot",
			"repro/internal/slo",
			// The seam itself: its two wall-clock calls are the only
			// sanctioned ones, each behind a reasoned directive.
			"repro/internal/clock",
		},
		WirePkgs: []string{
			"repro/internal/cluster",
			"repro/internal/serve",
			"repro/internal/store",
			"repro/internal/jobs",
			"repro/internal/load",
			"repro/internal/slo",
			"repro/internal/trace",
			"repro/internal/pilot",
		},
		GoroutinePkgs: []string{
			"repro/internal/cluster",
			"repro/internal/serve",
			"repro/internal/jobs",
			"repro/internal/load",
		},
		CtxPkgs: []string{
			"repro/internal/cluster",
			"repro/internal/serve",
			"repro/internal/jobs",
			"repro/internal/load",
		},
		MutationPkgs: []string{
			"repro/internal/store",
			"repro/internal/cluster",
			"repro/internal/metrics",
			"repro/internal/jobs",
		},
		DocPkgs: []string{
			"repro/internal/...",
			"repro/tools/...",
		},
	}
}

// matchScope reports whether pkgPath is covered by the scope list: "*"
// matches everything, a trailing "/..." matches the prefix and its
// subtree, anything else is an exact import path.
func matchScope(scopes []string, pkgPath string) bool {
	for _, s := range scopes {
		if s == "*" || s == pkgPath {
			return true
		}
		if prefix, ok := strings.CutSuffix(s, "/..."); ok &&
			(pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/")) {
			return true
		}
	}
	return false
}

// Program is the whole loaded module: every package plus the
// cross-package I/O taint facts analyzers share.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Pkgs       []*Package
	taint      *taintInfo
}

// NewProgram assembles packages into a program and computes the
// transitive I/O taint over the module's static call graph.
func NewProgram(fset *token.FileSet, modulePath string, pkgs []*Package) *Program {
	pr := &Program{Fset: fset, ModulePath: modulePath, Pkgs: pkgs}
	pr.taint = buildTaint(pr)
	return pr
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Cfg      *Config
	Prog     *Program
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportfAlt(pos, nil, format, args...)
}

// ReportfAlt records a finding at pos with alternate suppression
// anchors (see Diagnostic.AltPos).
func (p *Pass) ReportfAlt(pos token.Pos, alts []token.Pos, format string, args ...any) {
	d := Diagnostic{
		Pos:     p.Prog.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	}
	for _, a := range alts {
		d.AltPos = append(d.AltPos, p.Prog.Fset.Position(a))
	}
	*p.diags = append(*p.diags, d)
}

// Analyzers returns the full mistlint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NodetermAnalyzer,
		LockioAnalyzer,
		CtxflowAnalyzer,
		GotrackAnalyzer,
		WiretagsAnalyzer,
		ErrdropAnalyzer,
		DoccommentAnalyzer,
	}
}

// sortDiags orders diagnostics by file, line, column, then check name,
// giving deterministic output regardless of analyzer iteration order.
func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}
