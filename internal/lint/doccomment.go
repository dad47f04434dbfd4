package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// DoccommentAnalyzer enforces the documentation floor the operator tier
// rests on: godoc is the first runbook an on-caller reaches for, so
// every package in the documented scope must carry a package-level doc
// comment, and every exported type in a wire/API package must carry a
// doc comment. Undocumented wire types are the worst offenders — they
// ARE the cross-node protocol, and a bare `type ViewAck struct`
// forces the reader to reverse-engineer the contract from call sites.
//
//   - packages matched by DocPkgs: at least one non-test file must have
//     a package doc comment;
//   - packages matched by WirePkgs: every exported type declaration
//     must have a doc comment (on the spec or its decl group).
var DoccommentAnalyzer = &Analyzer{
	Name: "doccomment",
	Doc:  "packages and exported wire types carry doc comments",
	Run:  runDoccomment,
}

func runDoccomment(pass *Pass) {
	if matchScope(pass.Cfg.DocPkgs, pass.Pkg.Path) {
		checkPackageDoc(pass)
	}
	if matchScope(pass.Cfg.WirePkgs, pass.Pkg.Path) {
		checkExportedTypeDocs(pass)
	}
}

// checkPackageDoc reports once, anchored at the package clause of the
// lexically first file, when no file documents the package.
func checkPackageDoc(pass *Pass) {
	files := append([]*ast.File(nil), pass.Pkg.Files...)
	if len(files) == 0 {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		return pass.Prog.Fset.Position(files[i].Package).Filename <
			pass.Prog.Fset.Position(files[j].Package).Filename
	})
	for _, f := range files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return
		}
	}
	pass.Reportf(files[0].Name.Pos(),
		"package %s has no package doc comment: add a godoc paragraph (\"Package %s ...\") to one file",
		pass.Pkg.Types.Name(), pass.Pkg.Types.Name())
}

// checkExportedTypeDocs requires a doc comment on every exported type
// spec, accepting either the spec's own doc or its declaration group's.
func checkExportedTypeDocs(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				// A group's doc only speaks for a lone spec; in a multi-
				// spec group each type documents itself.
				if hasDoc(ts.Doc) || (len(gd.Specs) == 1 && hasDoc(gd.Doc)) {
					continue
				}
				pass.Reportf(ts.Name.Pos(),
					"exported type %s has no doc comment: document the contract readers of this wire/API package depend on", ts.Name.Name)
			}
		}
	}
}

func hasDoc(cg *ast.CommentGroup) bool {
	return cg != nil && strings.TrimSpace(cg.Text()) != ""
}
