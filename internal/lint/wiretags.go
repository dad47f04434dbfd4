package lint

import (
	"go/ast"
	"reflect"
	"strconv"
	"strings"
)

// WiretagsAnalyzer checks JSON wire structs for complete, unique tags.
// The replication and store protocols round-trip structs through
// encoding/json; an exported field missing its tag still encodes — but
// under its Go name, silently diverging from the wire contract the
// moment the field is renamed, and never matching the peer's decoder
// expectations. The check applies to every struct type in a wire
// package that already carries at least one json tag (structs with no
// tags at all are internal value types, not wire types):
//
//   - every exported non-embedded field must carry a json tag,
//   - tag names must be unique within the struct,
//   - unexported fields must not carry json tags (encoding/json never
//     emits them; the tag is dead and misleading).
//
// It also flags a map composite literal handed to writeJSON as the
// reply body: a reply spelled as a map on the serving end is
// re-declared by hand on the decoding end, and no check above sees
// either copy. A named struct is shared by both.
var WiretagsAnalyzer = &Analyzer{
	Name: "wiretags",
	Doc:  "wire structs carry complete, unique json tags",
	Run:  runWiretags,
}

func runWiretags(pass *Pass) {
	if !matchScope(pass.Cfg.WirePkgs, pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkReplyBody(pass, call)
				return true
			}
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			checkWireStruct(pass, ts.Name.Name, st)
			return true
		})
	}
}

// checkReplyBody reports map literals among writeJSON's arguments.
func checkReplyBody(pass *Pass, call *ast.CallExpr) {
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "writeJSON" {
		return
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.CompositeLit); ok {
			if _, isMap := lit.Type.(*ast.MapType); isMap {
				pass.Reportf(lit.Pos(),
					"map literal as a writeJSON reply body: declare a named reply struct so the decoding end shares it")
			}
		}
	}
}

// jsonTag extracts the json struct tag from a field, reporting whether
// one is present at all.
func jsonTag(field *ast.Field) (tag string, ok bool) {
	if field.Tag == nil {
		return "", false
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return "", false
	}
	return reflect.StructTag(raw).Lookup("json")
}

func checkWireStruct(pass *Pass, typeName string, st *ast.StructType) {
	// Wire structs self-identify: at least one field carries a json tag.
	isWire := false
	for _, field := range st.Fields.List {
		if _, ok := jsonTag(field); ok {
			isWire = true
			break
		}
	}
	if !isWire {
		return
	}
	seen := map[string]bool{}
	for _, field := range st.Fields.List {
		tag, hasTag := jsonTag(field)
		wireName, _, _ := strings.Cut(tag, ",")
		if hasTag && wireName != "" && wireName != "-" {
			if seen[wireName] {
				pass.Reportf(field.Pos(),
					"duplicate json tag %q in wire struct %s: one of these fields silently wins on decode", wireName, typeName)
			}
			seen[wireName] = true
		}
		if len(field.Names) == 0 {
			// Embedded fields inline their own tagged fields.
			continue
		}
		for _, name := range field.Names {
			exported := name.IsExported()
			switch {
			case exported && !hasTag:
				pass.Reportf(name.Pos(),
					"exported field %s.%s has no json tag: it encodes under its Go name, outside the wire contract", typeName, name.Name)
			case !exported && hasTag:
				pass.Reportf(name.Pos(),
					"unexported field %s.%s carries a json tag but is never encoded: drop the tag or export the field", typeName, name.Name)
			}
		}
	}
}
