package serve_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// protocolPath matches a string literal naming a route of the
// node-to-node protocol, bare or as a mux pattern ("POST /cluster/view").
var protocolPath = regexp.MustCompile(`^((GET|POST|DELETE) )?(/cluster/[a-z]+|/slo)$`)

// TestPeerProtocolHasOneSeam checks, from the source, the architecture
// DESIGN.md "Node-to-node protocol" describes: every request a
// node sends leaves through one builder, every peer reply is judged by
// one decoder, every route of the protocol has one client, and the
// serving layer proposes membership changes, walks a key's route,
// offers a record to its replicas and adopts a peer's record in one
// function each. A second copy of any of these fails here, not in
// review.
func TestPeerProtocolHasOneSeam(t *testing.T) {
	type site struct{ pkg, file, fn string }
	calls := map[string][]site{}   // callee name -> where it is called
	clients := map[string][]site{} // "METHOD path" -> client call sites
	var strayPaths []string

	fset := token.NewFileSet()
	for pkg, dir := range map[string]string{"serve": ".", "cluster": "../cluster"} {
		parsed, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parsed {
			for path, file := range p.Files {
				name := path[strings.LastIndex(path, "/")+1:]
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue // imports and types hold no calls
					}
					at := site{pkg, name, fd.Name.Name}
					ast.Inspect(fd, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
								s, _ := strconv.Unquote(lit.Value)
								routeTable := pkg == "serve" && fd.Name.Name == "Handler"
								client := (pkg == "serve" && name == "peer.go") || (pkg == "cluster" && name == "view.go")
								if protocolPath.MatchString(s) && !routeTable && !client {
									strayPaths = append(strayPaths, pkg+"/"+name+" "+fd.Name.Name+": "+s)
								}
							}
							return true
						}
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
							calls[sel.Sel.Name] = append(calls[sel.Sel.Name], at)
						}
						// A client call site: a call handed a protocol path,
						// with the method beside it (the seed helper only POSTs).
						method, route := "POST", ""
						for _, arg := range call.Args {
							if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
								if s, _ := strconv.Unquote(lit.Value); protocolPath.MatchString(s) && strings.HasPrefix(s, "/") {
									route = s
								}
							}
							if sel, ok := arg.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Method") {
								method = strings.ToUpper(strings.TrimPrefix(sel.Sel.Name, "Method"))
							}
						}
						if route != "" && !(pkg == "serve" && fd.Name.Name == "Handler") {
							clients[method+" "+route] = append(clients[method+" "+route], at)
						}
						return true
					})
				}
			}
		}
	}

	allowed := func(callee string, want ...site) {
		t.Helper()
		render := func(sites []site) string {
			out := make([]string, len(sites))
			for i, s := range sites {
				out[i] = s.pkg + "/" + s.file + ":" + s.fn
			}
			sort.Strings(out)
			return strings.Join(out, ", ")
		}
		if got, want := render(calls[callee]), render(want); got != want {
			t.Errorf("%s is called from [%s], want exactly [%s]", callee, got, want)
		}
	}
	allowed("NewRequestWithContext", site{"cluster", "health.go", "send"}, site{"cluster", "view.go", "seedJSON"})
	allowed("NewRequest")
	allowed("Forward", site{"cluster", "cluster.go", "Call"}, site{"serve", "peer.go", "forwardOnce"})
	allowed("NewDecoder", site{"cluster", "cluster.go", "DecodeReply"}, site{"serve", "serve.go", "decodeBody"})
	allowed("ProposeJoin", site{"serve", "elastic_http.go", "changeMembership"})
	allowed("ProposeDrain", site{"serve", "elastic_http.go", "changeMembership"})
	allowed("Route", site{"serve", "cluster_http.go", "walkRoute"})
	allowed("peerReplicate", site{"serve", "cluster_http.go", "offerRecord"})
	allowed("Apply", site{"serve", "cluster_http.go", "adoptRecord"}, site{"serve", "cluster_http.go", "handleReplicate"})

	for _, s := range strayPaths {
		t.Errorf("protocol path outside the route table, serve/peer.go and cluster/view.go: %s", s)
	}
	if len(clients) < 7 {
		t.Errorf("found only %d client routes (%v) — the scan broke", len(clients), clients)
	}
	for route, at := range clients {
		if len(at) != 1 {
			t.Errorf("%s has %d client call sites %v, want exactly 1", route, len(at), at)
		}
	}
}
