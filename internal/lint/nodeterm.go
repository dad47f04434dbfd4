package lint

import (
	"go/types"
)

// bannedTimeFuncs are the time-package entry points that read the wall
// clock or schedule on it. Pure types (time.Time, time.Duration) and
// formatting stay legal — only ambient clock access is banned.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// NodetermAnalyzer forbids ambient time and randomness in protocol
// packages. Cluster membership, view, and ring logic must take clock
// access through an injectable Clock and randomness through an
// injected seed so the whole protocol can run under the deterministic
// simulation harness (ROADMAP item 11 (c)) with virtual time and a seeded
// schedule.
var NodetermAnalyzer = &Analyzer{
	Name: "nodeterm",
	Doc:  "protocol packages must not read the wall clock or ambient randomness",
	Run:  runNodeterm,
}

func runNodeterm(pass *Pass) {
	if !matchScope(pass.Cfg.ProtocolPkgs, pass.Pkg.Path) {
		return
	}
	for ident, obj := range pass.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			// Methods are value operations (time.Time.After compares
			// instants); only package-level functions touch the ambient
			// clock.
			continue
		}
		switch fn.Pkg().Path() {
		case "time":
			if bannedTimeFuncs[fn.Name()] {
				pass.Reportf(ident.Pos(),
					"time.%s in protocol package %s: route clock access through an injectable Clock (deterministic-simulation invariant)",
					fn.Name(), pass.Pkg.Path)
			}
		case "math/rand", "math/rand/v2":
			pass.Reportf(ident.Pos(),
				"math/rand.%s in protocol package %s: randomness must come from an injected seed (deterministic-simulation invariant)",
				fn.Name(), pass.Pkg.Path)
		}
	}
}
