// Package detrand forbids hidden entropy in the simulation pipeline.
//
// The paper's headline numbers depend on CE detour injection being
// seeded: the same (scenario, seed) pair must produce bit-identical
// results across simulator reuse, cache bypass, retry-after-panic and
// chaos runs (docs/MODEL.md §7, docs/FAULTS.md). Two classes of code
// silently break that:
//
//   - the global math/rand and math/rand/v2 top-level functions, which
//     draw from shared, unseeded (v2) or racily-seeded (v1) state —
//     banned module-wide, because even "timing-only" jitter should come
//     from an explicit stream so reviewers never have to guess;
//   - wall-clock and OS-entropy reads (time.Now, time.Since, crypto/rand,
//     ...) inside the deterministic simulation packages, where virtual
//     time is the only clock — banned in DeterministicPackages.
//
// Seeded constructors (rand.New, rand.NewSource, rand.NewPCG, ...) are
// always allowed: they force the caller to name a seed.
package detrand

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the detrand check.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid global math/rand state everywhere and wall-clock/OS-entropy " +
		"reads inside the deterministic simulation packages",
	Run: run,
}

// DeterministicPackages lists the packages whose results must be a
// pure function of (configuration, seed). Tests may add fixture paths.
var DeterministicPackages = map[string]bool{
	"repro/internal/loggopsim":   true,
	"repro/internal/noise":       true,
	"repro/internal/eventq":      true,
	"repro/internal/collectives": true,
	"repro/internal/extrapolate": true,
	"repro/internal/rng":         true,
	"repro/internal/stats":       true,
	"repro/internal/core":        true,
	"repro/internal/mca":         true,
	"repro/internal/advise":      true,
	"repro/internal/faultmodel":  true,
	"repro/internal/journal":     true,
	"repro/internal/lru":         true,
}

// allowedRandConstructors are math/rand(/v2) functions that take an
// explicit source or seed and therefore stay reproducible.
var allowedRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// wallClockFuncs are the time package functions that read the machine
// clock (directly or by arming timers against it).
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	det := DeterministicPackages[pass.Pkg.Path()]
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			pkgPath, name := obj.Pkg().Path(), obj.Name()
			switch pkgPath {
			case "math/rand", "math/rand/v2":
				if _, isFunc := obj.(*types.Func); isFunc && !allowedRandConstructors[name] && exportedTopLevel(obj) {
					pass.Reportf(sel.Pos(),
						"%s.%s draws from the global math/rand state; use a seeded stream (internal/rng, or %s.New with an explicit seed) so runs stay reproducible",
						pkgBase(pkgPath), name, pkgBase(pkgPath))
				}
			case "time":
				if det && wallClockFuncs[name] {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock inside deterministic simulation package %s; inject a clock or use virtual time",
						name, pass.Pkg.Path())
				}
			case "crypto/rand":
				if det {
					pass.Reportf(sel.Pos(),
						"crypto/rand.%s draws OS entropy inside deterministic simulation package %s; use the seeded internal/rng streams",
						name, pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil, nil
}

// exportedTopLevel reports whether obj is a package-scope function (a
// method named New etc. on some type never matches the global-state
// rule).
func exportedTopLevel(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg() != nil && fn.Parent() == fn.Pkg().Scope()
}

func pkgBase(path string) string {
	if strings.HasSuffix(path, "/v2") {
		return "rand/v2"
	}
	return path[strings.LastIndex(path, "/")+1:]
}
