package lint

import (
	"testing"

	"repro/internal/lint/ctxflow"
	"repro/internal/lint/detrand"
	"repro/internal/lint/gorolife"
	"repro/internal/lint/lockcheck"
	"repro/internal/lint/maporder"
)

// TestLRUEnrolled pins internal/lru in every roster that guards it: it
// holds a mutex and parks waiters (lockcheck, gorolife, ctxflow), and
// it backs the schedule memo on the deterministic engine path
// (detrand, maporder).
func TestLRUEnrolled(t *testing.T) {
	const pkg = "repro/internal/lru"
	rosters := map[string]map[string]bool{
		"lockcheck": lockcheck.Packages,
		"gorolife":  gorolife.Packages,
		"maporder":  maporder.Packages,
		"detrand":   detrand.DeterministicPackages,
		"ctxflow":   ctxflow.Packages,
	}
	for name, roster := range rosters {
		if !roster[pkg] {
			t.Errorf("%s roster does not cover %s", name, pkg)
		}
	}
}
