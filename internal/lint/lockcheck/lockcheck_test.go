package lockcheck_test

import (
	"testing"

	"finelb/internal/lint/analysistest"
	"finelb/internal/lint/lockcheck"
)

// TestGuards covers the core discipline: guarded access, pairing on
// every return path, the early-unlock-return shape, the *Locked
// convention, and the never-report-on-unknown merge.
func TestGuards(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.Analyzer, "guards")
}

// TestDeferPerPath proves a deferred unlock covers only the path that
// registered it: a one-branch defer does not mask a leak on the other.
func TestDeferPerPath(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.Analyzer, "deferpath")
}

// TestBlocking covers the no-blocking-while-held rules and their
// sanctioned counterparts (select with default, write after unlock).
func TestBlocking(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.Analyzer, "blocking")
}

// TestMalformedDirectives proves every //lint:guards misuse is
// reported in place.
func TestMalformedDirectives(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.Analyzer, "malformed")
}

// TestSuppression proves the //lint:allow contract for lockcheck in
// both the line-above and same-line forms.
func TestSuppression(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.Analyzer, "suppress")
}
