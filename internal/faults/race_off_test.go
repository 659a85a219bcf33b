//go:build !race

package faults

// raceEnabled lets allocation gates skip under the race detector,
// whose instrumentation perturbs allocation accounting.
const raceEnabled = false
