//go:build race

package gateway

// raceEnabled lets allocation gates skip under the race detector,
// whose instrumentation perturbs allocation accounting.
const raceEnabled = true
