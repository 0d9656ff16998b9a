//go:build race

package sim

// raceEnabled reports that this build runs under the race detector, whose
// instrumentation makes allocation counts meaningless.
const raceEnabled = true
