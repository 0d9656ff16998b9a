//go:build race

package msglog

// raceEnabled reports that this build runs under the race detector, whose
// instrumentation makes allocation counts meaningless.
const raceEnabled = true
