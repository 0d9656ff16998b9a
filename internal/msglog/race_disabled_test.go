//go:build !race

package msglog

const raceEnabled = false
