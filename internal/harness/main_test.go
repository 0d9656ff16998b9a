package harness

import (
	"fmt"
	"os"
	"testing"

	"ssbyz/internal/hostlock"
)

// TestMain holds the host lock for the whole package run: the quick-suite
// renders and campaigns here keep every core busy for minutes, and the
// wall-clock tests of other packages (which take the same lock) must not
// run beside them.
func TestMain(m *testing.M) {
	release, err := hostlock.Acquire()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostlock: running unserialized: %v\n", err)
	}
	code := m.Run()
	release()
	os.Exit(code)
}
