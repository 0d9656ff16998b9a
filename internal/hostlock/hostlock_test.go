package hostlock

import (
	"path/filepath"
	"testing"
	"time"
)

// TestAcquireExcludes: a second holder of the same lock file blocks until
// the first releases, then gets it. flock(2) locks belong to the open
// file, so two opens in one process exclude each other just as two
// processes do. The test uses its own file, not the host lock.
func TestAcquireExcludes(t *testing.T) {
	if !supported {
		t.Skip("no flock(2) on this platform")
	}
	path := filepath.Join(t.TempDir(), name)
	release, err := acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan func(), 1)
	go func() {
		r, err := acquire(path)
		if err != nil {
			t.Error(err)
		}
		got <- r
	}()
	select {
	case r := <-got:
		r()
		t.Fatal("second acquire returned while the lock was held")
	case <-time.After(100 * time.Millisecond):
	}
	release()
	select {
	case r := <-got:
		r()
	case <-time.After(10 * time.Second):
		t.Fatal("second acquire still blocked 10 s after the release")
	}
}
