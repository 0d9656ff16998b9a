// Package hostlock keeps the test binaries that must not share the host's
// CPUs from running at the same time.
//
// `go test ./...` runs several packages' test binaries at once. A
// wall-clock test over real sockets judges the bounded-delay axiom with a
// d of a few milliseconds of real time; when a CPU-bound experiment render
// in another package saturates every core beside it, frames miss d and
// the test reads a host overload as a protocol failure. Both kinds take
// this lock: a wall-clock test for its own run (Hold), a CPU-bound package
// for its whole run (Acquire from TestMain). The lock is an advisory
// flock(2) on one file in the OS temp directory, so it spans every
// process on the host, and the kernel drops it when its holder exits.
package hostlock

import (
	"os"
	"path/filepath"
	"testing"
)

// name is the lock file, in os.TempDir().
const name = "ssbyz-host.lock"

// Acquire blocks until this process holds the host lock and returns the
// function that releases it. On platforms without flock(2) it returns at
// once. An error means the lock could not be taken; the caller may run
// unserialized.
func Acquire() (release func(), err error) {
	return acquire(filepath.Join(os.TempDir(), name))
}

func acquire(path string) (release func(), err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return func() {}, err
	}
	if err := lock(f); err != nil {
		f.Close()
		return func() {}, err
	}
	return func() {
		unlock(f)
		f.Close()
	}, nil
}

// Hold takes the host lock for the rest of tb's run. A lock that cannot
// be taken is logged, not fatal: the test then runs unserialized.
func Hold(tb testing.TB) {
	tb.Helper()
	release, err := Acquire()
	if err != nil {
		tb.Logf("hostlock: running unserialized: %v", err)
	}
	tb.Cleanup(release)
}
