//go:build linux

package ops

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel send the daemon SIGTERM when the
// orchestrator dies, however it dies (SIGKILL, or SIGPIPE from a closed
// pipe), so a fleet never outlives it; the daemon's SIGTERM path then
// stops it in order. Linux delivers the signal when the OS thread that
// forked the child exits, not the process: Go keeps its threads for the
// life of the process, except that a goroutine that exits while locked to
// its thread (runtime.LockOSThread) takes the thread with it, so Spawn
// must not run on such a goroutine.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
}
