//go:build !linux

package ops

import "os/exec"

// dieWithParent is a no-op where the kernel has no parent-death signal:
// there a fleet is stopped only by Close.
func dieWithParent(*exec.Cmd) {}
