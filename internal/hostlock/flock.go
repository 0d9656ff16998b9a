//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package hostlock

import (
	"os"
	"syscall"
)

const supported = true

func lock(f *os.File) error {
	for {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
		if err != syscall.EINTR {
			return err
		}
	}
}

func unlock(f *os.File) { _ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN) }
