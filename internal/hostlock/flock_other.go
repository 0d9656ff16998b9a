//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package hostlock

import "os"

const supported = false

func lock(*os.File) error { return nil }

func unlock(*os.File) {}
