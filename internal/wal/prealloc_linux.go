package wal

import (
	"os"
	"syscall"
)

// fallocate reserves n bytes of f from off; mode 0 grows the file over them.
func fallocate(f *os.File, off, n int64) error { return syscall.Fallocate(int(f.Fd()), 0, off, n) }

func fdatasync(f *os.File) error { return syscall.Fdatasync(int(f.Fd())) }
