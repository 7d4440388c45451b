//go:build !linux

package wal

import (
	"errors"
	"os"
)

// Without fallocate a FileLog appends, and every batch pays a full fsync.
func fallocate(*os.File, int64, int64) error { return errors.ErrUnsupported }

func fdatasync(f *os.File) error { return f.Sync() }
