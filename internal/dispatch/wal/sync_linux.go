//go:build linux

package wal

import (
	"os"
	"syscall"
)

// datasync flushes file data without forcing a metadata journal commit.
// Appends land inside the preallocated region, so the inode size is already
// durable and fdatasync is sufficient — and cheaper than fsync: it skips
// the filesystem journal commit, which would queue each group commit (and
// every submitter waiting on it) behind other fsyncs on the filesystem,
// such as the store's artifact writes.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return err
		}
	}
}
