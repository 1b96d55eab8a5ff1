//go:build !linux || riscv64 || loong64

package vfs

import "syscall"

// Where os_linux.go does not build, the calls that take a path go through
// package syscall, which copies each path to the heap for the kernel.

// openPath is open(2): the descriptor, or the errno.
func openPath(path string, flags int, perm uint32) (int, error) {
	return syscall.Open(path, flags, perm)
}

// renamePath is rename(2).
func renamePath(oldname, newname string) error { return syscall.Rename(oldname, newname) }

// unlinkPath is unlink(2).
func unlinkPath(path string) error { return syscall.Unlink(path) }
