//go:build !riscv64 && !loong64

package vfs

import (
	"strings"
	"syscall"
	"unsafe"
)

// The calls that take a path hand it to the kernel from the stack: openat(2),
// renameat(2) and unlinkat(2) on AT_FDCWD, each path copied NUL-terminated
// into an array of the caller's, where package syscall would copy it to the
// heap for every call.  The pointer is turned into a uintptr in the call
// expression itself, which keeps the array alive and in place for the call.
// (riscv64 and loong64 have renameat2(2) and no renameat(2): os_other.go.)

// pathMax is the kernel's PATH_MAX, the longest path it reads, its NUL
// included.
const pathMax = 4096

// fdcwd is AT_FDCWD (<fcntl.h>; package syscall does not export it), a
// variable so that it converts to a system call's uintptr argument: relative
// paths are taken from the working directory.
var fdcwd = -0x64

// cpath copies path into p, NUL-terminated.  A path of pathMax bytes or more
// is ENAMETOOLONG and one holding a NUL is EINVAL: what the kernel and
// package syscall answer for them.
func cpath(p *[pathMax]byte, path string) error {
	if len(path) >= pathMax {
		return syscall.ENAMETOOLONG
	}
	if strings.IndexByte(path, 0) >= 0 {
		return syscall.EINVAL
	}
	p[copy(p[:], path)] = 0
	return nil
}

// openPath is openat(2) on AT_FDCWD: the descriptor, or the errno.
func openPath(path string, flags int, perm uint32) (int, error) {
	var p [pathMax]byte
	if err := cpath(&p, path); err != nil {
		return -1, err
	}
	fd, _, e := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(fdcwd), uintptr(unsafe.Pointer(&p[0])),
		uintptr(flags|syscall.O_LARGEFILE), uintptr(perm), 0, 0)
	if e != 0 {
		return -1, e
	}
	return int(fd), nil
}

// renamePath is renameat(2) on AT_FDCWD for both paths.
func renamePath(oldname, newname string) error {
	var o, n [pathMax]byte
	if err := cpath(&o, oldname); err != nil {
		return err
	}
	if err := cpath(&n, newname); err != nil {
		return err
	}
	_, _, e := syscall.Syscall6(syscall.SYS_RENAMEAT, uintptr(fdcwd), uintptr(unsafe.Pointer(&o[0])),
		uintptr(fdcwd), uintptr(unsafe.Pointer(&n[0])), 0, 0)
	if e != 0 {
		return e
	}
	return nil
}

// unlinkPath is unlinkat(2) on AT_FDCWD, without AT_REMOVEDIR.
func unlinkPath(path string) error {
	var p [pathMax]byte
	if err := cpath(&p, path); err != nil {
		return err
	}
	_, _, e := syscall.Syscall(syscall.SYS_UNLINKAT, uintptr(fdcwd), uintptr(unsafe.Pointer(&p[0])), 0)
	if e != 0 {
		return e
	}
	return nil
}
