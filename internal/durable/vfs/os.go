package vfs

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
)

// OS is the real filesystem.  The zero value is ready to use; paths are
// passed to the operating system unchanged.
type OS struct{}

// osFile is a bare descriptor: open(2) with O_CLOEXEC, then read(2),
// write(2), fsync(2) and close(2) on it, retried on EINTR and, for
// a write, until every byte is down.  Where os.OpenFile would build an
// *os.File, set its finalizer, fstat(2) the file and consider it for the
// poller, an open here costs nothing on Linux, where the path goes to the
// kernel from the stack (os_linux.go).  Boxed into a File it costs nothing
// more while the descriptor is below 256, which the runtime boxes from its
// cache of small integers.  No finalizer closes a leaked one, and a second
// Close may close a descriptor that has since been reused: the store closes
// every file it opens, once (vfs.Mem holds it to that).  Having no name, a
// file reports a failure as an *os.PathError naming its descriptor ("fd
// 7"); the caller names the file.
type osFile struct{ fd int }

// open is open(2) with O_CLOEXEC, retried on EINTR.  A failure is an
// *os.PathError naming the path, as os.OpenFile's.
func open(path string, flags int, perm uint32) (osFile, error) {
	fd, err := openPath(path, flags|syscall.O_CLOEXEC, perm)
	for err == syscall.EINTR {
		fd, err = openPath(path, flags|syscall.O_CLOEXEC, perm)
	}
	if err != nil {
		return osFile{-1}, &os.PathError{Op: "open", Path: path, Err: err}
	}
	return osFile{fd}, nil
}

func (f osFile) fail(op string, err error) error {
	return &os.PathError{Op: op, Path: "fd " + strconv.Itoa(f.fd), Err: err}
}

// Read reads up to len(p) bytes from the file's offset, and io.EOF at its
// end, as os.File's Read.
func (f osFile) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(f.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, f.fail("read", err)
		case n == 0 && len(p) > 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

// Write writes all of p, in as many write(2)s as the kernel takes.
func (f osFile) Write(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := syscall.Write(f.fd, p[n:])
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return n, f.fail("write", err)
		case m == 0:
			return n, f.fail("write", io.ErrShortWrite)
		}
		n += m
	}
	return n, nil
}

// Close closes the descriptor.  It is not retried on EINTR: Linux has let
// go of the descriptor by then, and another open may already hold its
// number.
func (f osFile) Close() error {
	if err := syscall.Close(f.fd); err != nil {
		return f.fail("close", err)
	}
	return nil
}

// Sync is fsync(2).
func (f osFile) Sync() error {
	if err := f.fsync(); err != nil {
		return f.fail("sync", err)
	}
	return nil
}

func (f osFile) fsync() error {
	err := syscall.Fsync(f.fd)
	for err == syscall.EINTR {
		err = syscall.Fsync(f.fd)
	}
	return err
}

// Create creates or truncates the named file.
func (OS) Create(name string) (File, error) {
	return openFile(name, syscall.O_RDWR|syscall.O_CREAT|syscall.O_TRUNC, 0o644)
}

// Open opens the named file read-only.
func (OS) Open(name string) (File, error) { return openFile(name, syscall.O_RDONLY, 0) }

// OpenAppend opens the named file so writes append.
func (OS) OpenAppend(name string) (File, error) {
	return openFile(name, syscall.O_RDWR|syscall.O_APPEND, 0)
}

// openFile is open as a File: nil, not a File holding no descriptor, when
// it fails.
func openFile(name string, flags int, perm uint32) (File, error) {
	f, err := open(name, flags, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Remove deletes the named file: one unlink(2), retried on EINTR, where
// os.Remove follows a failed unlink with an rmdir(2); the store removes only
// files.  A failure is an *os.PathError, as os.Remove's.
func (OS) Remove(name string) error {
	err := unlinkPath(name)
	for err == syscall.EINTR {
		err = unlinkPath(name)
	}
	if err != nil {
		return &os.PathError{Op: "remove", Path: name, Err: err}
	}
	return nil
}

// Rename atomically replaces newname with oldname: one rename(2), where
// os.Rename first calls Lstat on newname to refuse a directory there, which
// rename(2) refuses itself.  A failure is an *os.LinkError, as os.Rename's.
func (OS) Rename(oldname, newname string) error {
	err := renamePath(oldname, newname)
	for err == syscall.EINTR {
		err = renamePath(oldname, newname)
	}
	if err != nil {
		return &os.LinkError{Op: "rename", Old: oldname, New: newname, Err: err}
	}
	return nil
}

// MkdirAll creates dir and any missing parents.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadDir lists the file names in dir, sorted.
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir fsyncs the directory so entry changes (creates, renames,
// removes) reach stable storage: open(2), fsync(2) and close(2) on a bare
// descriptor, as for a file.  A failure is an *os.PathError naming the
// directory.
func (OS) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	d, err := open(dir, syscall.O_RDONLY|syscall.O_DIRECTORY, 0)
	if err != nil {
		return err
	}
	if err = d.fsync(); err != nil {
		err = &os.PathError{Op: "sync", Path: dir, Err: err}
	}
	if cerr := syscall.Close(d.fd); err == nil && cerr != nil {
		err = &os.PathError{Op: "close", Path: dir, Err: cerr}
	}
	return err
}
