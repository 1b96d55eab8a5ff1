package vfs

import (
	"os"
	"path/filepath"
	"sort"
	"syscall"
)

// OS is the real filesystem.  The zero value is ready to use; paths are
// passed to the operating system unchanged.
type OS struct{}

type osFile struct{ f *os.File }

func (o osFile) Read(p []byte) (int, error)              { return o.f.Read(p) }
func (o osFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }
func (o osFile) Write(p []byte) (int, error)             { return o.f.Write(p) }
func (o osFile) Close() error                            { return o.f.Close() }
func (o osFile) Sync() error                             { return o.f.Sync() }

// Create creates or truncates the named file.
func (OS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open opens the named file read-only.
func (OS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// OpenAppend opens the named file so writes append.
func (OS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove deletes the named file.
func (OS) Remove(name string) error { return os.Remove(name) }

// Rename atomically replaces newname with oldname: one rename(2), where
// os.Rename first calls Lstat on newname to refuse a directory there, which
// rename(2) refuses itself.  A failure is an *os.LinkError, as os.Rename's.
func (OS) Rename(oldname, newname string) error {
	err := syscall.Rename(oldname, newname)
	for err == syscall.EINTR {
		err = syscall.Rename(oldname, newname)
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

// Stat returns the named file's size.
func (OS) Stat(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// SyncDir fsyncs the directory so entry changes (creates, renames,
// removes) reach stable storage: open(2), fsync(2) and close(2) on a bare
// descriptor, where os.Open would build an *os.File, set its finalizer and
// register the directory with the poller only for it to be closed again.
// A failure is an *os.PathError, as os.Open's and File.Sync's.
func (OS) SyncDir(dir string) error {
	const flags = syscall.O_RDONLY | syscall.O_DIRECTORY | syscall.O_CLOEXEC
	dir = filepath.Clean(dir)
	fd, err := syscall.Open(dir, flags, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(dir, flags, 0)
	}
	if err != nil {
		return &os.PathError{Op: "open", Path: dir, Err: err}
	}
	err = syscall.Fsync(fd)
	for err == syscall.EINTR {
		err = syscall.Fsync(fd)
	}
	if err != nil {
		err = &os.PathError{Op: "sync", Path: dir, Err: err}
	}
	if cerr := syscall.Close(fd); err == nil && cerr != nil {
		err = &os.PathError{Op: "close", Path: dir, Err: cerr}
	}
	return err
}
