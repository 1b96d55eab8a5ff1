// Package vfs is the durable admission plane's filesystem seam: every byte
// the write-ahead log and snapshot machinery touches goes through the FS
// interface, so the same store code runs against the real filesystem (OS),
// a deterministic in-memory filesystem with an explicit crash/durability
// model (Mem), and a fault-injecting wrapper that simulates failing and
// lying disks (Fault).
//
// The durability model Mem implements — and the store is tested against —
// is the conservative POSIX contract:
//
//   - bytes written to a file survive a crash only up to the last
//     successful File.Sync;
//   - a created, renamed or removed directory entry survives a crash only
//     after a successful FS.SyncDir on its directory;
//   - a crash reverts everything else.
package vfs

import "io"

// File is one open file.  Writes append at the end; reads are sequential.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes written bytes to stable storage.  Until it returns
	// successfully, written bytes may vanish in a crash.
	Sync() error
}

// FS is the filesystem surface the durable store needs.  All paths are
// slash-separated; implementations may interpret them relative to a root.
type FS interface {
	// Create creates (or truncates) the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// OpenAppend opens the named existing file so subsequent writes append.
	OpenAppend(name string) (File, error)
	// Remove deletes the named file.  Like every namespace change, the
	// deletion is durable only after SyncDir on the parent directory.
	Remove(name string) error
	// Rename atomically replaces newname with oldname's file.  Durable
	// only after SyncDir on the parent directory.
	Rename(oldname, newname string) error
	// MkdirAll creates the directory (and parents) if absent.
	MkdirAll(dir string) error
	// ReadDir lists the file names (not paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// SyncDir flushes dir's entries (creates, renames, removes) to stable
	// storage.
	SyncDir(dir string) error
}
