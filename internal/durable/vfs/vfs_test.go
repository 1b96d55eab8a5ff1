package vfs

import (
	"bytes"
	"errors"
	"io"
	iofs "io/fs"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
)

func writeStr(t *testing.T, f File, s string) {
	t.Helper()
	if _, err := f.Write([]byte(s)); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func readAll(t *testing.T, fs FS, name string) string {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return string(data)
}

// TestMemUnsyncedWritesVanish pins the core durability model: bytes
// survive a crash only up to the last Sync, and a file's directory entry
// survives only after SyncDir.
func TestMemUnsyncedWritesVanish(t *testing.T) {
	m := NewMem()
	f, err := m.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	writeStr(t, f, "hello")

	// Neither synced nor SyncDir'd: the crash erases the file entirely.
	m.Crash()
	if _, err := m.Open("d/a"); err == nil {
		t.Fatal("unsynced, un-SyncDir'd file survived a crash")
	}

	// Synced content but no SyncDir: the entry itself is still volatile.
	f, _ = m.Create("d/a")
	writeStr(t, f, "hello")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := m.Open("d/a"); err == nil {
		t.Fatal("file with un-SyncDir'd entry survived a crash")
	}

	// Sync + SyncDir: durable up to the synced length.
	f, _ = m.Create("d/a")
	writeStr(t, f, "hello")
	f.Sync()
	if err := m.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	writeStr(t, f, " world") // unsynced tail
	m.Crash()
	if got := readAll(t, m, "d/a"); got != "hello" {
		t.Fatalf("after crash got %q, want synced prefix %q", got, "hello")
	}
}

// TestMemSyncAfterDurableEntry: once the entry is durable, later Syncs
// persist content without another SyncDir (the append-only WAL pattern).
func TestMemSyncAfterDurableEntry(t *testing.T) {
	m := NewMem()
	f, _ := m.Create("d/wal")
	writeStr(t, f, "aa")
	f.Sync()
	m.SyncDir("d")

	writeStr(t, f, "bb")
	f.Sync() // entry already durable: content persists directly
	m.Crash()
	if got := readAll(t, m, "d/wal"); got != "aabb" {
		t.Fatalf("after crash got %q, want %q", got, "aabb")
	}
}

// TestMemRenameAndRemoveDurability: namespace changes are volatile until
// SyncDir.
func TestMemRenameAndRemoveDurability(t *testing.T) {
	m := NewMem()
	f, _ := m.Create("d/tmp")
	writeStr(t, f, "snap")
	f.Sync()
	m.SyncDir("d")

	// Rename without SyncDir reverts on crash.
	if err := m.Rename("d/tmp", "d/final"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := m.Open("d/final"); err == nil {
		t.Fatal("un-SyncDir'd rename survived a crash")
	}
	if got := readAll(t, m, "d/tmp"); got != "snap" {
		t.Fatalf("rename source lost: got %q", got)
	}

	// Rename + SyncDir sticks; the old name is gone.
	m.Rename("d/tmp", "d/final")
	m.SyncDir("d")
	m.Crash()
	if got := readAll(t, m, "d/final"); got != "snap" {
		t.Fatalf("renamed file: got %q want %q", got, "snap")
	}
	if _, err := m.Open("d/tmp"); err == nil {
		t.Fatal("rename source still present after durable rename")
	}

	// Remove without SyncDir resurrects on crash; with SyncDir it sticks.
	m.Remove("d/final")
	m.Crash()
	if _, err := m.Open("d/final"); err != nil {
		t.Fatal("un-SyncDir'd remove survived a crash")
	}
	m.Remove("d/final")
	m.SyncDir("d")
	m.Crash()
	if _, err := m.Open("d/final"); err == nil {
		t.Fatal("durably removed file came back")
	}
	if m.Crashes() != 4 {
		t.Fatalf("crashes = %d, want 4", m.Crashes())
	}
}

// TestFaultInjection pins the countdown and lie modes.
func TestFaultInjection(t *testing.T) {
	boom := errors.New("boom")
	ft := NewFault(NewMem())

	f, err := ft.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	ft.SetWriteError(boom, 2)
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("x")); err != nil {
			t.Fatalf("write %d should pass the countdown: %v", i, err)
		}
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("write after countdown: got %v, want boom", err)
	}
	ft.SetWriteError(nil, 0)

	ft.SetSyncError(boom, 0)
	if err := f.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync: got %v, want boom", err)
	}
	ft.SetSyncError(nil, 0)

	ft.SetRenameError(boom)
	if err := ft.Rename("d/a", "d/b"); !errors.Is(err, boom) {
		t.Fatalf("rename: got %v, want boom", err)
	}
	ft.SetRenameError(nil)

	// A failed remove leaves the file; a failed close of a written file
	// reports the error once its countdown has passed, and one opened for
	// reading never does.
	ft.SetRemoveError(boom)
	if err := ft.Remove("d/a"); !errors.Is(err, boom) {
		t.Fatalf("remove: got %v, want boom", err)
	}
	ft.SetRemoveError(nil)
	if got := readAll(t, ft, "d/a"); got != "xx" {
		t.Fatalf("the file a failed remove was meant to leave holds %q, want %q", got, "xx")
	}
	ft.SetCloseError(boom, 1)
	rd, err := ft.Open("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(); err != nil {
		t.Fatalf("close of a file opened for reading: %v", err)
	}
	for i, want := range []error{nil, boom} {
		ap, err := ft.OpenAppend("d/a")
		if err != nil {
			t.Fatal(err)
		}
		if err := ap.Close(); !errors.Is(err, want) {
			t.Fatalf("close %d of a file opened for writing: got %v, want %v", i, err, want)
		}
	}
	ft.SetCloseError(nil, 0)

	// A lying fsync claims success but the bytes stay volatile.
	ft.SetSyncLie(true)
	if err := f.Sync(); err != nil {
		t.Fatalf("lying sync should report success, got %v", err)
	}
	ft.SetSyncDirLie(true)
	if err := ft.SyncDir("d"); err != nil {
		t.Fatalf("lying syncdir should report success, got %v", err)
	}
	ft.Crash()
	if _, err := ft.Open("d/a"); err == nil {
		t.Fatal("file survived crash despite lying sync+syncdir")
	}

	c := ft.Counts()
	if c.Writes != 3 || c.Syncs != 2 || c.SyncDirs != 1 || c.Renames != 1 || c.Creates != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

// A closed Mem handle answers os.ErrClosed to every call, a second Close
// included: the contract a bare descriptor needs kept, since its number may
// by then be another file's.
func TestMemClosedHandle(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(File) error
	}{
		{"Close", func(f File) error { return f.Close() }},
		{"Read", func(f File) error { _, err := f.Read(make([]byte, 1)); return err }},
		{"Write", func(f File) error { _, err := f.Write([]byte("x")); return err }},
		{"Sync", func(f File) error { return f.Sync() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMem()
			f, err := m.Create("d/a")
			if err != nil {
				t.Fatal(err)
			}
			writeStr(t, f, "data")
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			var pe *os.PathError
			if err := tc.call(f); !errors.Is(err, os.ErrClosed) || !errors.As(err, &pe) || pe.Path != "d/a" {
				t.Fatalf("%s on a closed handle: %v", tc.name, err)
			}
			if got := readAll(t, m, "d/a"); got != "data" {
				t.Fatalf("%s on a closed handle left %q", tc.name, got)
			}
		})
	}
}

// TestOSRoundTrip sanity-checks the real-filesystem implementation.
func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var fs OS
	if err := fs.MkdirAll(dir + "/sub"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(dir + "/sub/a")
	if err != nil {
		t.Fatal(err)
	}
	writeStr(t, f, "data")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.SyncDir(dir + "/sub"); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fs, dir+"/sub/a"); got != "data" {
		t.Fatalf("got %q", got)
	}
	ap, err := fs.OpenAppend(dir + "/sub/a")
	if err != nil {
		t.Fatal(err)
	}
	writeStr(t, ap, "+more")
	ap.Close()
	if got := readAll(t, fs, dir+"/sub/a"); got != "data+more" {
		t.Fatalf("append: got %q", got)
	}
	if err := fs.Rename(dir+"/sub/a", dir+"/sub/b"); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir(dir + "/sub")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "b" {
		t.Fatalf("readdir = %v", names)
	}
	if got := readAll(t, fs, dir+"/sub/b"); got != "data+more" {
		t.Fatalf("renamed: got %q", got)
	}
	// A rename replaces the file at its target, and a failed one is an
	// *os.LinkError naming both paths, as os.Rename's are.
	if c, err := fs.Create(dir + "/sub/c"); err != nil {
		t.Fatal(err)
	} else {
		c.Close()
	}
	if err := fs.Rename(dir+"/sub/c", dir+"/sub/b"); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fs, dir+"/sub/b"); got != "" {
		t.Fatalf("after the rename over it: got %q", got)
	}
	err = fs.Rename(dir+"/sub/c", dir+"/sub/d")
	var le *os.LinkError
	if !errors.As(err, &le) || le.Op != "rename" || le.Old != dir+"/sub/c" || le.New != dir+"/sub/d" || !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("rename of a missing file: %#v", err)
	}
	if err := fs.Rename(dir+"/sub/b", dir+"/sub"); err == nil {
		t.Fatal("a rename over a directory succeeded")
	}
	if err := fs.Remove(dir + "/sub/b"); err != nil {
		t.Fatal(err)
	}
	// SyncDir keeps os.Open's error contract though it opens no os.File:
	// an *os.PathError naming the directory, wrapping what open(2) said.
	var pe *os.PathError
	err = fs.SyncDir(dir + "/missing")
	if !errors.As(err, &pe) || pe.Op != "open" || pe.Path != dir+"/missing" || !errors.Is(err, syscall.ENOENT) || !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("sync of a missing directory: %#v", err)
	}
	if c, err := fs.Create(dir + "/sub/e"); err != nil {
		t.Fatal(err)
	} else {
		c.Close()
	}
	err = fs.SyncDir(dir + "/sub/e")
	if !errors.As(err, &pe) || pe.Path != dir+"/sub/e" || !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("sync of a regular file: %#v", err)
	}
	if err := fs.SyncDir(dir + "/sub"); err != nil {
		t.Fatalf("sync of a directory with a fresh entry: %v", err)
	}

	// A file is a bare descriptor held to what the store relied on from an
	// *os.File: Read ends in io.EOF, a large Write lands whole, and every
	// failure is an *os.PathError.
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	f, err = fs.Create(dir + "/big")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write(big); n != len(big) || err != nil {
		t.Fatalf("1 MiB write: %d bytes, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := fs.Open(dir + "/big")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("read back %d bytes, %v", len(got), err)
	}
	if n, err := r.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Fatalf("read at the end: %d, %v; want 0, io.EOF", n, err)
	}
	if n, err := r.Read(nil); n != 0 || err != nil {
		t.Fatalf("empty read: %d, %v; want 0, nil", n, err)
	}

	// Every failure names what failed: the path for an open, the descriptor
	// for a call on it (-1 is never an open descriptor).
	bad := osFile{-1}
	_, rerr := bad.Read(make([]byte, 1))
	_, werr := bad.Write([]byte("x"))
	_, cerr := fs.Create(dir + "/missing/a")
	_, oerr := fs.Open(dir + "/missing")
	_, aerr := fs.OpenAppend(dir + "/missing")
	for _, tc := range []struct {
		op    string
		err   error
		path  string
		errno syscall.Errno
	}{
		{"read", rerr, "fd -1", syscall.EBADF},
		{"write", werr, "fd -1", syscall.EBADF},
		{"sync", bad.Sync(), "fd -1", syscall.EBADF},
		{"close", bad.Close(), "fd -1", syscall.EBADF},
		{"open", cerr, dir + "/missing/a", syscall.ENOENT},
		{"open", oerr, dir + "/missing", syscall.ENOENT},
		{"open", aerr, dir + "/missing", syscall.ENOENT},
	} {
		var pe *os.PathError
		if !errors.As(tc.err, &pe) || pe.Op != tc.op || pe.Path != tc.path || !errors.Is(tc.err, tc.errno) {
			t.Errorf("%s: %#v, want an *os.PathError %q on %q wrapping %v", tc.op, tc.err, tc.op, tc.path, tc.errno)
		}
	}

	// A path goes to the kernel whole up to PATH_MAX less its NUL: 4095
	// bytes in a missing directory is ENOENT, 4096 ENAMETOOLONG, and a NUL
	// anywhere EINVAL, as package syscall and the kernel answered them, in
	// the error each call returned (op open, rename or remove).
	long := func(n int) string {
		p := dir + "/missing"
		for n-len(p) > 201 {
			p += "/" + strings.Repeat("x", 100)
		}
		return p + "/" + strings.Repeat("y", n-len(p)-1)
	}
	short, atMax, overMax, nul := dir+"/sub/e", long(4095), long(4096), dir+"/sub/e\x00f"
	if len(atMax) != 4095 || len(overMax) != 4096 {
		t.Fatalf("long paths of %d and %d bytes", len(atMax), len(overMax))
	}
	for _, tc := range []struct {
		path  string
		errno syscall.Errno
	}{
		{atMax, syscall.ENOENT},
		{overMax, syscall.ENAMETOOLONG},
		{nul, syscall.EINVAL},
	} {
		_, cerr := fs.Create(tc.path)
		var pe *os.PathError
		if !errors.As(cerr, &pe) || pe.Op != "open" || pe.Path != tc.path || !errors.Is(cerr, tc.errno) {
			t.Errorf("create of %d bytes: %#v, want an *os.PathError \"open\" wrapping %v", len(tc.path), cerr, tc.errno)
		}
		rerr := fs.Remove(tc.path)
		if !errors.As(rerr, &pe) || pe.Op != "remove" || pe.Path != tc.path || !errors.Is(rerr, tc.errno) {
			t.Errorf("remove of %d bytes: %#v, want an *os.PathError \"remove\" wrapping %v", len(tc.path), rerr, tc.errno)
		}
		for _, names := range [][2]string{{tc.path, short}, {short, tc.path}} {
			err := fs.Rename(names[0], names[1])
			var le *os.LinkError
			if !errors.As(err, &le) || le.Op != "rename" || le.Old != names[0] || le.New != names[1] || !errors.Is(err, tc.errno) {
				t.Errorf("rename %d to %d bytes: %#v, want an *os.LinkError \"rename\" wrapping %v", len(names[0]), len(names[1]), err, tc.errno)
			}
		}
	}
	if got := readAll(t, fs, short); got != "" {
		t.Fatalf("the file the failed renames named holds %q", got)
	}

	// Where the paths go to the kernel from the stack (os_linux.go), no call
	// that takes one allocates when it succeeds: a descriptor below 256
	// boxes into a File for nothing, and only a failure makes its error.
	if runtime.GOOS != "linux" || runtime.GOARCH == "riscv64" || runtime.GOARCH == "loong64" {
		return
	}
	a, b, sub := dir+"/sub/x", dir+"/sub/y", dir+"/sub"
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Create+Close", func() error {
			f, err := fs.Create(a)
			if err != nil {
				return err
			}
			return f.Close()
		}},
		{"Rename", func() error {
			if err := fs.Rename(a, b); err != nil {
				return err
			}
			return fs.Rename(b, a)
		}},
		{"Create+Close+Remove", func() error {
			f, err := fs.Create(a)
			if err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			return fs.Remove(a)
		}},
		{"SyncDir", func() error { return fs.SyncDir(sub) }},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}); n != 0 {
			t.Errorf("%s allocates %v objects a call, want none", tc.name, n)
		}
	}
}
