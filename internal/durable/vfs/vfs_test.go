package vfs

import (
	"errors"
	"io"
	iofs "io/fs"
	"os"
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
	if _, err := ft.Stat("d/a"); err != nil {
		t.Fatalf("the file a failed remove was meant to leave: %v", err)
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
	if sz, err := fs.Stat(dir + "/sub/b"); err != nil || sz != 9 {
		t.Fatalf("stat = %d, %v", sz, err)
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
	if sz, err := fs.Stat(dir + "/sub/b"); err != nil || sz != 0 {
		t.Fatalf("stat after the rename over it = %d, %v", sz, err)
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
}
