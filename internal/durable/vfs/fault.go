package vfs

import "sync"

// Fault wraps an FS with deterministic fault injection for crash testing:
// write, sync and close calls can be made to fail after a configured
// countdown, renames and removes outright, and — nastier — Sync/SyncDir can
// be made to lie, reporting success while doing nothing.  A lying fsync is the failure mode that separates
// durability layers that actually work from ones that merely call fsync:
// the crash-loop differential must detect the resulting loss.
type Fault struct {
	inner FS

	mu sync.Mutex
	// writeErr, when non-nil, is returned by every File.Write once
	// writeLeft successful writes have passed.
	writeErr  error
	writeLeft int
	// syncErr, when non-nil, is returned by every File.Sync once syncLeft
	// successful syncs have passed.
	syncErr  error
	syncLeft int
	// closeErr, when non-nil, is returned by every File.Close of a file
	// opened for writing once closeLeft of them have passed (the file is
	// closed all the same: what failed is the write-back Close reports).
	closeErr  error
	closeLeft int
	// renameErr, when non-nil, fails every Rename; removeErr every Remove.
	renameErr error
	removeErr error
	// syncLie makes File.Sync report success without syncing; syncDirLie
	// does the same for FS.SyncDir (so renames and creates silently stay
	// volatile).
	syncLie    bool
	syncDirLie bool

	counts counts
}

// counts tallies the operations that reached the fault layer (whether they
// were passed through, failed or swallowed by a lie).
type counts struct {
	Writes   int64
	Syncs    int64
	SyncDirs int64
	Renames  int64
	Creates  int64
}

// NewFault wraps inner with fault injection; with no faults armed it is a
// transparent (counting) passthrough.
func NewFault(inner FS) *Fault { return &Fault{inner: inner} }

// SetWriteError arms err on writes: the next `after` writes succeed, every
// write after that fails.  err == nil disarms.
func (f *Fault) SetWriteError(err error, after int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeErr, f.writeLeft = err, after
}

// SetSyncError arms err on file syncs: the next `after` syncs succeed,
// every sync after that fails.  err == nil disarms.
func (f *Fault) SetSyncError(err error, after int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncErr, f.syncLeft = err, after
}

// SetCloseError arms err on closes of files opened for writing: the next
// `after` of them succeed, every one after that reports err.  err == nil
// disarms.
func (f *Fault) SetCloseError(err error, after int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closeErr, f.closeLeft = err, after
}

// SetRenameError arms err on renames.  err == nil disarms.
func (f *Fault) SetRenameError(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.renameErr = err
}

// SetRemoveError arms err on removes.  err == nil disarms.
func (f *Fault) SetRemoveError(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.removeErr = err
}

// SetSyncLie makes File.Sync claim success without syncing.
func (f *Fault) SetSyncLie(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncLie = on
}

// SetSyncDirLie makes FS.SyncDir claim success without syncing the
// directory (creates, renames and removes stay volatile).
func (f *Fault) SetSyncDirLie(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncDirLie = on
}

// Counts returns the operation tallies.
func (f *Fault) Counts() counts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// Crash forwards to the wrapped filesystem's crash simulation (Mem);
// wrapping a filesystem without one, it panics — crashing the real
// filesystem is the SIGKILL harness's job.
func (f *Fault) Crash() {
	f.inner.(interface{ Crash() }).Crash()
}

type faultFile struct {
	f        *Fault
	inner    File
	readOnly bool
}

func (ff faultFile) Read(p []byte) (int, error) { return ff.inner.Read(p) }

func (ff faultFile) Close() error {
	err := ff.inner.Close()
	if ff.readOnly {
		return err
	}
	ff.f.mu.Lock()
	defer ff.f.mu.Unlock()
	if ff.f.closeErr != nil {
		if ff.f.closeLeft <= 0 {
			return ff.f.closeErr
		}
		ff.f.closeLeft--
	}
	return err
}

func (ff faultFile) Write(p []byte) (int, error) {
	ff.f.mu.Lock()
	ff.f.counts.Writes++
	if ff.f.writeErr != nil {
		if ff.f.writeLeft <= 0 {
			err := ff.f.writeErr
			ff.f.mu.Unlock()
			return 0, err
		}
		ff.f.writeLeft--
	}
	ff.f.mu.Unlock()
	return ff.inner.Write(p)
}

func (ff faultFile) Sync() error {
	ff.f.mu.Lock()
	ff.f.counts.Syncs++
	if ff.f.syncErr != nil {
		if ff.f.syncLeft <= 0 {
			err := ff.f.syncErr
			ff.f.mu.Unlock()
			return err
		}
		ff.f.syncLeft--
	}
	lie := ff.f.syncLie
	ff.f.mu.Unlock()
	if lie {
		return nil
	}
	return ff.inner.Sync()
}

// Create forwards to the wrapped filesystem, wrapping the file.
func (f *Fault) Create(name string) (File, error) {
	f.mu.Lock()
	f.counts.Creates++
	f.mu.Unlock()
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return faultFile{f: f, inner: file}, nil
}

// Open forwards to the wrapped filesystem, wrapping the file.
func (f *Fault) Open(name string) (File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return faultFile{f: f, inner: file, readOnly: true}, nil
}

// OpenAppend forwards to the wrapped filesystem, wrapping the file.
func (f *Fault) OpenAppend(name string) (File, error) {
	file, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return faultFile{f: f, inner: file}, nil
}

// Remove fails when a remove error is armed, else forwards.
func (f *Fault) Remove(name string) error {
	f.mu.Lock()
	err := f.removeErr
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// Rename fails when a rename error is armed, else forwards.
func (f *Fault) Rename(oldname, newname string) error {
	f.mu.Lock()
	f.counts.Renames++
	err := f.renameErr
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.inner.Rename(oldname, newname)
}

// MkdirAll forwards to the wrapped filesystem.
func (f *Fault) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

// ReadDir forwards to the wrapped filesystem.
func (f *Fault) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

// SyncDir lies or forwards.
func (f *Fault) SyncDir(dir string) error {
	f.mu.Lock()
	f.counts.SyncDirs++
	lie := f.syncDirLie
	f.mu.Unlock()
	if lie {
		return nil
	}
	return f.inner.SyncDir(dir)
}
