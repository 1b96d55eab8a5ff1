package vfs

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Mem is a deterministic in-memory filesystem with an explicit durability
// model for crash testing:
//
//   - every write lands in the live view immediately;
//   - File.Sync marks the file's current length as synced (and, when the
//     file's directory entry is already durable, persists the content);
//   - FS.SyncDir makes the directory's current entries durable: files
//     created, renamed or removed since the last SyncDir become permanent,
//     each with content up to its synced length;
//   - Crash discards the live view and rebuilds it from the durable view —
//     exactly what a power failure leaves on a disk that honors fsync.
type Mem struct {
	mu      sync.Mutex
	live    map[string]*memNode
	durable map[string][]byte
	dirs    map[string]bool
	crashes int
}

type memNode struct {
	data      []byte
	syncedLen int
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{
		live:    make(map[string]*memNode),
		durable: make(map[string][]byte),
		dirs:    make(map[string]bool),
	}
}

// memFile is one open handle.  It keeps the contract a bare descriptor
// needs kept (vfs.OS): once closed it answers every call with os.ErrClosed,
// a second Close included, where a real descriptor's number may by then
// belong to another file.
type memFile struct {
	m      *Mem
	name   string
	node   *memNode
	pos    int
	closed bool
}

// gone is the error for a call on a closed handle, nil on an open one.
func (f *memFile) gone(op string) error {
	if f.closed {
		return &os.PathError{Op: op, Path: f.name, Err: os.ErrClosed}
	}
	return nil
}

func (f *memFile) Read(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.gone("read"); err != nil {
		return 0, err
	}
	if f.pos >= len(f.node.data) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.pos:])
	f.pos += n
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.gone("write"); err != nil {
		return 0, err
	}
	f.node.data = append(f.node.data, p...)
	return len(p), nil
}

func (f *memFile) Close() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.gone("close"); err != nil {
		return err
	}
	f.closed = true
	return nil
}

func (f *memFile) Sync() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.gone("sync"); err != nil {
		return err
	}
	f.node.syncedLen = len(f.node.data)
	if _, ok := f.m.durable[f.name]; ok {
		f.m.durable[f.name] = append([]byte(nil), f.node.data...)
	}
	return nil
}

// Create creates or truncates the named file in the live view.
func (m *Mem) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := &memNode{}
	m.live[name] = n
	return &memFile{m: m, name: name, node: n}, nil
}

// Open opens the named file for reading.
func (m *Mem) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.live[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memFile{m: m, name: name, node: n}, nil
}

// OpenAppend opens the named existing file; writes append.
func (m *Mem) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.live[name]
	if !ok {
		return nil, &os.PathError{Op: "openappend", Path: name, Err: os.ErrNotExist}
	}
	return &memFile{m: m, name: name, node: n}, nil
}

// Remove deletes the named file from the live view (durable after SyncDir).
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.live[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.live, name)
	return nil
}

// Rename moves oldname to newname in the live view (durable after SyncDir).
func (m *Mem) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.live[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	delete(m.live, oldname)
	m.live[newname] = n
	return nil
}

// MkdirAll records the directory.  Directory creation is modeled as
// immediately durable (the store creates its directory once, at open).
func (m *Mem) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[dir] = true
	return nil
}

// ReadDir lists the live file names directly under dir, sorted.
func (m *Mem) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for p := range m.live {
		if filepath.Dir(p) == dir {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir makes dir's current entries durable: every live file under dir
// persists (with content up to its synced length) and every durable entry
// no longer present under dir is forgotten.
func (m *Mem) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := range m.durable {
		if filepath.Dir(p) == dir {
			if _, ok := m.live[p]; !ok {
				delete(m.durable, p)
			}
		}
	}
	for p, n := range m.live {
		if filepath.Dir(p) == dir {
			m.durable[p] = append([]byte(nil), n.data[:n.syncedLen]...)
		}
	}
	return nil
}

// Crash simulates a power failure: the live view is discarded and rebuilt
// from the durable view.  Unsynced bytes, unsynced creates and renames and
// un-SyncDir'd removes all revert.  Open handles belong to the dead
// process and must not be reused.
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashes++
	m.live = make(map[string]*memNode, len(m.durable))
	for p, data := range m.durable {
		m.live[p] = &memNode{data: append([]byte(nil), data...), syncedLen: len(data)}
	}
}

// Crashes returns how many crashes have been simulated.
func (m *Mem) Crashes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashes
}

// DurableLen returns the number of bytes of name that would survive a
// crash right now (0 with false when the entry itself would not survive).
func (m *Mem) DurableLen(name string) (int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.durable[name]
	return int64(len(data)), ok
}
