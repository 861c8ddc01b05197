package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"o2k/internal/runner/diskcache"
)

type fsOpKind uint8

const (
	fsRead fsOpKind = iota
	fsWrite
	fsRename
)

// fsOp is one timed filesystem call on a cache entry.
type fsOp struct {
	kind  fsOpKind
	key   string // cell key the path belongs to
	start time.Time
	dur   time.Duration
	bytes int
}

// timingFS wraps the cache's filesystem and records a span for every read,
// write and rename. Every call returns the underlying result unchanged, so
// the cache's degradation logic sees exactly what it would without the
// wrapper.
type timingFS struct {
	diskcache.FS

	mu  sync.Mutex
	ops []fsOp
}

func newTimingFS(inner diskcache.FS) *timingFS { return &timingFS{FS: inner} }

func (f *timingFS) record(kind fsOpKind, path string, start time.Time, n int) {
	op := fsOp{kind: kind, key: entryKey(path), start: start, dur: time.Since(start), bytes: n}
	f.mu.Lock()
	f.ops = append(f.ops, op)
	f.mu.Unlock()
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	t0 := time.Now()
	data, err := f.FS.ReadFile(name)
	f.record(fsRead, name, t0, len(data))
	return data, err
}

func (f *timingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	t0 := time.Now()
	err := f.FS.WriteFile(name, data, perm)
	f.record(fsWrite, name, t0, len(data))
	return err
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := f.FS.Rename(oldpath, newpath)
	f.record(fsRename, newpath, t0, 0)
	return err
}

// snapshot returns the recorded calls.
func (f *timingFS) snapshot() []fsOp {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fsOp(nil), f.ops...)
}

// entryKey extracts the cell key from an entry path: entries are
// <dir>/<key[:2]>/<key>.cell and their temp files <key>.cell.tmp.<pid>.<seq>.
func entryKey(path string) string {
	base := filepath.Base(path)
	if i := strings.IndexByte(base, '.'); i >= 0 {
		return base[:i]
	}
	return base
}
