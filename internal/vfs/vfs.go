// Package vfs is the sandboxed per-machine file system that the File
// System Service controls — "the portion of the file system usable by
// the Campus Grid on the machine on which the FSS resides" (paper §4.1).
// It is an in-memory tree of directories holding named files, giving the
// testbed deterministic, portable storage with the same operations the
// FSS exposes: Read, Write, List.
//
// File bytes are immutable. A directory entry points at a Content; Write
// takes ownership of the slice it is given and Read returns the stored
// slice, so neither copies and neither side may modify the bytes
// afterwards — replacing a file installs a new Content. That is what
// lets any number of directories share one Content for one file's bytes:
// the paper's "simply moves the file" (§4.6) is Link, and costs the same
// for 4 KiB and 4 MiB.
package vfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Content is one file's bytes, immutable from the moment it is made. One
// Content may be a file in several directories at once.
type Content struct {
	data []byte
}

// NewContent takes ownership of data: the caller must not modify it
// afterwards.
func NewContent(data []byte) *Content { return &Content{data: data} }

// Bytes returns the content. Callers must not modify it.
func (c *Content) Bytes() []byte { return c.data }

// Len is the content's size in bytes.
func (c *Content) Len() int { return len(c.data) }

// FileInfo describes one file in a directory listing.
type FileInfo struct {
	Name string
	Size int64
}

// FS is one machine's grid-visible file system.
type FS struct {
	mu   sync.RWMutex
	dirs map[string]map[string]*Content
}

// New creates a file system containing only the root directory "/".
func New() *FS {
	return &FS{dirs: map[string]map[string]*Content{"/": {}}}
}

// CleanPath canonicalizes a directory path: leading '/', no trailing
// '/', no empty segments.
func CleanPath(path string) (string, error) {
	if path == "" {
		return "", fmt.Errorf("vfs: empty path")
	}
	segs := strings.Split(strings.Trim(path, "/"), "/")
	if len(segs) == 1 && segs[0] == "" {
		return "/", nil
	}
	for _, s := range segs {
		if s == "" || s == "." || s == ".." {
			return "", fmt.Errorf("vfs: invalid path %q", path)
		}
	}
	return "/" + strings.Join(segs, "/"), nil
}

// Mkdir creates a directory (parents included). Existing directories
// are left untouched.
func (fs *FS) Mkdir(path string) (string, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return "", err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.mkdirLocked(clean)
	return clean, nil
}

func (fs *FS) mkdirLocked(clean string) {
	if _, ok := fs.dirs[clean]; ok {
		return
	}
	// Create parents.
	segs := strings.Split(strings.TrimPrefix(clean, "/"), "/")
	cur := ""
	for _, s := range segs {
		cur = cur + "/" + s
		if _, ok := fs.dirs[cur]; !ok {
			fs.dirs[cur] = make(map[string]*Content)
		}
	}
}

func validateName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("vfs: invalid file name %q", name)
	}
	return nil
}

// Write stores a file in a directory, replacing any existing content. It
// takes ownership of data (see NewContent).
func (fs *FS) Write(dir, name string, data []byte) error {
	return fs.Link(dir, name, NewContent(data))
}

// Link makes c the file name in dir, replacing any existing content: one
// map update under the lock, so a concurrent Read sees the complete old
// or the complete new file. c may already be a file elsewhere.
func (fs *FS) Link(dir, name string, c *Content) error {
	clean, err := CleanPath(dir)
	if err != nil {
		return err
	}
	if err := validateName(name); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.dirs[clean]
	if !ok {
		return fmt.Errorf("vfs: no such directory %q", clean)
	}
	// A map assignment stores its key, and name may point into the
	// message that asked for the file: the directory keeps a copy.
	d[strings.Clone(name)] = c
	return nil
}

// Read returns a file's bytes — the stored slice, not a copy; callers
// must not modify it.
func (fs *FS) Read(dir, name string) ([]byte, error) {
	c, err := fs.Open(dir, name)
	if err != nil {
		return nil, err
	}
	return c.data, nil
}

// Open returns the Content a directory entry points at.
func (fs *FS) Open(dir, name string) (*Content, error) {
	clean, err := CleanPath(dir)
	if err != nil {
		return nil, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	d, ok := fs.dirs[clean]
	if !ok {
		return nil, fmt.Errorf("vfs: no such directory %q", clean)
	}
	c, ok := d[name]
	if !ok {
		return nil, fmt.Errorf("vfs: no such file %q in %q", name, clean)
	}
	return c, nil
}

// Exists reports whether a file exists.
func (fs *FS) Exists(dir, name string) bool {
	clean, err := CleanPath(dir)
	if err != nil {
		return false
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	d, ok := fs.dirs[clean]
	if !ok {
		return false
	}
	_, ok = d[name]
	return ok
}

// List returns the directory's files sorted by name.
func (fs *FS) List(dir string) ([]FileInfo, error) {
	clean, err := CleanPath(dir)
	if err != nil {
		return nil, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	d, ok := fs.dirs[clean]
	if !ok {
		return nil, fmt.Errorf("vfs: no such directory %q", clean)
	}
	out := make([]FileInfo, 0, len(d))
	for name, c := range d {
		out = append(out, FileInfo{Name: name, Size: int64(c.Len())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// RemoveDir deletes a directory and its files. The root cannot be
// removed. Subdirectories are removed too.
func (fs *FS) RemoveDir(path string) error {
	clean, err := CleanPath(path)
	if err != nil {
		return err
	}
	if clean == "/" {
		return fmt.Errorf("vfs: cannot remove root")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.dirs[clean]; !ok {
		return fmt.Errorf("vfs: no such directory %q", clean)
	}
	prefix := clean + "/"
	for d := range fs.dirs {
		if d == clean || strings.HasPrefix(d, prefix) {
			delete(fs.dirs, d)
		}
	}
	return nil
}

// Usage reports total file count and byte count across the file system,
// per directory entry: a Content linked twice counts twice.
func (fs *FS) Usage() (files int, bytes int64) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	for _, d := range fs.dirs {
		for _, c := range d {
			files++
			bytes += int64(c.Len())
		}
	}
	return files, bytes
}
