package vfs

import (
	"slices"
	"strings"
)

// MemFS is a RAM file system with full long-name, case-sensitive, EA
// semantics — the "kitchen sink" format used by TalOS-style mounts and
// tests.  It trivially satisfies the union of all personality semantics,
// unlike the disk formats.
type MemFS struct {
	root *memNode
}

type memNode struct {
	name     string
	dir      bool
	data     []byte
	children map[string]*memNode
	eas      map[string]string
	mtime    uint64
}

// NewMemFS creates an empty memory file system.
func NewMemFS() *MemFS {
	return &MemFS{root: &memNode{name: "/", dir: true, children: make(map[string]*memNode)}}
}

// Root implements FileSystem.
func (m *MemFS) Root() Vnode { return m.root }

// FSName implements FileSystem.
func (m *MemFS) FSName() string { return "memfs" }

// Caps implements FileSystem.
func (m *MemFS) Caps() Capabilities {
	return Capabilities{
		MaxNameLen:    255,
		CaseSensitive: true,
		PreservesCase: true,
		HasEAs:        true,
		LongNames:     true,
	}
}

// Sync implements FileSystem.
func (m *MemFS) Sync() error { return nil }

// Mount implements FileSystem.  MemFS is RAM-rooted: it accepts (and
// ignores) a nil device.
func (m *MemFS) Mount(dev BlockDev) error { return nil }

// Unmount implements FileSystem; the tree stays reachable, there is no
// device to detach.
func (m *MemFS) Unmount() error { return nil }

var _ FileSystem = (*MemFS)(nil)
var _ Vnode = (*memNode)(nil)

func (n *memNode) Attr() (Attr, error) {
	a := Attr{Size: int64(len(n.data)), Dir: n.dir, ModTime: n.mtime}
	if len(n.eas) > 0 {
		a.EAs = make(map[string]string, len(n.eas))
		for k, v := range n.eas {
			a.EAs[k] = v
		}
	}
	return a, nil
}

func (n *memNode) Lookup(name string) (Vnode, error) {
	if !n.dir {
		return nil, ErrNotDir
	}
	c, ok := n.children[name]
	if !ok {
		return nil, ErrNotFound
	}
	return c, nil
}

func (n *memNode) Create(name string, dir bool) (Vnode, error) {
	if name == "" || strings.ContainsRune(name, '/') {
		return nil, ErrBadName
	}
	if !n.dir {
		return nil, ErrNotDir
	}
	if _, ok := n.children[name]; ok {
		return nil, ErrExists
	}
	c := &memNode{name: name, dir: dir}
	if dir {
		c.children = make(map[string]*memNode)
	}
	n.children[name] = c
	return c, nil
}

func (n *memNode) Remove(name string) error {
	if !n.dir {
		return ErrNotDir
	}
	c, ok := n.children[name]
	if !ok {
		return ErrNotFound
	}
	if c.dir && len(c.children) > 0 {
		return ErrNotEmpty
	}
	delete(n.children, name)
	return nil
}

func (n *memNode) ReadAt(p []byte, off int64) (int, error) {
	if n.dir {
		return 0, ErrIsDir
	}
	if off < 0 {
		return 0, ErrBadOffset
	}
	if off >= int64(len(n.data)) {
		return 0, nil
	}
	return copy(p, n.data[off:]), nil
}

func (n *memNode) WriteAt(p []byte, off int64) (int, error) {
	if n.dir {
		return 0, ErrIsDir
	}
	if off < 0 {
		return 0, ErrBadOffset
	}
	end := off + int64(len(p))
	if end > int64(len(n.data)) {
		grown := make([]byte, end)
		copy(grown, n.data)
		n.data = grown
	}
	copy(n.data[off:], p)
	n.mtime++
	return len(p), nil
}

func (n *memNode) Truncate(size int64) error {
	if n.dir {
		return ErrIsDir
	}
	if size < 0 {
		return ErrBadOffset
	}
	if size <= int64(len(n.data)) {
		n.data = n.data[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, n.data)
		n.data = grown
	}
	return nil
}

func (n *memNode) ReadDir() ([]DirEnt, error) {
	if !n.dir {
		return nil, ErrNotDir
	}
	out := make([]DirEnt, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, DirEnt{Name: c.name, Dir: c.dir, Size: int64(len(c.data))})
	}
	slices.SortFunc(out, func(a, b DirEnt) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

func (n *memNode) SetEA(key, value string) error {
	if n.eas == nil {
		n.eas = make(map[string]string)
	}
	n.eas[key] = value
	return nil
}

func (n *memNode) GetEA(key string) (string, error) {
	v, ok := n.eas[key]
	if !ok {
		return "", ErrNotFound
	}
	return v, nil
}
