package jfs

import (
	"encoding/binary"
	"strings"

	"repro/internal/vfs"
)

// node is a JFS vnode.
type node struct {
	fs  *FS
	idx uint32
}

var _ vfs.Vnode = (*node)(nil)

// Attr implements vfs.Vnode.
func (n *node) Attr() (vfs.Attr, error) {
	f, err := n.fs.readInode(n.idx)
	if err != nil {
		return vfs.Attr{}, err
	}
	a := vfs.Attr{Size: int64(f.size), Dir: f.dir, ModTime: f.mtime}
	if len(f.eas) > 0 {
		a.EAs = make(map[string]string, len(f.eas))
		for _, e := range f.eas {
			a.EAs[e.k] = e.v
		}
	}
	return a, nil
}

func (fs *FS) children(f *inode) ([]uint32, error) {
	data, err := fs.readData(f, 0, f.size, true)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, 0, len(data)/4)
	for i := 0; i+4 <= len(data); i += 4 {
		out = append(out, binary.LittleEndian.Uint32(data[i:]))
	}
	return out, nil
}

// Lookup implements vfs.Vnode with JFS's case-sensitive match.
func (n *node) Lookup(name string) (vfs.Vnode, error) {
	f, err := n.fs.readInode(n.idx)
	if err != nil {
		return nil, err
	}
	if !f.dir {
		return nil, vfs.ErrNotDir
	}
	kids, err := n.fs.children(&f)
	if err != nil {
		return nil, err
	}
	for _, k := range kids {
		cf, err := n.fs.readInode(k)
		if err != nil {
			return nil, err
		}
		if cf.used && cf.name == name {
			return &node{fs: n.fs, idx: k}, nil
		}
	}
	return nil, vfs.ErrNotFound
}

// Create implements vfs.Vnode.  The whole operation is one journaled
// metadata transaction.
func (n *node) Create(name string, dir bool) (vfs.Vnode, error) {
	if len(name) > MaxName {
		return nil, vfs.ErrNameTooLong
	}
	if name == "" || strings.ContainsRune(name, '/') {
		return nil, vfs.ErrBadName
	}
	if _, err := n.Lookup(name); err == nil {
		return nil, vfs.ErrExists
	}
	f, err := n.fs.readInode(n.idx)
	if err != nil {
		return nil, err
	}
	if !f.dir {
		return nil, vfs.ErrNotDir
	}
	idx, err := n.fs.allocInode()
	if err != nil {
		return nil, err
	}
	nf := inode{used: true, dir: dir, name: name}
	if err := n.fs.writeInode(idx, &nf); err != nil {
		return nil, err
	}
	var rec [4]byte
	binary.LittleEndian.PutUint32(rec[:], idx)
	if err := n.fs.writeData(&f, f.size, rec[:], true); err != nil {
		return nil, err
	}
	if err := n.fs.writeInode(n.idx, &f); err != nil {
		return nil, err
	}
	return &node{fs: n.fs, idx: idx}, nil
}

// Remove implements vfs.Vnode.
func (n *node) Remove(name string) error {
	child, err := n.Lookup(name)
	if err != nil {
		return err
	}
	cn := child.(*node)
	cf, err := n.fs.readInode(cn.idx)
	if err != nil {
		return err
	}
	if cf.dir && cf.size > 0 {
		kids, err := n.fs.children(&cf)
		if err != nil {
			return err
		}
		for _, k := range kids {
			kf, err := n.fs.readInode(k)
			if err != nil {
				return err
			}
			if kf.used {
				return vfs.ErrNotEmpty
			}
		}
	}
	for _, e := range cf.extents {
		for s := uint64(e.start); s < uint64(e.start)+uint64(e.count); s++ {
			if err := n.fs.bitmapSet(s, false); err != nil {
				return err
			}
			// A removed directory's journaled data sectors must leave
			// the overlay with them, or a later sync would replay stale
			// directory bytes over whatever reuses the sector.
			n.fs.dropPending(s)
		}
	}
	cf = inode{}
	if err := n.fs.writeInode(cn.idx, &cf); err != nil {
		return err
	}
	pf, err := n.fs.readInode(n.idx)
	if err != nil {
		return err
	}
	kids, err := n.fs.children(&pf)
	if err != nil {
		return err
	}
	var buf []byte
	for _, k := range kids {
		if k == cn.idx {
			continue
		}
		var rec [4]byte
		binary.LittleEndian.PutUint32(rec[:], k)
		buf = append(buf, rec[:]...)
	}
	if err := n.fs.truncData(&pf, 0); err != nil {
		return err
	}
	if len(buf) > 0 {
		if err := n.fs.writeData(&pf, 0, buf, true); err != nil {
			return err
		}
	}
	return n.fs.writeInode(n.idx, &pf)
}

// ReadAt implements vfs.Vnode.
func (n *node) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, vfs.ErrBadOffset
	}
	f, err := n.fs.readInode(n.idx)
	if err != nil {
		return 0, err
	}
	if f.dir {
		return 0, vfs.ErrIsDir
	}
	data, err := n.fs.readData(&f, uint64(off), uint64(len(p)), false)
	if err != nil {
		return 0, err
	}
	return copy(p, data), nil
}

// WriteAt implements vfs.Vnode: data direct, size/extents journaled.
func (n *node) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, vfs.ErrBadOffset
	}
	f, err := n.fs.readInode(n.idx)
	if err != nil {
		return 0, err
	}
	if f.dir {
		return 0, vfs.ErrIsDir
	}
	if err := n.fs.writeData(&f, uint64(off), p, false); err != nil {
		return 0, err
	}
	if err := n.fs.writeInode(n.idx, &f); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Truncate implements vfs.Vnode.
func (n *node) Truncate(size int64) error {
	if size < 0 {
		return vfs.ErrBadOffset
	}
	f, err := n.fs.readInode(n.idx)
	if err != nil {
		return err
	}
	if f.dir {
		return vfs.ErrIsDir
	}
	if uint64(size) < f.size {
		if err := n.fs.truncData(&f, uint64(size)); err != nil {
			return err
		}
	} else {
		f.size = uint64(size)
		if err := n.fs.ensureCapacity(&f, (f.size+sectorSize-1)/sectorSize); err != nil {
			return err
		}
	}
	return n.fs.writeInode(n.idx, &f)
}

// ReadDir implements vfs.Vnode.
func (n *node) ReadDir() ([]vfs.DirEnt, error) {
	f, err := n.fs.readInode(n.idx)
	if err != nil {
		return nil, err
	}
	if !f.dir {
		return nil, vfs.ErrNotDir
	}
	kids, err := n.fs.children(&f)
	if err != nil {
		return nil, err
	}
	var out []vfs.DirEnt
	for _, k := range kids {
		cf, err := n.fs.readInode(k)
		if err != nil {
			return nil, err
		}
		if cf.used {
			out = append(out, vfs.DirEnt{Name: cf.name, Dir: cf.dir, Size: int64(cf.size)})
		}
	}
	return out, nil
}

// eaAreaBytes bounds the EA region within the inode sector.
const eaAreaBytes = sectorSize - (274 + maxExtents*8) - 1

func eaSize(eas []ea) int {
	n := 0
	for _, e := range eas {
		n += 2 + len(e.k) + len(e.v)
	}
	return n
}

// SetEA implements vfs.Vnode.
func (n *node) SetEA(key, value string) error {
	f, err := n.fs.readInode(n.idx)
	if err != nil {
		return err
	}
	updated := append([]ea(nil), f.eas...)
	found := false
	for i := range updated {
		if updated[i].k == key {
			updated[i].v = value
			found = true
			break
		}
	}
	if !found {
		if len(updated) >= maxEA {
			return ErrTooManyEAs
		}
		updated = append(updated, ea{key, value})
	}
	if eaSize(updated) > eaAreaBytes {
		return ErrTooManyEAs
	}
	f.eas = updated
	return n.fs.writeInode(n.idx, &f)
}

// GetEA implements vfs.Vnode.
func (n *node) GetEA(key string) (string, error) {
	f, err := n.fs.readInode(n.idx)
	if err != nil {
		return "", err
	}
	for _, e := range f.eas {
		if e.k == key {
			return e.v, nil
		}
	}
	return "", vfs.ErrNotFound
}
