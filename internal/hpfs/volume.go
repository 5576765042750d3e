package hpfs

import (
	"encoding/binary"
	"strings"

	"repro/internal/vfs"
)

// Volume is the extent format, shared by hpfs and jfs: a table of
// one-sector fnodes, a sector bitmap and extent-mapped data, served as
// vfs.Vnodes.  The format that mounts it supplies the layout its
// superblock names, where metadata sectors go, its Caps (names match
// case-insensitively unless Caps.CaseSensitive) and its own error values.
type Volume struct {
	Dev vfs.BlockDev
	// Meta takes the metadata sectors: the fnode table, the bitmap and
	// directory data.  File data goes straight to Dev.
	Meta Meta
	Caps vfs.Capabilities
	Errs Errors

	FnodeStart  uint64
	FnodeCount  uint64
	BitmapStart uint64
	DataStart   uint64
	Total       uint64
}

// Meta is where a Volume reads and writes its metadata sectors.
type Meta interface {
	ReadMeta(sector uint64) ([]byte, error)
	WriteMeta(sector uint64, b []byte) error
	// Freed is told of a sector the bitmap just released.
	Freed(sector uint64)
}

// Errors are a format's own values for the failures of its Volume.
type Errors struct {
	FnodesFull error // no free fnode
	TooManyEAs error // the EA area is full
	Fragmented error // the file needs a 15th extent
}

// WriteEmpty lays down an empty volume: the superblock sb at sector 0,
// zeroed sectors [fnodeStart, dataStart), then the root directory's
// fnode (index 0).
func WriteEmpty(dev vfs.BlockDev, sb []byte, fnodeStart, dataStart uint64) error {
	if err := dev.WriteSectors(0, sb); err != nil {
		return err
	}
	zero := make([]byte, sectorSize)
	for s := fnodeStart; s < dataStart; s++ {
		if err := dev.WriteSectors(s, zero); err != nil {
			return err
		}
	}
	root := fnode{used: true, dir: true}
	return dev.WriteSectors(fnodeStart, root.encode())
}

// Root returns the root directory's vnode.
func (v *Volume) Root() vfs.Vnode { return &node{v: v, idx: 0} }

// --- fnode codec -------------------------------------------------------------

type extent struct {
	start uint32
	count uint32
}

type ea struct{ k, v string }

type fnode struct {
	used    bool
	dir     bool
	size    uint64
	mtime   uint64
	name    string
	eas     []ea
	extents []extent
}

func (f *fnode) encode() []byte {
	b := make([]byte, sectorSize)
	if f.used {
		b[0] = 1
	}
	if f.dir {
		b[1] = 1
	}
	binary.LittleEndian.PutUint64(b[2:10], f.size)
	binary.LittleEndian.PutUint64(b[10:18], f.mtime)
	b[18] = byte(len(f.name))
	copy(b[19:19+len(f.name)], f.name)
	off := 19 + MaxName // 273
	b[off] = byte(len(f.extents))
	off++
	for _, e := range f.extents {
		binary.LittleEndian.PutUint32(b[off:], e.start)
		binary.LittleEndian.PutUint32(b[off+4:], e.count)
		off += 8
	}
	off = 274 + maxExtents*8 // 386
	b[off] = byte(len(f.eas))
	off++
	for _, e := range f.eas {
		b[off] = byte(len(e.k))
		off++
		copy(b[off:], e.k)
		off += len(e.k)
		b[off] = byte(len(e.v))
		off++
		copy(b[off:], e.v)
		off += len(e.v)
	}
	return b
}

func decodeFnode(b []byte) fnode {
	var f fnode
	f.used = b[0] == 1
	f.dir = b[1] == 1
	f.size = binary.LittleEndian.Uint64(b[2:10])
	f.mtime = binary.LittleEndian.Uint64(b[10:18])
	n := int(b[18])
	f.name = string(b[19 : 19+n])
	off := 19 + MaxName
	ne := int(b[off])
	off++
	for i := 0; i < ne; i++ {
		f.extents = append(f.extents, extent{
			start: binary.LittleEndian.Uint32(b[off:]),
			count: binary.LittleEndian.Uint32(b[off+4:]),
		})
		off += 8
	}
	off = 274 + maxExtents*8
	na := int(b[off])
	off++
	for i := 0; i < na; i++ {
		kl := int(b[off])
		off++
		k := string(b[off : off+kl])
		off += kl
		vl := int(b[off])
		off++
		v := string(b[off : off+vl])
		off += vl
		f.eas = append(f.eas, ea{k, v})
	}
	return f
}

func (v *Volume) readFnode(idx uint32) (fnode, error) {
	b, err := v.Meta.ReadMeta(v.FnodeStart + uint64(idx))
	if err != nil {
		return fnode{}, err
	}
	return decodeFnode(b), nil
}

func (v *Volume) writeFnode(idx uint32, f *fnode) error {
	return v.Meta.WriteMeta(v.FnodeStart+uint64(idx), f.encode())
}

func (v *Volume) allocFnode() (uint32, error) {
	for i := uint32(1); uint64(i) < v.FnodeCount; i++ {
		f, err := v.readFnode(i)
		if err != nil {
			return 0, err
		}
		if !f.used {
			return i, nil
		}
	}
	return 0, v.Errs.FnodesFull
}

// --- bitmap allocation --------------------------------------------------------

func (v *Volume) bitmapGet(sector uint64) (bool, error) {
	b, err := v.Meta.ReadMeta(v.BitmapStart + sector/(sectorSize*8))
	if err != nil {
		return false, err
	}
	i := sector % (sectorSize * 8)
	return b[i/8]&(1<<(i%8)) != 0, nil
}

func (v *Volume) bitmapSet(sector uint64, used bool) error {
	sec := v.BitmapStart + sector/(sectorSize*8)
	b, err := v.Meta.ReadMeta(sec)
	if err != nil {
		return err
	}
	i := sector % (sectorSize * 8)
	if used {
		b[i/8] |= 1 << (i % 8)
	} else {
		b[i/8] &^= 1 << (i % 8)
	}
	return v.Meta.WriteMeta(sec, b)
}

// free releases a sector to the bitmap.
func (v *Volume) free(sector uint64) error {
	if err := v.bitmapSet(sector, false); err != nil {
		return err
	}
	v.Meta.Freed(sector)
	return nil
}

// allocRun finds and marks the first n contiguous free data sectors.
func (v *Volume) allocRun(n uint64) (uint64, error) {
	run := uint64(0)
	runStart := v.DataStart
	for s := v.DataStart; s < v.Total; s++ {
		used, err := v.bitmapGet(s)
		if err != nil {
			return 0, err
		}
		if used {
			run = 0
			runStart = s + 1
			continue
		}
		run++
		if run == n {
			for x := runStart; x <= s; x++ {
				if err := v.bitmapSet(x, true); err != nil {
					return 0, err
				}
			}
			return runStart, nil
		}
	}
	return 0, vfs.ErrNoSpace
}

// --- extent data path -----------------------------------------------------------

// sectorFor maps a file sector index into the extent list.
func (f *fnode) sectorFor(idx uint64) (uint64, bool) {
	for _, e := range f.extents {
		if idx < uint64(e.count) {
			return uint64(e.start) + idx, true
		}
		idx -= uint64(e.count)
	}
	return 0, false
}

// sectors counts allocated sectors.
func (f *fnode) sectors() uint64 {
	var n uint64
	for _, e := range f.extents {
		n += uint64(e.count)
	}
	return n
}

// ensureCapacity grows the extent list to cover sectors [0, want).
func (v *Volume) ensureCapacity(f *fnode, want uint64) error {
	have := f.sectors()
	if have >= want {
		return nil
	}
	need := want - have
	// Try to extend the last extent in place.
	if len(f.extents) > 0 {
		last := &f.extents[len(f.extents)-1]
		nextSec := uint64(last.start) + uint64(last.count)
		for need > 0 && nextSec < v.Total {
			used, err := v.bitmapGet(nextSec)
			if err != nil {
				return err
			}
			if used {
				break
			}
			if err := v.bitmapSet(nextSec, true); err != nil {
				return err
			}
			last.count++
			nextSec++
			need--
		}
	}
	if need == 0 {
		return nil
	}
	if len(f.extents) >= maxExtents {
		return v.Errs.Fragmented
	}
	start, err := v.allocRun(need)
	if err != nil {
		return err
	}
	f.extents = append(f.extents, extent{start: uint32(start), count: uint32(need)})
	return nil
}

// readData reads [off, off+n) from the fnode's extents: directory data
// (meta) through Meta, file data from the device.
func (v *Volume) readData(f *fnode, off, n uint64, meta bool) ([]byte, error) {
	if off >= f.size {
		return nil, nil
	}
	if off+n > f.size {
		n = f.size - off
	}
	out := make([]byte, 0, n)
	buf := make([]byte, sectorSize)
	for n > 0 {
		sec, ok := f.sectorFor(off / sectorSize)
		if !ok {
			return nil, vfs.ErrBadOffset
		}
		b, err := v.readSector(sec, buf, meta)
		if err != nil {
			return nil, err
		}
		within := off % sectorSize
		take := sectorSize - within
		if take > n {
			take = n
		}
		out = append(out, b[within:within+take]...)
		off += take
		n -= take
	}
	return out, nil
}

// readSector reads one sector through Meta, or from the device into buf.
func (v *Volume) readSector(sec uint64, buf []byte, meta bool) ([]byte, error) {
	if meta {
		return v.Meta.ReadMeta(sec)
	}
	return buf, v.Dev.ReadSectors(sec, buf)
}

// writeData writes p at off, growing the file.
func (v *Volume) writeData(f *fnode, off uint64, p []byte, meta bool) error {
	end := off + uint64(len(p))
	if err := v.ensureCapacity(f, (end+sectorSize-1)/sectorSize); err != nil {
		return err
	}
	buf := make([]byte, sectorSize)
	written := uint64(0)
	for written < uint64(len(p)) {
		cur := off + written
		sec, ok := f.sectorFor(cur / sectorSize)
		if !ok {
			return vfs.ErrBadOffset
		}
		b, err := v.readSector(sec, buf, meta)
		if err != nil {
			return err
		}
		c := copy(b[cur%sectorSize:], p[written:])
		if meta {
			err = v.Meta.WriteMeta(sec, b)
		} else {
			err = v.Dev.WriteSectors(sec, b)
		}
		if err != nil {
			return err
		}
		written += uint64(c)
	}
	if end > f.size {
		f.size = end
	}
	f.mtime++
	return nil
}

// grow extends a file to size bytes and zeroes what it gains — the old
// last sector's tail and every newly allocated sector — since those
// sectors may still hold a truncated or removed file's bytes.
func (v *Volume) grow(f *fnode, size uint64) error {
	if size <= f.size {
		return nil
	}
	if err := v.ensureCapacity(f, (size+sectorSize-1)/sectorSize); err != nil {
		return err
	}
	zero := make([]byte, sectorSize)
	for off := f.size; off < size; off += sectorSize - off%sectorSize {
		sec, ok := f.sectorFor(off / sectorSize)
		if !ok {
			return vfs.ErrBadOffset
		}
		buf := zero
		if within := off % sectorSize; within != 0 {
			buf = make([]byte, sectorSize)
			if err := v.Dev.ReadSectors(sec, buf); err != nil {
				return err
			}
			clear(buf[within:])
		}
		if err := v.Dev.WriteSectors(sec, buf); err != nil {
			return err
		}
	}
	f.size = size
	return nil
}

// truncData shrinks the fnode to size bytes, freeing whole sectors.
func (v *Volume) truncData(f *fnode, size uint64) error {
	keep := (size + sectorSize - 1) / sectorSize
	have := f.sectors()
	for have > keep {
		last := &f.extents[len(f.extents)-1]
		if err := v.free(uint64(last.start) + uint64(last.count) - 1); err != nil {
			return err
		}
		last.count--
		if last.count == 0 {
			f.extents = f.extents[:len(f.extents)-1]
		}
		have--
	}
	f.size = size
	return nil
}

// children reads a directory's child fnode indexes.
func (v *Volume) children(f *fnode) ([]uint32, error) {
	data, err := v.readData(f, 0, f.size, true)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, 0, len(data)/4)
	for i := 0; i+4 <= len(data); i += 4 {
		out = append(out, binary.LittleEndian.Uint32(data[i:]))
	}
	return out, nil
}

// --- vnode ---------------------------------------------------------------------

type node struct {
	v   *Volume
	idx uint32
}

var _ vfs.Vnode = (*node)(nil)

// Attr implements vfs.Vnode.
func (n *node) Attr() (vfs.Attr, error) {
	f, err := n.v.readFnode(n.idx)
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

// Lookup implements vfs.Vnode: case-preserving names, matched
// case-insensitively unless the format's Caps say otherwise.
func (n *node) Lookup(name string) (vfs.Vnode, error) {
	f, err := n.v.readFnode(n.idx)
	if err != nil {
		return nil, err
	}
	if !f.dir {
		return nil, vfs.ErrNotDir
	}
	kids, err := n.v.children(&f)
	if err != nil {
		return nil, err
	}
	fold := strings.ToLower
	if n.v.Caps.CaseSensitive {
		fold = func(s string) string { return s }
	}
	want := fold(name)
	for _, k := range kids {
		cf, err := n.v.readFnode(k)
		if err != nil {
			return nil, err
		}
		if cf.used && fold(cf.name) == want {
			return &node{v: n.v, idx: k}, nil
		}
	}
	return nil, vfs.ErrNotFound
}

// Create implements vfs.Vnode.
func (n *node) Create(name string, dir bool) (vfs.Vnode, error) {
	if len(name) > n.v.Caps.MaxNameLen {
		return nil, vfs.ErrNameTooLong
	}
	if name == "" || strings.ContainsRune(name, '/') {
		return nil, vfs.ErrBadName
	}
	if _, err := n.Lookup(name); err == nil {
		return nil, vfs.ErrExists
	}
	f, err := n.v.readFnode(n.idx)
	if err != nil {
		return nil, err
	}
	if !f.dir {
		return nil, vfs.ErrNotDir
	}
	idx, err := n.v.allocFnode()
	if err != nil {
		return nil, err
	}
	nf := fnode{used: true, dir: dir, name: name}
	if err := n.v.writeFnode(idx, &nf); err != nil {
		return nil, err
	}
	// Append to the directory data.
	var rec [4]byte
	binary.LittleEndian.PutUint32(rec[:], idx)
	if err := n.v.writeData(&f, f.size, rec[:], true); err != nil {
		return nil, err
	}
	if err := n.v.writeFnode(n.idx, &f); err != nil {
		return nil, err
	}
	return &node{v: n.v, idx: idx}, nil
}

// Remove implements vfs.Vnode.
func (n *node) Remove(name string) error {
	child, err := n.Lookup(name)
	if err != nil {
		return err
	}
	cn := child.(*node)
	cf, err := n.v.readFnode(cn.idx)
	if err != nil {
		return err
	}
	if cf.dir && cf.size > 0 {
		kids, err := n.v.children(&cf)
		if err != nil {
			return err
		}
		for _, k := range kids {
			kf, err := n.v.readFnode(k)
			if err != nil {
				return err
			}
			if kf.used {
				return vfs.ErrNotEmpty
			}
		}
	}
	// Free data sectors.
	for _, e := range cf.extents {
		for s := uint64(e.start); s < uint64(e.start)+uint64(e.count); s++ {
			if err := n.v.free(s); err != nil {
				return err
			}
		}
	}
	if err := n.v.writeFnode(cn.idx, &fnode{}); err != nil {
		return err
	}
	// Rewrite the parent directory without this child.
	pf, err := n.v.readFnode(n.idx)
	if err != nil {
		return err
	}
	kids, err := n.v.children(&pf)
	if err != nil {
		return err
	}
	var buf []byte
	for _, k := range kids {
		if k != cn.idx {
			buf = binary.LittleEndian.AppendUint32(buf, k)
		}
	}
	if err := n.v.truncData(&pf, 0); err != nil {
		return err
	}
	if len(buf) > 0 {
		if err := n.v.writeData(&pf, 0, buf, true); err != nil {
			return err
		}
	}
	return n.v.writeFnode(n.idx, &pf)
}

// file reads the fnode of a regular file.
func (n *node) file() (fnode, error) {
	f, err := n.v.readFnode(n.idx)
	if err == nil && f.dir {
		err = vfs.ErrIsDir
	}
	return f, err
}

// ReadAt implements vfs.Vnode.
func (n *node) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, vfs.ErrBadOffset
	}
	f, err := n.file()
	if err != nil {
		return 0, err
	}
	data, err := n.v.readData(&f, uint64(off), uint64(len(p)), false)
	if err != nil {
		return 0, err
	}
	return copy(p, data), nil
}

// WriteAt implements vfs.Vnode.  File data goes to the device; the
// fnode (size, extents) is metadata.
func (n *node) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, vfs.ErrBadOffset
	}
	f, err := n.file()
	if err != nil {
		return 0, err
	}
	if err := n.v.grow(&f, uint64(off)); err != nil {
		return 0, err
	}
	if err := n.v.writeData(&f, uint64(off), p, false); err != nil {
		return 0, err
	}
	if err := n.v.writeFnode(n.idx, &f); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Truncate implements vfs.Vnode.
func (n *node) Truncate(size int64) error {
	if size < 0 {
		return vfs.ErrBadOffset
	}
	f, err := n.file()
	if err != nil {
		return err
	}
	if uint64(size) < f.size {
		err = n.v.truncData(&f, uint64(size))
	} else {
		err = n.v.grow(&f, uint64(size))
	}
	if err != nil {
		return err
	}
	return n.v.writeFnode(n.idx, &f)
}

// ReadDir implements vfs.Vnode.
func (n *node) ReadDir() ([]vfs.DirEnt, error) {
	f, err := n.v.readFnode(n.idx)
	if err != nil {
		return nil, err
	}
	if !f.dir {
		return nil, vfs.ErrNotDir
	}
	kids, err := n.v.children(&f)
	if err != nil {
		return nil, err
	}
	var out []vfs.DirEnt
	for _, k := range kids {
		cf, err := n.v.readFnode(k)
		if err != nil {
			return nil, err
		}
		if cf.used {
			out = append(out, vfs.DirEnt{Name: cf.name, Dir: cf.dir, Size: int64(cf.size)})
		}
	}
	return out, nil
}

// eaAreaBytes is the room left in the fnode sector for EAs.
const eaAreaBytes = sectorSize - (274 + maxExtents*8) - 1

// SetEA implements vfs.Vnode.  The fnode sector bounds the EA area, a
// genuine format limit like the real HPFS's 64 KiB EA cap.
func (n *node) SetEA(key, value string) error {
	f, err := n.v.readFnode(n.idx)
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
			return n.v.Errs.TooManyEAs
		}
		updated = append(updated, ea{key, value})
	}
	size := 0
	for _, e := range updated {
		size += 2 + len(e.k) + len(e.v)
	}
	if size > eaAreaBytes {
		return n.v.Errs.TooManyEAs
	}
	f.eas = updated
	return n.v.writeFnode(n.idx, &f)
}

// GetEA implements vfs.Vnode.
func (n *node) GetEA(key string) (string, error) {
	f, err := n.v.readFnode(n.idx)
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
