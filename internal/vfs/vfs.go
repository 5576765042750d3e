// Package vfs implements the Workplace OS file server: a personality-
// neutral user-level task providing generic file service over an extended
// vnode architecture that supports multiple physical file systems (FAT,
// an HPFS-like and a JFS-like format live in sibling packages).  Open
// files are managed with a port per open file; clients reach the server
// by RPC; the server integrates with the name service so all file systems
// appear in a single rooted tree.
//
// The server also carries the semantic-union burden the paper describes:
// it must implement the union of the TalOS, OS/2 and UNIX file-system
// semantics, and the physical formats limit what the logical layer can
// promise (FAT's 8.3 names being the canonical example, experiment E8).
package vfs

import (
	"errors"
	"strings"

	"repro/internal/mach"
	"repro/internal/vfs/wire"
)

// Errors returned by the file layer.
var (
	ErrNotFound      = errors.New("vfs: no such file or directory")
	ErrExists        = errors.New("vfs: file exists")
	ErrNotDir        = errors.New("vfs: not a directory")
	ErrIsDir         = errors.New("vfs: is a directory")
	ErrNotEmpty      = errors.New("vfs: directory not empty")
	ErrNameTooLong   = errors.New("vfs: name exceeds the physical format's limit")
	ErrBadName       = errors.New("vfs: name contains characters the physical format forbids")
	ErrNoSpace       = errors.New("vfs: file system full")
	ErrBadHandle     = errors.New("vfs: invalid open-file handle")
	ErrReadOnly      = errors.New("vfs: file opened read-only")
	ErrNotMounted    = errors.New("vfs: no file system mounted at path")
	ErrMountBusy     = errors.New("vfs: mount point in use")
	ErrCrossDevice   = errors.New("vfs: rename across file systems")
	ErrUnsupported   = errors.New("vfs: operation not supported by this file system")
	ErrBadOffset     = errors.New("vfs: negative or overflowing offset")
	ErrSemanticClash = errors.New("vfs: operation valid in one personality's semantics but not expressible here")
)

// Attr describes a file.  The concrete type lives in vfs/wire so the
// typed codec and the server share it without an import cycle.
type Attr = wire.Attr

// DirEnt is a directory entry (see Attr for why it is an alias).
type DirEnt = wire.DirEnt

// Vnode is the extended vnode interface every physical file system
// implements.
type Vnode interface {
	Attr() (Attr, error)
	// Lookup finds a child by name (directories only).  Matching is the
	// physical format's own (FAT and HPFS are case-insensitive, JFS is
	// case-sensitive).
	Lookup(name string) (Vnode, error)
	// Create makes a child file or directory.
	Create(name string, dir bool) (Vnode, error)
	// Remove deletes a child.
	Remove(name string) error
	// ReadAt / WriteAt move file data.
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	// Truncate sets the file size.
	Truncate(size int64) error
	// ReadDir lists a directory.
	ReadDir() ([]DirEnt, error)
	// SetEA sets an extended attribute (ErrUnsupported where the format
	// has no EA storage — FAT).
	SetEA(key, value string) error
	// GetEA reads an extended attribute.
	GetEA(key string) (string, error)
}

// Capabilities describes what a physical format can express — the
// constraint surface that forces the semantic compromises.
type Capabilities struct {
	// MaxNameLen is the longest component name (12 for FAT 8.3 with dot).
	MaxNameLen int
	// CaseSensitive distinguishes names by case (JFS yes, FAT/HPFS no).
	CaseSensitive bool
	// PreservesCase stores the creator's case (HPFS yes, FAT no).
	PreservesCase bool
	// HasEAs reports extended-attribute storage.
	HasEAs bool
	// LongNames reports names beyond 8.3.
	LongNames bool
}

// FileSystem is a physical file system: one object per volume that
// attaches to its backing device with Mount, serves the vnode tree, and
// detaches with Unmount, so the file server — and the buffer cache it
// interposes under every volume — attaches to any format the same way.
// All four in-tree formats (fat, hpfs, jfs, memfs) implement it; each
// package's New returns an unmounted volume.  A volume serves one caller
// at a time and keeps no lock: the file server admits one request at a
// time under the volume's kernel lock (Server), and the native baseline
// drives it from one goroutine.
type FileSystem interface {
	Root() Vnode
	FSName() string
	Caps() Capabilities
	// Sync flushes metadata (journaled formats commit here).
	Sync() error
	// Mount attaches the volume to its backing device and reads the
	// on-disk structure.  RAM-rooted formats accept a nil device.
	// Mounting an already-mounted volume fails with ErrMountBusy.
	Mount(dev BlockDev) error
	// Unmount flushes the volume and detaches the device; subsequent
	// device-backed operations fail with ErrNotMounted.
	Unmount() error
}

// BlockDev is the device interface the physical formats sit on; it is
// satisfied by *drivers.Disk and by RAMDisk for unit tests.
type BlockDev interface {
	ReadSectors(sector uint64, buf []byte) error
	WriteSectors(sector uint64, data []byte) error
	Sectors() uint64
}

// CachedDev is a BlockDev with write-behind: writes may be deferred, so
// the holder must Sync to make them durable and to learn about device
// errors the deferral hid.  internal/bcache implements it; the file
// server flushes cached devices on file close and MsgSync.
type CachedDev interface {
	BlockDev
	// Sync flushes all dirty blocks to the underlying device.  On error
	// the unwritten blocks stay dirty, so a later Sync can retry.
	Sync() error
}

// SectorRun is one contiguous run of sectors bound for the device.
type SectorRun struct {
	Sector uint64
	Data   []byte
}

// BatchDev is a BlockDev whose driver can commit several discontiguous
// sector runs in one vectored call — one RPC crossing for the whole
// write-behind flush instead of one per run.  The write count reports
// how many runs reached the device before the first error, so a caller
// can keep exactly the unwritten runs dirty for retry.  Only drivers
// booted with batching enabled advertise this interface; the buffer
// cache type-asserts for it, so a features-off boot never takes the
// vectored path.
type BatchDev interface {
	BlockDev
	WriteSectorsV(runs []SectorRun) (int, error)
}

// RequestDev is a BlockDev that can be told whose work it is doing.  The
// message a file-server handler serves is the request's whole context and
// the interfaces above have no parameter for it, so the handler declares
// it: Begin — "this device stack now works for req" — before it enters
// the file system, End (deferred) when it leaves.  In between the stack
// attributes what it does to req; driven with nothing declared, it
// attributes nothing.  Begin does not wait: the file server calls it
// holding the volume's kernel lock, which admits one request at a time.
type RequestDev interface {
	BlockDev
	Begin(req *mach.Message)
	End()
}

// deadDev is the device of an unmounted volume: every access fails.
type deadDev struct{}

func (deadDev) ReadSectors(uint64, []byte) error  { return ErrNotMounted }
func (deadDev) WriteSectors(uint64, []byte) error { return ErrNotMounted }
func (deadDev) Sectors() uint64                   { return 0 }

// DeadDev is what FileSystem.Unmount implementations install in place of
// the real device, turning use-after-unmount into clean ErrNotMounted
// failures instead of nil dereferences.
var DeadDev BlockDev = deadDev{}

// SplitPath turns /a/b/c into components, validating the shape.
func SplitPath(p string) ([]string, error) {
	if p == "" || p[0] != '/' {
		return nil, ErrNotFound
	}
	if p == "/" {
		return nil, nil
	}
	parts := strings.Split(strings.TrimSuffix(p[1:], "/"), "/")
	for _, c := range parts {
		if c == "" || c == "." || c == ".." {
			return nil, ErrNotFound
		}
	}
	return parts, nil
}

// Walk resolves a path of components from a root vnode.
func Walk(root Vnode, parts []string) (Vnode, error) {
	v := root
	for _, c := range parts {
		next, err := v.Lookup(c)
		if err != nil {
			return nil, err
		}
		v = next
	}
	return v, nil
}
