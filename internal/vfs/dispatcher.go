package vfs

import (
	"sort"
	"strings"
	"sync"
)

// Profile selects a personality's file semantics.  The server implements
// the union of all of them, which is exactly the design burden the paper
// describes: "the file server had to implement the union of the TalOS,
// the OS/2 and the UNIX file system semantics".
type Profile uint8

// Personality semantic profiles.
const (
	// ProfileOS2: case-insensitive, case-preserving where the format
	// allows, EAs expected, 8.3 acceptable.
	ProfileOS2 Profile = iota
	// ProfileUNIX: case-sensitive, long names expected, no EAs.
	ProfileUNIX
	// ProfileTalOS: case-sensitive long names plus attributes.
	ProfileTalOS
)

func (p Profile) String() string {
	switch p {
	case ProfileOS2:
		return "OS/2"
	case ProfileUNIX:
		return "UNIX"
	case ProfileTalOS:
		return "TalOS"
	default:
		return "?"
	}
}

// Compromise records a place where the union of semantics could not be
// honored on the physical format — the paper's "inconsistencies and
// implementation compromises".
type Compromise struct {
	Profile Profile
	FS      string
	Op      string
	Name    string
	Detail  string
}

// Dispatcher is the operational core of the file server: the mount table
// forming the single rooted tree, the open-file table, and the semantic
// union layer.  The RPC server and the monolithic baseline both sit on
// top of it, so Table 1 compares transport cost, not file-system code.
type Dispatcher struct {
	mu     sync.Mutex
	mounts map[string]FileSystem
	opens  map[uint32]*openFile
	nextFD uint32

	compromises []Compromise
}

type openFile struct {
	fd      uint32
	v       Vnode
	fs      FileSystem
	write   bool
	profile Profile
	path    string
}

// NewDispatcher creates an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{
		mounts: make(map[string]FileSystem),
		opens:  make(map[uint32]*openFile),
		nextFD: 1,
	}
}

// Mount attaches a file system at path ("/" or "/c", etc.).
func (d *Dispatcher) Mount(path string, fs FileSystem) error {
	if path != "/" && (path == "" || path[0] != '/' || strings.HasSuffix(path, "/")) {
		return ErrNotFound
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.mounts[path]; ok {
		return ErrMountBusy
	}
	d.mounts[path] = fs
	return nil
}

// Unmount detaches the file system at path.
func (d *Dispatcher) Unmount(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.mounts[path]; !ok {
		return ErrNotMounted
	}
	delete(d.mounts, path)
	return nil
}

// Mounts lists mount points, longest first.
func (d *Dispatcher) Mounts() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.mounts))
	for p := range d.mounts {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return len(out[i]) > len(out[j]) })
	return out
}

// resolveMount finds the file system owning path and the residual path.
func (d *Dispatcher) resolveMount(path string) (FileSystem, string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	best := ""
	var fs FileSystem
	for mp, f := range d.mounts {
		if mp == "/" || path == mp || strings.HasPrefix(path, mp+"/") {
			if len(mp) > len(best) || (best == "" && mp == "/") {
				best = mp
				fs = f
			}
		}
	}
	if fs == nil {
		return nil, "", ErrNotMounted
	}
	rest := strings.TrimPrefix(path, best)
	if rest == "" {
		rest = "/"
	}
	if rest[0] != '/' {
		rest = "/" + rest
	}
	return fs, rest, nil
}

// checkName applies the union semantics: the profile's expectations
// against the format's capabilities, recording compromises.
func (d *Dispatcher) checkName(fs FileSystem, profile Profile, op, name string) error {
	caps := fs.Caps()
	if len(name) > caps.MaxNameLen {
		d.recordCompromise(Compromise{
			Profile: profile, FS: fs.FSName(), Op: op, Name: name,
			Detail: "name exceeds format limit",
		})
		return ErrNameTooLong
	}
	if profile == ProfileUNIX || profile == ProfileTalOS {
		if !caps.CaseSensitive && hasCaseVariant(name) {
			// The personality promises case-sensitive names; the
			// format cannot deliver.  We proceed (OS/2-style
			// folding) but record the compromise.
			d.recordCompromise(Compromise{
				Profile: profile, FS: fs.FSName(), Op: op, Name: name,
				Detail: "case-sensitivity not expressible; folded",
			})
		}
	}
	return nil
}

// hasCaseVariant reports whether the name contains letters at all — i.e.
// whether another name differing only in case could exist, which is what
// a case-insensitive format cannot distinguish.
func hasCaseVariant(s string) bool {
	return strings.ToUpper(s) != s || strings.ToLower(s) != s
}

func (d *Dispatcher) recordCompromise(c Compromise) {
	d.mu.Lock()
	d.compromises = append(d.compromises, c)
	d.mu.Unlock()
}

// Compromises returns the semantic compromises observed so far.
func (d *Dispatcher) Compromises() []Compromise {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Compromise(nil), d.compromises...)
}

// walkTo resolves path to (parent vnode, leaf name, fs) — leaf may not
// exist yet.
func (d *Dispatcher) walkTo(path string) (FileSystem, Vnode, string, error) {
	fs, rest, err := d.resolveMount(path)
	if err != nil {
		return nil, nil, "", err
	}
	parts, err := SplitPath(rest)
	if err != nil {
		return nil, nil, "", err
	}
	if len(parts) == 0 {
		return fs, nil, "", nil // the mount root itself
	}
	parent, err := Walk(fs.Root(), parts[:len(parts)-1])
	if err != nil {
		return nil, nil, "", err
	}
	return fs, parent, parts[len(parts)-1], nil
}

// lookupPath resolves path to its vnode.
func (d *Dispatcher) lookupPath(path string) (FileSystem, Vnode, error) {
	fs, parent, leaf, err := d.walkTo(path)
	if err != nil {
		return nil, nil, err
	}
	if parent == nil {
		return fs, fs.Root(), nil
	}
	v, err := parent.Lookup(leaf)
	if err != nil {
		return nil, nil, err
	}
	return fs, v, nil
}

// Open opens (optionally creating) a file and returns the handle.
func (d *Dispatcher) Open(profile Profile, path string, write, create bool) (uint32, error) {
	fs, parent, leaf, err := d.walkTo(path)
	if err != nil {
		return 0, err
	}
	var v Vnode
	if parent == nil {
		v = fs.Root()
	} else {
		v, err = parent.Lookup(leaf)
		if err == ErrNotFound && create {
			if nerr := d.checkName(fs, profile, "create", leaf); nerr != nil {
				return 0, nerr
			}
			v, err = parent.Create(leaf, false)
		}
		if err != nil {
			return 0, err
		}
	}
	a, err := v.Attr()
	if err != nil {
		return 0, err
	}
	if a.Dir && write {
		return 0, ErrIsDir
	}
	d.mu.Lock()
	fd := d.nextFD
	d.nextFD++
	d.opens[fd] = &openFile{fd: fd, v: v, fs: fs, write: write, profile: profile, path: path}
	d.mu.Unlock()
	return fd, nil
}

// Close releases an open file.
func (d *Dispatcher) Close(fd uint32) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.opens[fd]; !ok {
		return ErrBadHandle
	}
	delete(d.opens, fd)
	return nil
}

func (d *Dispatcher) open(fd uint32) (*openFile, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	of, ok := d.opens[fd]
	if !ok {
		return nil, ErrBadHandle
	}
	return of, nil
}

// ReadAt reads from an open file.
func (d *Dispatcher) ReadAt(fd uint32, p []byte, off int64) (int, error) {
	of, err := d.open(fd)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, ErrBadOffset
	}
	return of.v.ReadAt(p, off)
}

// WriteAt writes to an open file.
func (d *Dispatcher) WriteAt(fd uint32, p []byte, off int64) (int, error) {
	of, err := d.open(fd)
	if err != nil {
		return 0, err
	}
	if !of.write {
		return 0, ErrReadOnly
	}
	if off < 0 {
		return 0, ErrBadOffset
	}
	return of.v.WriteAt(p, off)
}

// Truncate resizes an open file.
func (d *Dispatcher) Truncate(fd uint32, size int64) error {
	of, err := d.open(fd)
	if err != nil {
		return err
	}
	if !of.write {
		return ErrReadOnly
	}
	return of.v.Truncate(size)
}

// Stat returns a path's attributes.
func (d *Dispatcher) Stat(path string) (Attr, error) {
	_, v, err := d.lookupPath(path)
	if err != nil {
		return Attr{}, err
	}
	return v.Attr()
}

// FileFS reports which mounted file system an open file belongs to, so
// the server can flush that volume's cache on close.
func (d *Dispatcher) FileFS(fd uint32) (FileSystem, error) {
	of, err := d.open(fd)
	if err != nil {
		return nil, err
	}
	return of.fs, nil
}

// FStat returns an open file's attributes.
func (d *Dispatcher) FStat(fd uint32) (Attr, error) {
	of, err := d.open(fd)
	if err != nil {
		return Attr{}, err
	}
	return of.v.Attr()
}

// Mkdir creates a directory.
func (d *Dispatcher) Mkdir(profile Profile, path string) error {
	fs, parent, leaf, err := d.walkTo(path)
	if err != nil {
		return err
	}
	if parent == nil {
		return ErrExists
	}
	if err := d.checkName(fs, profile, "mkdir", leaf); err != nil {
		return err
	}
	_, err = parent.Create(leaf, true)
	return err
}

// ReadDir lists a directory.
func (d *Dispatcher) ReadDir(path string) ([]DirEnt, error) {
	_, v, err := d.lookupPath(path)
	if err != nil {
		return nil, err
	}
	return v.ReadDir()
}

// Remove deletes a file or empty directory.
func (d *Dispatcher) Remove(path string) error {
	_, parent, leaf, err := d.walkTo(path)
	if err != nil {
		return err
	}
	if parent == nil {
		return ErrNotFound // cannot remove a mount root
	}
	return parent.Remove(leaf)
}

// Rename moves a file within one file system.
func (d *Dispatcher) Rename(profile Profile, from, to string) error {
	ffs, fparent, fleaf, err := d.walkTo(from)
	if err != nil {
		return err
	}
	tfs, tparent, tleaf, err := d.walkTo(to)
	if err != nil {
		return err
	}
	if ffs != tfs {
		return ErrCrossDevice
	}
	if fparent == nil || tparent == nil {
		return ErrNotFound
	}
	if err := d.checkName(tfs, profile, "rename", tleaf); err != nil {
		return err
	}
	src, err := fparent.Lookup(fleaf)
	if err != nil {
		return err
	}
	a, err := src.Attr()
	if err != nil {
		return err
	}
	if a.Dir {
		return ErrUnsupported // directory rename not in the union subset
	}
	data := make([]byte, a.Size)
	if _, err := src.ReadAt(data, 0); err != nil && a.Size > 0 {
		return err
	}
	dst, err := tparent.Create(tleaf, false)
	if err != nil {
		return err
	}
	if len(data) > 0 {
		if _, err := dst.WriteAt(data, 0); err != nil {
			return err
		}
	}
	for k, v := range a.EAs {
		dst.SetEA(k, v)
	}
	return fparent.Remove(fleaf)
}

// SetEA sets an extended attribute through the union layer, recording the
// compromise when the format has no EA storage.
func (d *Dispatcher) SetEA(profile Profile, path, key, value string) error {
	fs, v, err := d.lookupPath(path)
	if err != nil {
		return err
	}
	if !fs.Caps().HasEAs {
		d.recordCompromise(Compromise{
			Profile: profile, FS: fs.FSName(), Op: "setea", Name: path,
			Detail: "format has no EA storage",
		})
		return ErrUnsupported
	}
	return v.SetEA(key, value)
}

// GetEA reads an extended attribute.
func (d *Dispatcher) GetEA(path, key string) (string, error) {
	_, v, err := d.lookupPath(path)
	if err != nil {
		return "", err
	}
	return v.GetEA(key)
}

// OpenCount reports live open files (port-per-open accounting).
func (d *Dispatcher) OpenCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.opens)
}

// mounted snapshots the mounted file systems (for the server's MsgSync).
func (d *Dispatcher) mounted() []FileSystem {
	d.mu.Lock()
	defer d.mu.Unlock()
	fss := make([]FileSystem, 0, len(d.mounts))
	for _, fs := range d.mounts {
		fss = append(fss, fs)
	}
	return fss
}
