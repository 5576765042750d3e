// Package registry implements the registry shared service that Figure 1
// places alongside the file server and networking: a personality-neutral
// configuration store (the generalization of OS/2's .INI profiles and
// CONFIG.SYS) served over RPC, with application/key/value structure and
// persistence through the file server.
package registry

import (
	"encoding/binary"
	"errors"
	"sort"
	"strings"
	"sync"

	"repro/internal/cpu"
	"repro/internal/kstat"
	"repro/internal/mach"
	"repro/internal/vfs"
)

// Errors returned by the registry.
var (
	ErrNoApp    = errors.New("registry: no such application")
	ErrNoKey    = errors.New("registry: no such key")
	ErrBadName  = errors.New("registry: empty or malformed name")
	ErrTooLarge = errors.New("registry: value too large")
	ErrCorrupt  = errors.New("registry: profile file corrupt")
)

// MaxValue bounds one stored value (it must fit an inline RPC body
// together with the app and key names).
const MaxValue = 2048

// Message IDs of the registry protocol.
const (
	msgSet mach.MsgID = 0x0E00 + iota
	msgGet
	msgDelete
	msgEnumApps
	msgEnumKeys
	msgFlush
)

// Server is the registry service task.
type Server struct {
	k    *mach.Kernel
	path cpu.Region
	task *mach.Task
	port mach.PortName

	mu   sync.Mutex
	apps map[string]map[string]string

	// ioLock serializes profile-file I/O across its file-server calls:
	// s.fs rides one bound thread (io), told by the lock's holder which
	// request it calls the file server for, and two interleaved flushes
	// would corrupt the profile on disk.
	ioLock *mach.Lock
	io     *mach.Thread
	fs     *vfs.Client // persistence; may be nil
	file   string
}

// NewServer starts the registry with pool service threads (pool <= 1
// keeps the classic single server loop).  If files is non-nil the
// contents persist to profilePath through the file server and are
// reloaded at start.
//
// Handler concurrency contract: with pool > 1 handle runs on up to pool
// threads at once.  The store (apps) is guarded by s.mu; profile
// persistence (flush/load and the underlying vfs.Client) is serialized by
// s.ioLock.
func NewServer(k *mach.Kernel, files *vfs.Server, profilePath string, pool int) (*Server, error) {
	s := &Server{
		k:      k,
		path:   k.Layout().PlaceInstr("registry_op", 700),
		task:   k.NewTask("registry"),
		apps:   make(map[string]map[string]string),
		ioLock: mach.NewLock("profile-io"),
		file:   profilePath,
	}
	port, err := s.task.AllocatePort()
	if err != nil {
		return nil, err
	}
	s.port = port
	if files != nil {
		s.io, err = s.task.NewBoundThread("profile-io")
		if err != nil {
			return nil, err
		}
		s.fs, err = files.NewClient(s.io, vfs.ProfileOS2)
		if err != nil {
			return nil, err
		}
		if err := s.load(); err != nil && !errors.Is(err, vfs.ErrNotFound) {
			return nil, err
		}
	}
	if _, err := s.task.ServePool("service", port, pool, s.handle); err != nil {
		return nil, err
	}
	return s, nil
}

// Task returns the registry task.
func (s *Server) Task() *mach.Task { return s.task }

// --- wire format -------------------------------------------------------------

func packStrs(fields ...string) []byte {
	var out []byte
	for _, f := range fields {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(f)))
		out = append(out, l[:]...)
		out = append(out, f...)
	}
	return out
}

func unpackStrs(b []byte, n int) ([]string, bool) {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, false
		}
		l := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < l {
			return nil, false
		}
		out = append(out, string(b[:l]))
		b = b[l:]
	}
	return out, true
}

var wireErrs = []error{ErrNoApp, ErrNoKey, ErrBadName, ErrTooLarge}

func toWire(err error) *mach.Message {
	return &mach.Message{ID: 1, Body: []byte(err.Error())}
}

func fromWire(msg string) error {
	for _, e := range wireErrs {
		if e.Error() == msg {
			return e
		}
	}
	return errors.New(msg)
}

// --- server ------------------------------------------------------------------

// The registry server's op count and latency.
var (
	ops     = kstat.NewKey("registry.ops")
	latency = kstat.NewKey("registry.latency_cycles")
)

func (s *Server) handle(req *mach.Message) *mach.Message {
	if st := kstat.For(s.k.CPU); st != nil {
		st.Count(ops).Inc()
		base := s.k.CPU.Counters()
		defer func() {
			st.Hist(latency).Observe(s.k.CPU.Counters().Sub(base).Cycles)
		}()
	}
	s.k.CPU.Exec(s.path)
	switch req.ID {
	case msgSet:
		f, ok := unpackStrs(req.Body, 3)
		if !ok {
			return toWire(ErrBadName)
		}
		if err := s.set(f[0], f[1], f[2]); err != nil {
			return toWire(err)
		}
		return &mach.Message{ID: 0}
	case msgGet:
		f, ok := unpackStrs(req.Body, 2)
		if !ok {
			return toWire(ErrBadName)
		}
		v, err := s.get(f[0], f[1])
		if err != nil {
			return toWire(err)
		}
		return &mach.Message{ID: 0, Body: []byte(v)}
	case msgDelete:
		f, ok := unpackStrs(req.Body, 2)
		if !ok {
			return toWire(ErrBadName)
		}
		if err := s.delete(f[0], f[1]); err != nil {
			return toWire(err)
		}
		return &mach.Message{ID: 0}
	case msgEnumApps:
		return &mach.Message{ID: 0, OOL: []byte(strings.Join(s.enumApps(), "\n"))}
	case msgEnumKeys:
		keys, err := s.enumKeys(string(req.Body))
		if err != nil {
			return toWire(err)
		}
		return &mach.Message{ID: 0, OOL: []byte(strings.Join(keys, "\n"))}
	case msgFlush:
		if err := s.flush(req); err != nil {
			return toWire(err)
		}
		return &mach.Message{ID: 0}
	default:
		return toWire(ErrBadName)
	}
}

func valid(name string) bool {
	return name != "" && !strings.ContainsAny(name, "\n=")
}

func (s *Server) set(app, key, value string) error {
	if !valid(app) || !valid(key) {
		return ErrBadName
	}
	if len(value) > MaxValue || strings.ContainsRune(value, '\n') {
		return ErrTooLarge
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.apps[app]
	if !ok {
		m = make(map[string]string)
		s.apps[app] = m
	}
	m[key] = value
	return nil
}

func (s *Server) get(app, key string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.apps[app]
	if !ok {
		return "", ErrNoApp
	}
	v, ok := m[key]
	if !ok {
		return "", ErrNoKey
	}
	return v, nil
}

func (s *Server) delete(app, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.apps[app]
	if !ok {
		return ErrNoApp
	}
	if _, ok := m[key]; !ok {
		return ErrNoKey
	}
	delete(m, key)
	if len(m) == 0 {
		delete(s.apps, app)
	}
	return nil
}

func (s *Server) enumApps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enumAppsLocked()
}

func (s *Server) enumKeys(app string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.apps[app]
	if !ok {
		return nil, ErrNoApp
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// flush serializes the store as an .INI-style profile through the file
// server, on behalf of req.  The close is where a cached volume reports
// a write-behind failure, so its error is flush's too.
func (s *Server) flush(req *mach.Message) (err error) {
	if s.fs == nil {
		return nil
	}
	s.ioLock.Acquire(req)
	defer s.ioLock.Release()
	s.io.ActFor(req)
	defer s.io.ActFor(nil)
	s.mu.Lock()
	var b strings.Builder
	for _, app := range s.enumAppsLocked() {
		b.WriteString("[" + app + "]\n")
		m := s.apps[app]
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(k + "=" + m[k] + "\n")
		}
	}
	s.mu.Unlock()
	f, err := s.fs.Open(s.file, true, true)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if err := f.Truncate(0); err != nil {
		return err
	}
	_, err = f.WriteAt([]byte(b.String()), 0)
	return err
}

func (s *Server) enumAppsLocked() []string {
	out := make([]string, 0, len(s.apps))
	for a := range s.apps {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// load parses the profile file back, at start, before the registry
// serves: nothing else does profile I/O yet.  A close error fails it.
func (s *Server) load() (err error) {
	f, err := s.fs.Open(s.file, false, false)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	a, err := f.Stat()
	if err != nil {
		return err
	}
	data := make([]byte, a.Size)
	if _, err := f.ReadAt(data, 0); err != nil && a.Size > 0 {
		return err
	}
	app := ""
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		if line[0] == '[' {
			if !strings.HasSuffix(line, "]") {
				return ErrCorrupt
			}
			app = line[1 : len(line)-1]
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 || app == "" {
			return ErrCorrupt
		}
		if err := s.set(app, line[:eq], line[eq+1:]); err != nil {
			return err
		}
	}
	return nil
}

// --- client ------------------------------------------------------------------

// Client is the personality-side library for the registry.
type Client struct {
	th   *mach.Thread
	port mach.PortName
}

// NewClient connects a task to the registry.
func (s *Server) NewClient(th *mach.Thread) (*Client, error) {
	n, err := th.Task().InsertRight(s.task, s.port, mach.DispMakeSend)
	if err != nil {
		return nil, err
	}
	return &Client{th: th, port: n}, nil
}

func (c *Client) call(id mach.MsgID, body []byte) (*mach.Message, error) {
	reply, err := c.th.Call(c.port, &mach.Message{ID: id, Body: body}, mach.CallOpts{})
	if err != nil {
		return nil, err
	}
	if reply.ID != 0 {
		return nil, fromWire(string(reply.Body))
	}
	return reply, nil
}

// Set writes app/key = value.
func (c *Client) Set(app, key, value string) error {
	_, err := c.call(msgSet, packStrs(app, key, value))
	return err
}

// Get reads app/key.
func (c *Client) Get(app, key string) (string, error) {
	reply, err := c.call(msgGet, packStrs(app, key))
	if err != nil {
		return "", err
	}
	return string(reply.Body), nil
}

// Delete removes app/key.
func (c *Client) Delete(app, key string) error {
	_, err := c.call(msgDelete, packStrs(app, key))
	return err
}

// Apps enumerates applications.
func (c *Client) Apps() ([]string, error) {
	reply, err := c.call(msgEnumApps, nil)
	if err != nil {
		return nil, err
	}
	if len(reply.OOL) == 0 {
		return nil, nil
	}
	return strings.Split(string(reply.OOL), "\n"), nil
}

// Keys enumerates one application's keys.
func (c *Client) Keys(app string) ([]string, error) {
	reply, err := c.call(msgEnumKeys, []byte(app))
	if err != nil {
		return nil, err
	}
	if len(reply.OOL) == 0 {
		return nil, nil
	}
	return strings.Split(string(reply.OOL), "\n"), nil
}

// Flush persists the store through the file server.
func (c *Client) Flush() error {
	_, err := c.call(msgFlush, nil)
	return err
}
