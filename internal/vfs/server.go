package vfs

import (
	"encoding/binary"
	"errors"
	"sync"

	"repro/internal/cpu"
	"repro/internal/kstat"
	"repro/internal/mach"
	"repro/internal/vfs/wire"
)

// File server message IDs: the single-op protocol, in its pre-redesign
// values and byte layouts (wire.TestLegacyLayoutsPinned pins the bytes).
const (
	MsgOpen mach.MsgID = 0x0F00 + iota
	MsgClose
	MsgRead
	MsgWrite
	MsgTruncate
	MsgStat
	MsgFStat
	MsgMkdir
	MsgReadDir
	MsgRemove
	MsgRename
	MsgSetEA
	MsgGetEA
	MsgSync
)

// MaxReadChunk bounds one read RPC's server-side buffer; longer reads
// return short and the client iterates.
const MaxReadChunk = 1 << 20

// Server is the file server task: it serves the vnode layer over RPC with
// a port per open file ("the design of the file server made heavy use of
// ports to manage open files").
//
// Handler concurrency contract: with pool > 1 the control handler and the
// per-file handlers run on up to pool threads at once.  The filePorts and
// portFDs maps are guarded by s.mu, the Dispatcher's tables by its own
// mutex; message bodies are per-request.  A mounted FileSystem and the
// device stack under it are not safe for concurrent calls: a handler
// enters one only holding its volume's kernel lock (volume.begin), so
// each volume serves one request at a time.  Handlers must not hold s.mu
// across Dispatcher calls.
type Server struct {
	Disp *Dispatcher

	k    *mach.Kernel
	task *mach.Task
	ctrl mach.PortName
	path cpu.Region

	ctrlPool *mach.ServerPool
	filePool *mach.ServerPool // pool > 1 only
	fileSet  *mach.PortSet    // pool > 1: all open-file ports, no thread per port

	mu        sync.Mutex
	filePorts map[uint32]mach.PortName // fd -> receive name in server task
	portFDs   map[mach.PortName]uint32 // receive name -> fd (set dispatch)

	// xfer is the boot's transfer agreement; set at boot, read-only
	// afterwards (SetTransfer documents the contract).
	xfer mach.Transfer

	// Volume bookkeeping: cacheNew, when installed, interposes a buffer
	// cache under every device-backed volume MountVolume attaches.  vmu
	// guards both.
	cacheNew func(BlockDev) CachedDev
	vmu      sync.Mutex
	fsVols   map[FileSystem]*volume // mounted fs -> volume (close-flush)
}

// volume is one attached FileSystem, the device it sits on and the
// kernel lock that admits one request at a time to both.
type volume struct {
	path string
	fs   FileSystem
	lock *mach.Lock
	cdev CachedDev  // non-nil when the server interposed a write-behind cache
	rdev RequestDev // non-nil when the device stack attributes work to requests
}

// NewServer starts the file server task with pool server threads on the
// control port.  With pool <= 1 each open file's port is serviced by a
// dedicated server thread; with pool > 1 open-file ports are members of
// one port set drained by a second pool of the same size — Mach's port
// sets as the paper's file server used them, many ports without a thread
// per port.
func NewServer(k *mach.Kernel, pool int) (*Server, error) {
	if pool < 1 {
		pool = 1
	}
	s := &Server{
		Disp:      NewDispatcher(),
		k:         k,
		task:      k.NewTask("fileserver"),
		path:      k.Layout().PlaceInstr("file_server_op", 1200),
		filePorts: make(map[uint32]mach.PortName),
		portFDs:   make(map[mach.PortName]uint32),
		fsVols:    make(map[FileSystem]*volume),
	}
	ctrl, err := s.task.AllocatePort()
	if err != nil {
		return nil, err
	}
	s.ctrl = ctrl
	if s.ctrlPool, err = s.task.ServePool("control", ctrl, pool, s.handleControl); err != nil {
		return nil, err
	}
	if pool > 1 {
		if s.fileSet, err = s.task.AllocatePortSet(); err != nil {
			return nil, err
		}
		if s.filePool, err = s.task.ServeSetPool("file", s.fileSet, pool, s.handleFilePort); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SetTransfer installs the boot's transfer agreement.  Call at boot,
// before the server takes traffic and before clients are created: the
// value propagates to clients at NewClient time.
func (s *Server) SetTransfer(x mach.Transfer) { s.xfer = x }

// Task returns the server task (for granting rights and shutdown).
func (s *Server) Task() *mach.Task { return s.task }

// ControlPool exposes the control-port pool (benchmarks and tests).
func (s *Server) ControlPool() *mach.ServerPool { return s.ctrlPool }

// FilePool exposes the open-file pool; nil when pool <= 1 (dedicated
// thread per open file).
func (s *Server) FilePool() *mach.ServerPool { return s.filePool }

// Mount attaches a RAM-rooted file system, one with no device, into the
// single rooted tree: MountVolume(path, fs, nil).
func (s *Server) Mount(path string, fs FileSystem) error {
	return s.MountVolume(path, fs, nil)
}

// SetDevCache installs a buffer-cache factory: every device-backed
// volume subsequently attached with MountVolume gets its device wrapped
// by factory(dev), and the server flushes the cache on file close and
// client Sync.  Install before mounting; a nil factory disables caching
// (the default — the seed's direct-to-driver path).
func (s *Server) SetDevCache(factory func(BlockDev) CachedDev) {
	s.vmu.Lock()
	s.cacheNew = factory
	s.vmu.Unlock()
}

// MountVolume is the mount call: it attaches fs to dev (through the
// buffer cache when one is installed) and mounts it at path in the
// single rooted tree.  RAM-rooted filesystems pass a nil dev, which is
// never cached.
func (s *Server) MountVolume(path string, fs FileSystem, dev BlockDev) error {
	vol := &volume{path: path, fs: fs, lock: mach.NewLock("volume:" + path)}
	s.vmu.Lock()
	factory := s.cacheNew
	s.vmu.Unlock()
	if factory != nil && dev != nil {
		vol.cdev = factory(dev)
		dev = vol.cdev
	}
	vol.rdev, _ = dev.(RequestDev)
	if err := fs.Mount(dev); err != nil {
		return err
	}
	if err := s.Disp.Mount(path, fs); err != nil {
		fs.Unmount()
		return err
	}
	s.vmu.Lock()
	s.fsVols[fs] = vol
	s.vmu.Unlock()
	return nil
}

// flushVolume pushes a cached volume's write-behind data to the device:
// the filesystem commits first (a journaled format writes its journal
// into the cache), then the cache flushes.  A volume without a cache is
// a no-op — the seed's write-through path needs no flush.
func (s *Server) flushVolume(fs FileSystem) error {
	vol := s.volumeOf(fs)
	if vol == nil || vol.cdev == nil {
		return nil
	}
	if err := vol.fs.Sync(); err != nil {
		return err
	}
	return vol.cdev.Sync()
}

// syncVolumes is the MsgSync path, served for req: every mounted file
// system commits, then every cached device flushes its dirty blocks.
func (s *Server) syncVolumes(req *mach.Message) error {
	fss := s.Disp.mounted()
	for _, fs := range fss {
		if err := s.volumeOf(fs).syncFor(req, fs); err != nil {
			return err
		}
	}
	for _, fs := range fss {
		if v := s.volumeOf(fs); v != nil && v.cdev != nil {
			if err := v.syncFor(req, v.cdev); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- request context --------------------------------------------------------
//
// The message a handler serves is the request's context, and the vnode
// and device interfaces under it have no parameter for one.  So a handler
// takes the volume the operation resolves to for req before it enters the
// file system (begin: the volume's kernel lock, then req declared on the
// device stack) and gives it back, deferred, when it leaves (end).  The
// lock is the volume's one exclusion — file system, cache and device
// adapter keep none of their own — and it is taken for RAM-backed
// volumes too.  A nil volume (an unresolvable path) is a no-op.
// DESIGN.md §8 has the reasoning.

func (v *volume) begin(req *mach.Message) *volume {
	if v != nil {
		v.lock.Acquire(req)
		if v.rdev != nil {
			v.rdev.Begin(req)
		}
	}
	return v
}

func (v *volume) end() {
	if v != nil {
		if v.rdev != nil {
			v.rdev.End()
		}
		v.lock.Release()
	}
}

// syncFor syncs x — the volume's file system or its cache — for req.
func (v *volume) syncFor(req *mach.Message, x interface{ Sync() error }) error {
	defer v.begin(req).end()
	return x.Sync()
}

// volumeOf returns the volume fs serves, or nil.
func (s *Server) volumeOf(fs FileSystem) *volume {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	return s.fsVols[fs]
}

// volumeAt returns the volume path resolves into, or nil.
func (s *Server) volumeAt(path string) *volume {
	fs, _, err := s.Disp.resolveMount(path)
	if err != nil {
		return nil
	}
	return s.volumeOf(fs)
}

// stat is Disp.Stat served for req.
func (s *Server) stat(req *mach.Message, path string) (Attr, error) {
	defer s.volumeAt(path).begin(req).end()
	return s.Disp.Stat(path)
}

// --- wire helpers ---------------------------------------------------------
//
// The codec itself lives in vfs/wire (typed encode/decode per message);
// what remains here is reply framing.  Data payloads are placed by the
// boot's transfer agreement (mach.Transfer.Place) and read back with
// mach.Message.Payload.

func errReply(err error) *mach.Message {
	return &mach.Message{ID: 1, Body: []byte(err.Error())}
}

func okReply(body []byte, ool []byte) *mach.Message {
	return &mach.Message{ID: 0, Body: body, OOL: ool}
}

// wireErrors maps error strings back to the canonical sentinels so
// errors.Is works across the RPC boundary.
var wireErrors = []error{
	ErrNotFound, ErrExists, ErrNotDir, ErrIsDir, ErrNotEmpty,
	ErrNameTooLong, ErrBadName, ErrNoSpace, ErrBadHandle, ErrReadOnly,
	ErrNotMounted, ErrMountBusy, ErrCrossDevice, ErrUnsupported,
	ErrBadOffset, ErrSemanticClash, ErrIO,
}

func fromWire(msg string) error {
	for _, e := range wireErrors {
		if e.Error() == msg {
			return e
		}
	}
	return errors.New(msg)
}

// --- server side ------------------------------------------------------------

// fsOpNames labels file-server operations for tracing, in MsgID order,
// then any other ID; fsOpKeys are their kstat counters.
var (
	fsOpNames = [...]string{"open", "close", "read", "write", "truncate", "stat",
		"fstat", "mkdir", "readdir", "remove", "rename", "setea", "getea", "sync", "unknown"}
	fsOpKeys = func() (keys [len(fsOpNames)]*kstat.Key) {
		for i, op := range fsOpNames {
			keys[i] = kstat.NewKey("vfs.ops." + op)
		}
		return keys
	}()
	fsOpLatency = kstat.NewKey("vfs.latency_cycles")
)

// fsOp indexes an operation's name and family.
func fsOp(id mach.MsgID) int {
	if i := int(id) - int(MsgOpen); i >= 0 && i < len(fsOpNames)-1 {
		return i
	}
	return len(fsOpNames) - 1
}

// opObs is the open observation of one file-server operation: its ktrace
// span and, with kstat attached, its kstat sample.
type opObs struct {
	eng  *cpu.Engine
	st   *kstat.Set
	sp   *cpu.Span
	op   int
	base cpu.Counters
}

// obsOp opens the observation of one file-server operation; its end
// closes it.  Reads only, nothing charged.
func (s *Server) obsOp(id mach.MsgID) opObs {
	op := fsOp(id)
	ps := s.k.CPU.Planes()
	o := opObs{eng: s.k.CPU, st: kstat.From(ps), op: op}
	o.sp = ps.Open(cpu.Event{Type: cpu.EvFSOp, Subsystem: "vfs", Name: fsOpNames[op]}, nil)
	if o.st != nil {
		o.base = o.eng.Counters()
	}
	return o
}

// end closes the observation, recording the op count and a cycles-latency
// sample.
func (o opObs) end() {
	if o.st != nil {
		d := o.eng.Counters().Sub(o.base)
		o.st.Count(fsOpKeys[o.op]).Inc()
		o.st.Hist(fsOpLatency).Observe(d.Cycles)
	}
	o.sp.End()
}

func (s *Server) handleControl(req *mach.Message) *mach.Message {
	defer s.obsOp(req.ID).end()
	s.k.CPU.Exec(s.path)
	switch req.ID {
	case MsgOpen:
		r, ok := wire.DecodeOpenReq(req.Body)
		if !ok {
			return errReply(ErrBadHandle)
		}
		defer s.volumeAt(r.Path).begin(req).end()
		fd, err := s.Disp.Open(Profile(r.Profile), r.Path, r.Write, r.Create)
		if err != nil {
			return errReply(err)
		}
		// Port per open file: allocate and serve it.
		fport, err := s.task.AllocatePort()
		if err != nil {
			s.Disp.Close(fd)
			return errReply(err)
		}
		s.mu.Lock()
		s.filePorts[fd] = fport
		s.portFDs[fport] = fd
		s.mu.Unlock()
		// Two shapes stay, because they model different cycles: at pool 1
		// each open pays Spawn's thread_create, pooled it pays AddMember's
		// port_lookup (measured: FI1 43,136,087 cycles at pool 1 against
		// 43,121,859 at pool 4).  A set pool of one would not reproduce
		// the paper's thread-per-open-file server.
		if s.fileSet != nil {
			err = s.fileSet.AddMember(fport)
		} else {
			_, err = s.task.Spawn("file", func(th *mach.Thread) {
				th.Serve(fport, func(m *mach.Message) *mach.Message {
					return s.handleFile(fd, m)
				})
			})
		}
		if err != nil {
			s.mu.Lock()
			delete(s.filePorts, fd)
			delete(s.portFDs, fport)
			s.mu.Unlock()
			s.task.DeallocatePort(fport)
			s.Disp.Close(fd)
			return errReply(err)
		}
		return &mach.Message{
			ID:   0,
			Body: wire.U32(fd),
			Rights: []mach.PortRight{{
				Name: fport, Disposition: mach.DispMakeSend,
			}},
		}
	case MsgStat:
		a, err := s.stat(req, string(req.Body))
		if err != nil {
			return errReply(err)
		}
		return okReply(wire.EncodeAttr(a), nil)
	case MsgMkdir:
		r, ok := wire.DecodeMkdirReq(req.Body)
		if !ok {
			return errReply(ErrBadHandle)
		}
		defer s.volumeAt(r.Path).begin(req).end()
		if err := s.Disp.Mkdir(Profile(r.Profile), r.Path); err != nil {
			return errReply(err)
		}
		return okReply(nil, nil)
	case MsgReadDir:
		defer s.volumeAt(string(req.Body)).begin(req).end()
		ents, err := s.Disp.ReadDir(string(req.Body))
		if err != nil {
			return errReply(err)
		}
		return okReply(nil, wire.EncodeDirEnts(ents))
	case MsgRemove:
		defer s.volumeAt(string(req.Body)).begin(req).end()
		if err := s.Disp.Remove(string(req.Body)); err != nil {
			return errReply(err)
		}
		return okReply(nil, nil)
	case MsgRename:
		r, ok := wire.DecodeRenameReq(req.Body)
		if !ok {
			return errReply(ErrBadHandle)
		}
		// A rename failing as cross-device still walks both volumes: take
		// both, in mount-path order so two cannot wait on each other.
		from, to := s.volumeAt(r.From), s.volumeAt(r.To)
		if to == from {
			to = nil
		} else if from != nil && to != nil && to.path < from.path {
			from, to = to, from
		}
		defer from.begin(req).end()
		defer to.begin(req).end()
		if err := s.Disp.Rename(Profile(r.Profile), r.From, r.To); err != nil {
			return errReply(err)
		}
		return okReply(nil, nil)
	case MsgSetEA:
		r, ok := wire.DecodeSetEAReq(req.Body)
		if !ok {
			return errReply(ErrBadHandle)
		}
		defer s.volumeAt(r.Path).begin(req).end()
		if err := s.Disp.SetEA(Profile(r.Profile), r.Path, r.Key, r.Value); err != nil {
			return errReply(err)
		}
		return okReply(nil, nil)
	case MsgGetEA:
		r, ok := wire.DecodeGetEAReq(req.Body)
		if !ok {
			return errReply(ErrBadHandle)
		}
		defer s.volumeAt(r.Path).begin(req).end()
		v, err := s.Disp.GetEA(r.Path, r.Key)
		if err != nil {
			return errReply(err)
		}
		return okReply([]byte(v), nil)
	case MsgSync:
		if err := s.syncVolumes(req); err != nil {
			return errReply(err)
		}
		return okReply(nil, nil)
	default:
		return errReply(ErrUnsupported)
	}
}

// handleFilePort dispatches a port-set delivery to the open file the
// member port denotes (pooled mode).
func (s *Server) handleFilePort(port mach.PortName, req *mach.Message) *mach.Message {
	s.mu.Lock()
	fd, ok := s.portFDs[port]
	s.mu.Unlock()
	if !ok {
		return errReply(ErrBadHandle)
	}
	return s.handleFile(fd, req)
}

// handleFile serves one open file's port.
func (s *Server) handleFile(fd uint32, req *mach.Message) *mach.Message {
	defer s.obsOp(req.ID).end()
	s.k.CPU.Exec(s.path)
	fsys, _ := s.Disp.FileFS(fd) // every open-file op resolves to the file's volume
	defer s.volumeOf(fsys).begin(req).end()
	switch req.ID {
	case MsgRead:
		r, ok := wire.DecodeReadReq(req.Body)
		if !ok {
			return errReply(ErrBadHandle)
		}
		// The requested length is wire data: clamp it rather than let a
		// client size the server's allocation (short reads are legal).
		n := r.Len
		if n > MaxReadChunk {
			n = MaxReadChunk
		}
		buf := make([]byte, n)
		got, err := s.Disp.ReadAt(fd, buf, r.Off)
		if err != nil && got == 0 {
			return errReply(err)
		}
		// A page or more goes back by region descriptor — straight from
		// the read buffer, no bytes through the copy path.
		return s.xfer.Place(0, wire.U32(uint32(got)), buf[:got])
	case MsgWrite:
		r, ok := wire.DecodeWriteReq(req.Body)
		if !ok {
			return errReply(ErrBadHandle)
		}
		n, err := s.Disp.WriteAt(fd, req.Payload(), r.Off)
		if err != nil {
			return errReply(err)
		}
		return okReply(wire.U32(uint32(n)), nil)
	case MsgTruncate:
		r, ok := wire.DecodeTruncateReq(req.Body)
		if !ok {
			return errReply(ErrBadHandle)
		}
		if err := s.Disp.Truncate(fd, r.Size); err != nil {
			return errReply(err)
		}
		return okReply(nil, nil)
	case MsgFStat:
		a, err := s.Disp.FStat(fd)
		if err != nil {
			return errReply(err)
		}
		return okReply(wire.EncodeAttr(a), nil)
	case MsgClose:
		// Write-behind contract: dirty data reaches the device by the
		// time close returns, and a device error surfaces here — on the
		// close — rather than silently after the write already
		// "succeeded".  The blocks the flush could not write stay dirty,
		// so a later Sync can retry (FaultyDev + Heal).  Uncached
		// volumes flush nothing and charge nothing.
		flushErr := s.flushVolume(fsys)
		if err := s.Disp.Close(fd); err != nil {
			return errReply(err)
		}
		s.mu.Lock()
		fp, ok := s.filePorts[fd]
		if ok {
			delete(s.filePorts, fd)
			delete(s.portFDs, fp)
		}
		s.mu.Unlock()
		if ok {
			if s.fileSet != nil {
				// Leave the set first, then destroy the port.
				s.fileSet.RemoveMember(fp)
			}
			// Destroy the per-file port synchronously: its charges are
			// part of the close, and an async teardown (the old shape)
			// lands them nondeterministically relative to measurement
			// windows.  In single-threaded mode the port's dedicated
			// server thread exits on the dead port.
			s.task.DeallocatePort(fp)
		}
		if flushErr != nil {
			return errReply(flushErr)
		}
		return okReply(nil, nil)
	default:
		return errReply(ErrUnsupported)
	}
}

// --- client side ------------------------------------------------------------

// Client is the personality-side library for talking to the file server.
type Client struct {
	th      *mach.Thread
	ctrl    mach.PortName
	profile Profile
	xfer    mach.Transfer
}

// NewClient gives the calling task a connection to the server under the
// given semantic profile.  The client inherits the server's transfer
// agreement, so both ends of the wire place payloads by one rule.
func (s *Server) NewClient(th *mach.Thread, profile Profile) (*Client, error) {
	n, err := th.Task().InsertRight(s.task, s.ctrl, mach.DispMakeSend)
	if err != nil {
		return nil, err
	}
	return &Client{th: th, ctrl: n, profile: profile, xfer: s.xfer}, nil
}

func (c *Client) call(dest mach.PortName, id mach.MsgID, body, ool []byte) (*mach.Message, error) {
	return c.callMsg(dest, &mach.Message{ID: id, Body: body, OOL: ool})
}

// callMsg sends a prebuilt request (region payloads) and maps an error
// reply back to its sentinel, so errors.Is works across the RPC boundary.
// The reply decoders below take its two results whole.
func (c *Client) callMsg(dest mach.PortName, req *mach.Message) (*mach.Message, error) {
	reply, err := c.th.Call(dest, req, mach.CallOpts{})
	if err == nil && reply.ID != 0 {
		err = fromWire(string(reply.Body))
	}
	if err != nil {
		return nil, err
	}
	return reply, nil
}

// readData returns the bytes a MsgRead reply carries; a reply of a page
// or more carries them by region descriptor when zero-copy is on.
func readData(reply *mach.Message, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if len(reply.Body) < 4 {
		return nil, ErrBadHandle
	}
	n := binary.LittleEndian.Uint32(reply.Body)
	data := reply.Payload()
	if uint64(n) > uint64(len(data)) {
		return nil, ErrBadHandle
	}
	return data[:n], nil
}

// writeReq places p by region descriptor for a page or more with
// zero-copy on, out of line otherwise.
func (c *Client) writeReq(p []byte, off int64) *mach.Message {
	return c.xfer.Place(MsgWrite, wire.WriteReq{Off: off}.Encode(), p)
}

func writeCount(reply *mach.Message, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	if len(reply.Body) < 4 {
		return 0, ErrBadHandle
	}
	return int(binary.LittleEndian.Uint32(reply.Body)), nil
}

// attrOf decodes a MsgStat or MsgFStat reply.
func attrOf(reply *mach.Message, err error) (Attr, error) {
	if err != nil {
		return Attr{}, err
	}
	a, ok := wire.DecodeAttr(reply.Body)
	if !ok {
		return Attr{}, ErrBadHandle
	}
	return a, nil
}

// File is an open file backed by its own server port.
type File struct {
	c    *Client
	fd   uint32
	port mach.PortName
}

// Open opens a file, creating it if create is set.
func (c *Client) Open(path string, write, create bool) (*File, error) {
	body := wire.OpenReq{Profile: byte(c.profile), Write: write, Create: create, Path: path}.Encode()
	reply, err := c.call(c.ctrl, MsgOpen, body, nil)
	if err != nil {
		return nil, err
	}
	if len(reply.Rights) != 1 || reply.Rights[0].Name == mach.NullName {
		return nil, ErrBadHandle
	}
	return &File{
		c:    c,
		fd:   binary.LittleEndian.Uint32(reply.Body),
		port: reply.Rights[0].Name,
	}, nil
}

// ReadAt reads up to len(p) bytes at off.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	req := &mach.Message{ID: MsgRead, Body: wire.ReadReq{Off: off, Len: uint32(len(p))}.Encode()}
	data, err := readData(f.c.callMsg(f.port, req))
	if err != nil {
		return 0, err
	}
	return copy(p, data), nil
}

// WriteAt writes p at off.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	return writeCount(f.c.callMsg(f.port, f.c.writeReq(p, off)))
}

// Truncate resizes the file.
func (f *File) Truncate(size int64) error {
	_, err := f.c.call(f.port, MsgTruncate, wire.TruncateReq{Size: size}.Encode(), nil)
	return err
}

// Stat returns the file's attributes.
func (f *File) Stat() (Attr, error) {
	return attrOf(f.c.call(f.port, MsgFStat, nil, nil))
}

// Close releases the open file and its port.
func (f *File) Close() error {
	_, err := f.c.call(f.port, MsgClose, nil, nil)
	return err
}

// Stat queries a path's attributes.
func (c *Client) Stat(path string) (Attr, error) {
	return attrOf(c.call(c.ctrl, MsgStat, []byte(path), nil))
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	_, err := c.call(c.ctrl, MsgMkdir, wire.MkdirReq{Profile: byte(c.profile), Path: path}.Encode(), nil)
	return err
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]DirEnt, error) {
	reply, err := c.call(c.ctrl, MsgReadDir, []byte(path), nil)
	if err != nil {
		return nil, err
	}
	ents, ok := wire.DecodeDirEnts(reply.OOL)
	if !ok {
		return nil, ErrBadHandle
	}
	return ents, nil
}

// Remove deletes a file or empty directory.
func (c *Client) Remove(path string) error {
	_, err := c.call(c.ctrl, MsgRemove, []byte(path), nil)
	return err
}

// Rename moves a file.
func (c *Client) Rename(from, to string) error {
	_, err := c.call(c.ctrl, MsgRename, wire.RenameReq{Profile: byte(c.profile), From: from, To: to}.Encode(), nil)
	return err
}

// SetEA sets an extended attribute.
func (c *Client) SetEA(path, key, value string) error {
	_, err := c.call(c.ctrl, MsgSetEA, wire.SetEAReq{Profile: byte(c.profile), Path: path, Key: key, Value: value}.Encode(), nil)
	return err
}

// GetEA reads an extended attribute.
func (c *Client) GetEA(path, key string) (string, error) {
	reply, err := c.call(c.ctrl, MsgGetEA, wire.GetEAReq{Path: path, Key: key}.Encode(), nil)
	if err != nil {
		return "", err
	}
	return string(reply.Body), nil
}

// Sync flushes all mounted file systems.
func (c *Client) Sync() error {
	_, err := c.call(c.ctrl, MsgSync, nil, nil)
	return err
}
