// Package talos implements the TalOS personality: Taligent's operating
// system, whose application interface became the CommonPoint programming
// environment — file system facilities, access to communications and a
// graphical user interface, all built from fine-grained C++ objects over
// the same microkernel wrappers as the networking code.
//
// Historically "the implementation of the TalOS personality was never
// finished"; this reproduction builds the layer the paper describes —
// the CommonPoint-flavoured framework surface over the shared services,
// paying the fine-grained object costs on every call — which is enough
// to measure what the design would have cost.
package talos

import (
	"errors"

	"repro/internal/mach"
	"repro/internal/objsys"
	"repro/internal/vfs"
	"repro/internal/vm"
)

// Errors returned by the framework.
var (
	ErrClosed    = errors.New("talos: object deleted")
	ErrNoSurface = errors.New("talos: no drawing surface attached")
)

// Server is the TalOS personality: it owns the framework class hierarchy
// (frozen at startup, as C++ libraries froze theirs) and builds
// CommonPoint-style objects over the shared services.
type Server struct {
	k     *mach.Kernel
	vmsys *vm.System
	files *vfs.Server
	h     *objsys.Hierarchy
	task  *mach.Task

	fileChain   []string
	streamChain []string
	drawChain   []string
}

// The CommonPoint-flavoured hierarchy: every concern its own class with
// one short virtual method, per the Taligent style.
var classTree = []struct{ name, parent, method string }{
	{"MCollectible", "", "Hash"},
	{"TFile", "MCollectible", "ValidatePath"},
	{"TFileStream", "TFile", "PositionCursor"},
	{"TBufferedStream", "TFileStream", "FillBuffer"},
	{"TDataStream", "TBufferedStream", "MarshalRecord"},
	{"TView", "MCollectible", "InvalidateArea"},
	{"TGrafPort", "TView", "BindSurface"},
	{"TPen", "TGrafPort", "StrokePath"},
}

// NewServer builds the personality and freezes its class structure.
func NewServer(k *mach.Kernel, vmsys *vm.System, files *vfs.Server) (*Server, error) {
	s := &Server{
		k: k, vmsys: vmsys, files: files,
		h:    objsys.NewHierarchy(k.CPU, k.Layout()),
		task: k.NewTask("talos"),
	}
	for _, c := range classTree {
		if _, err := s.h.DefineClass(c.name, c.parent, map[string]uint64{c.method: 24}); err != nil {
			return nil, err
		}
	}
	s.h.Freeze()
	s.fileChain = []string{"Hash", "ValidatePath"}
	s.streamChain = []string{"Hash", "ValidatePath", "PositionCursor", "FillBuffer", "MarshalRecord"}
	s.drawChain = []string{"Hash", "InvalidateArea", "BindSurface", "StrokePath"}
	return s, nil
}

// Task returns the personality server task.
func (s *Server) Task() *mach.Task { return s.task }

// Hierarchy exposes the framework classes (for footprint accounting).
func (s *Server) Hierarchy() *objsys.Hierarchy { return s.h }

// App is a CommonPoint application context: a task with framework access.
type App struct {
	srv  *Server
	task *mach.Task
	th   *mach.Thread
	fs   *vfs.Client
}

// NewApp creates an application task.
func (s *Server) NewApp(name string) (*App, error) {
	task := s.k.NewTask("talos:" + name)
	th, err := task.NewBoundThread("main")
	if err != nil {
		return nil, err
	}
	m := s.vmsys.NewMap(task.ASID())
	task.AS = m
	client, err := s.files.NewClient(th, vfs.ProfileTalOS)
	if err != nil {
		return nil, err
	}
	return &App{srv: s, task: task, th: th, fs: client}, nil
}

// TFileStream is a framework file object: every operation runs the
// fine-grained method chain before touching the file server.
type TFileStream struct {
	app    *App
	obj    *objsys.Object
	file   *vfs.File
	pos    int64
	closed bool
}

// CreateFileStream opens (creating) a file through the framework.
func (a *App) CreateFileStream(path string) (*TFileStream, error) {
	obj, err := a.srv.h.New("TDataStream")
	if err != nil {
		return nil, err
	}
	if err := a.srv.h.InvokeChain(obj, a.srv.fileChain); err != nil {
		return nil, err
	}
	f, err := a.fs.Open(path, true, true)
	if err != nil {
		return nil, err
	}
	return &TFileStream{app: a, obj: obj, file: f}, nil
}

// Write appends through the stream chain.
func (t *TFileStream) Write(p []byte) (int, error) {
	if t.closed {
		return 0, ErrClosed
	}
	if err := t.app.srv.h.InvokeChain(t.obj, t.app.srv.streamChain); err != nil {
		return 0, err
	}
	n, err := t.file.WriteAt(p, t.pos)
	t.pos += int64(n)
	return n, err
}

// Read continues from the cursor.
func (t *TFileStream) Read(p []byte) (int, error) {
	if t.closed {
		return 0, ErrClosed
	}
	if err := t.app.srv.h.InvokeChain(t.obj, t.app.srv.streamChain); err != nil {
		return 0, err
	}
	n, err := t.file.ReadAt(p, t.pos)
	t.pos += int64(n)
	return n, err
}

// SeekTo repositions the cursor.
func (t *TFileStream) SeekTo(pos int64) error {
	if t.closed {
		return ErrClosed
	}
	if pos < 0 {
		return vfs.ErrBadOffset
	}
	t.pos = pos
	return nil
}

// Close deletes the object.
func (t *TFileStream) Close() error {
	if t.closed {
		return ErrClosed
	}
	t.closed = true
	return t.file.Close()
}

// TPen draws through the framework onto a framebuffer-like surface.
type TPen struct {
	app     *App
	obj     *objsys.Object
	surface Surface
}

// Surface is anything the pen can paint (the drivers framebuffer
// satisfies it).
type Surface interface {
	Fill(x, y, w, h int, color byte)
	Bounds() (w, h int)
}

// NewPen builds a graphics object bound to a surface.
func (a *App) NewPen(s Surface) (*TPen, error) {
	obj, err := a.srv.h.New("TPen")
	if err != nil {
		return nil, err
	}
	return &TPen{app: a, obj: obj, surface: s}, nil
}

// Rect strokes a rectangle through the draw chain.
func (p *TPen) Rect(x, y, w, h int, color byte) error {
	if p.surface == nil {
		return ErrNoSurface
	}
	if err := p.app.srv.h.InvokeChain(p.obj, p.app.srv.drawChain); err != nil {
		return err
	}
	p.surface.Fill(x, y, w, h, color)
	return nil
}
