// Package monitor implements the monitor server: a shared service in the
// Figure 1 sense that exports the system's observation planes over the
// system's own RPC.  Like the file server or the registry, it is an
// ordinary multi-threaded server found through the name service — the
// observability plane dogfoods the IPC path it observes.
//
// The monitor is stateless, as the crossing it rides is: it answers one
// question, "everything, now", with the one dump of every attached plane
// (kflight.Dump, assembled by mach.Kernel.FlightDump), and it opens and
// closes the profile window.  Deltas, family filters and each view's
// rendering are the client's (kstat.Snapshot.Delta and Filter, kobs).
// The dump travels as JSON in the reply's out-of-line region, so an
// arbitrarily large answer crosses the same virtual-copy path any large
// payload would.
package monitor

import (
	"encoding/json"
	"errors"

	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/kprof"
	"repro/internal/mach"
)

// MsgQuery is the monitor's one message.  Its body names the request:
//
//	dump        the one dump: kstat snapshot, flight rings, wait-for
//	            graph, scheduler state, tail dump and profile, each
//	            present when its plane is attached
//	prof.start  attach the profiler, clear it, open a window
//	prof.stop   close the window (the profile stays in the dump)
//
// Every answer travels one way: JSON in the reply's out-of-line region
// (the window controls answer a bare null).
const MsgQuery mach.MsgID = 0x1100

// ErrBadRequest answers a message or a request the monitor does not know.
var ErrBadRequest = errors.New("monitor: malformed request")

// Server is the monitor service task.
type Server struct {
	k    *mach.Kernel
	path cpu.Region
	task *mach.Task
	port mach.PortName
}

// NewServer starts the monitor over the kernel's observation planes with
// pool service threads (pool <= 1 keeps a single server loop).
//
// Handler concurrency contract: with pool > 1 handle runs on up to pool
// threads at once.  It keeps no state of its own, and every plane's part
// of the dump is safe to take while the plane records.
func NewServer(k *mach.Kernel, pool int) (*Server, error) {
	s := &Server{
		k:    k,
		path: k.Layout().PlaceInstr("monitor_op", 520),
		task: k.NewTask("monitor"),
	}
	port, err := s.task.AllocatePort()
	if err != nil {
		return nil, err
	}
	s.port = port
	if _, err := s.task.ServePool("service", port, pool, s.handle); err != nil {
		return nil, err
	}
	return s, nil
}

// Task returns the monitor task.
func (s *Server) Task() *mach.Task { return s.task }

// Port returns the monitor's service port, for publication in the name
// service so clients can connect without holding the *Server.
func (s *Server) Port() mach.PortName { return s.port }

func (s *Server) handle(req *mach.Message) *mach.Message {
	s.k.CPU.Exec(s.path)
	if req.ID != MsgQuery {
		return errReply(ErrBadRequest)
	}
	var answer any // the window controls answer null
	switch string(req.Body) {
	case "dump":
		// The handling thread itself shows up in the dump — the client
		// of this very query appears as a reply wait on the monitor port.
		answer = s.k.FlightDump("monitor query")
	case "prof.start":
		// Open an attribution window: attach the profiler on demand (a
		// no-op when already attached), clear any previous window, and
		// enable.  Attachment is observation-only, so flipping it over
		// RPC never perturbs the cycles being profiled — beyond the
		// charges of this very call, which land before Enable runs.
		p := kprof.Attach(s.k.CPU)
		p.Reset()
		p.Enable()
	case "prof.stop":
		if p := kprof.For(s.k.CPU); p != nil {
			p.Disable()
		}
	default:
		return errReply(ErrBadRequest)
	}
	b, err := json.Marshal(answer)
	if err != nil {
		return errReply(err)
	}
	return &mach.Message{ID: 0, OOL: b}
}

func errReply(err error) *mach.Message {
	return &mach.Message{ID: 1, Body: []byte(err.Error())}
}

// --- client ------------------------------------------------------------------

// Client is the caller-side library for the monitor.
type Client struct {
	th   *mach.Thread
	port mach.PortName
}

// NewClient connects a thread's task to the monitor.
func (s *Server) NewClient(th *mach.Thread) (*Client, error) {
	return Connect(th, s.task, s.port)
}

// Connect builds a client from a name-service binding: the monitor task
// and its service port, as published at /servers/monitor.
func Connect(th *mach.Thread, srv *mach.Task, port mach.PortName) (*Client, error) {
	n, err := th.Task().InsertRight(srv, port, mach.DispMakeSend)
	if err != nil {
		return nil, err
	}
	return &Client{th: th, port: n}, nil
}

// query sends one request and decodes the JSON answer into out (nil for
// the window controls).
func (c *Client) query(req string, out any) error {
	reply, err := c.th.Call(c.port, &mach.Message{ID: MsgQuery, Body: []byte(req)}, mach.CallOpts{})
	switch {
	case err != nil:
		return err
	case reply.ID == 0 && out != nil:
		return json.Unmarshal(reply.OOL, out)
	case reply.ID == 0:
		return nil
	case string(reply.Body) == ErrBadRequest.Error():
		return ErrBadRequest
	}
	return errors.New(string(reply.Body))
}

// Dump fetches the one dump: per-engine event rings, the wait-for graph
// with any cycles named, scheduler state, the full kstat snapshot, the
// tail-latency histograms with their exemplar ledgers, and the profile
// recorded in the current window.
func (c *Client) Dump() (d *kflight.Dump, err error) {
	err = c.query("dump", &d)
	return d, err
}

// ProfStart opens a profile attribution window: the server attaches the
// kprof profiler to the system engine (observation-only), clears any
// previous window, and enables attribution.
func (c *Client) ProfStart() error { return c.query("prof.start", nil) }

// ProfStop closes the window; the accumulated profile stays in the dump.
func (c *Client) ProfStop() error { return c.query("prof.stop", nil) }
