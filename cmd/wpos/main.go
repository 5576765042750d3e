// Command wpos boots a complete Workplace OS and drives a short
// demonstration across all three personalities: an OS/2 process, a POSIX
// process and a DOS guest sharing one file server, plus the architecture
// figure and the performance-counter state at the end.
//
// Usage:
//
//	wpos [-driver user|kernel|ooddm] [-mem MB] [-pool N] [-cache SECTORS] [-cpus N] [-zerocopy] [-batch]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/mvm"
)

func main() {
	driver := flag.String("driver", "user", "block driver model: user, kernel, ooddm")
	mem := flag.Int("mem", 64, "installed memory in MB")
	pool := flag.Int("pool", 1, "server threads per RPC server (Release 2 multi-threaded servers when > 1)")
	cache := flag.Int("cache", 0, "file-server buffer cache size in sectors (0 = off, the seed path)")
	cpus := flag.Int("cpus", 1, "number of processing engines (SMP complex when > 1)")
	zerocopy := flag.Bool("zerocopy", false, "move page-sized file payloads by out-of-line region descriptor (zero per-byte copy)")
	batch := flag.Bool("batch", false, "vector the buffer cache's write-behind flush to the driver into single crossings")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.MemoryMB = *mem
	cfg.CPUs = *cpus
	cfg.ServerPool = *pool
	cfg.CacheSectors = *cache
	cfg.ZeroCopy = *zerocopy
	cfg.BatchRPC = *batch
	switch *driver {
	case "kernel":
		cfg.Driver = core.DriverKernel
	case "ooddm":
		cfg.Driver = core.DriverOODDM
	default:
		cfg.Driver = core.DriverUser
	}

	s, err := core.Boot(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "boot failed:", err)
		os.Exit(1)
	}
	fmt.Println("Workplace OS booted.")
	for _, l := range s.BootLog() {
		fmt.Println("  *", l)
	}
	fmt.Println()
	fmt.Print(s.RenderFigure1())
	fmt.Println()

	// OS/2 writes a file on the FAT boot volume.
	op, err := s.OS2.CreateProcess("demo.exe")
	check(err)
	h, e := op.DosOpen("/HELLO.TXT", true, true)
	checkOS2("DosOpen", e == 0)
	_, e = op.DosWrite(h, []byte("hello from OS/2\n"))
	checkOS2("DosWrite", e == 0)
	op.DosClose(h)
	fmt.Println("os2:   wrote /HELLO.TXT through the file server and block driver")

	// POSIX reads it back.
	pp, err := s.POSIX.Spawn("cat")
	check(err)
	fd, pe := pp.Open("/hello.txt", 0)
	checkOS2("posix open", pe == 0)
	buf := make([]byte, 64)
	n, _ := pp.Read(fd, buf)
	fmt.Printf("posix: read %q (case-folded name on FAT)\n", buf[:n])
	pp.Close(fd)

	// A DOS guest prints through MVM's virtual device drivers.
	v, err := s.MVM.NewVM("hello.com", mvm.Translate)
	check(err)
	a := mvm.NewAsm()
	for _, ch := range "DOS lives\n" {
		a.MovImm(mvm.AX, 0x0200)
		a.MovImm(mvm.DX, uint16(ch))
		a.Int(0x21)
	}
	a.Hlt()
	prog, err := a.Assemble()
	check(err)
	check(v.Load(prog))
	check(v.Run(100000))
	fmt.Printf("mvm:   guest wrote %q to the console (translated, %d guest instructions)\n",
		s.Console.Contents(), v.GuestInstrs)

	// Name-service view.
	kids, err := s.Names.Search("/", "class", "")
	check(err)
	fmt.Printf("names: %d bound services: %v\n", len(kids), kids)

	c := s.Kernel.CPU.Counters()
	fmt.Printf("\ncounters after the demo: %s\n", c)

	if s.Kernel.NCPUs() > 1 {
		fmt.Printf("\nengines (%d):\n", s.Kernel.NCPUs())
		for _, st := range s.Kernel.SchedStats() {
			fmt.Printf("  e%d: %12d cycles  %6d dispatches  %4d migrations  %4d steals\n",
				st.Slot, st.Cycles, st.Dispatches, st.Migrations, st.Steals)
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wpos:", err)
		os.Exit(1)
	}
}

func checkOS2(op string, ok bool) {
	if !ok {
		fmt.Fprintln(os.Stderr, "wpos:", op, "failed")
		os.Exit(1)
	}
}
