// Command qdaemon runs the host daemon with a qcsh command shell (§3.1)
// against a simulated machine.
//
//	qdaemon -machine 2,2,2           # interactive qcsh REPL
//	qdaemon -machine 2,2 -c "boot; run j1 demo; output j1"  # exits 1 at the first failing command
//	qdaemon -metrics 127.0.0.1:9100  # also export /metrics (Prometheus text)
//
// A demo program ("demo": every node prints its rank and performs a
// machine-wide global sum) is preloaded.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/machine"
	"qcdoc/internal/node"
	"qcdoc/internal/obs"
	"qcdoc/internal/qdaemon"
	"qcdoc/internal/qmp"
	"qcdoc/internal/qos"
)

func main() {
	mshape := flag.String("machine", "2,2,2", "six-dimensional machine shape")
	script := flag.String("c", "", "semicolon-separated commands (default: interactive)")
	metrics := flag.String("metrics", "", "serve Prometheus-text /metrics on this address (e.g. 127.0.0.1:9100)")
	flag.Parse()

	shape, err := geom.ParseShape(*mshape)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qdaemon: -machine:", err)
		flag.Usage()
		os.Exit(2)
	}

	eng := event.New()
	m := machine.Build(eng, machine.DefaultConfig(shape))
	if err := m.TrainLinks(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	d := qdaemon.New(eng, m)
	fold := geom.IdentityFold(shape)
	d.LoadProgram("demo", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			k := qos.FromCtx(ctx)
			c := qmp.New(ctx, fold)
			total := c.GlobalSumFloat64(ctx.P, float64(rank))
			k.Printf("rank %d sees machine sum %v", rank, total)
		}
	})
	sh := &qdaemon.Qcsh{D: d}

	// With -metrics, the daemon doubles as an exporter: telemetry is
	// enabled, and after every command batch the machine snapshot is
	// published to an obs.Server. The HTTP side only ever sees published
	// copies — snapshots are taken here, between engine runs, never
	// concurrently with the simulation.
	var srv *obs.Server
	if *metrics != "" {
		srv = &obs.Server{}
		m.EnableTelemetry()
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		go http.Serve(ln, srv.Handler())
		fmt.Printf("qdaemon: serving /metrics on http://%s\n", ln.Addr())
	}

	// exec runs one command and reports whether it succeeded.
	exec := func(line string) bool {
		line = strings.TrimSpace(line)
		if line == "" {
			return true
		}
		var out string
		var err error
		eng.Spawn("qcsh", func(p *event.Proc) { out, err = sh.Exec(p, line) })
		if rerr := eng.RunAll(); rerr != nil {
			fmt.Fprintln(os.Stderr, "engine:", rerr)
			return false
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		if out != "" {
			fmt.Println(out)
		}
		if srv != nil {
			srv.PublishMetrics(eng.Now(), m.Reg.Snapshot())
		}
		return true
	}

	// A script stops at its first failing command and exits 1.
	if *script != "" {
		for _, line := range strings.Split(*script, ";") {
			if !exec(line) {
				os.Exit(1)
			}
		}
		return
	}
	fmt.Printf("qcsh connected to %d-node QCDOC (%v); type help\n", m.NumNodes(), shape)
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("qcsh> ")
	for scanner.Scan() {
		exec(scanner.Text())
		fmt.Print("qcsh> ")
	}
}
