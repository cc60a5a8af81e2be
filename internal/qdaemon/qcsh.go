package qdaemon

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/machine"
	"qcdoc/internal/scu"
)

// maxTraceSize bounds "trace on N": a ring is allocated whole, 80 B a
// record, so 1<<20 records is 80 MiB.
const maxTraceSize = 1 << 20

// Qcsh is the command-line interface to QCDOC (§3.1): "a modified UNIX
// tcsh ... gathers commands to send to the qdaemon and manages the
// returning data stream". This implementation is the command
// interpreter; cmd/qdaemon wraps it in a REPL.
type Qcsh struct {
	D *Daemon
}

// Exec runs one command line and returns its output.
func (q *Qcsh) Exec(p *event.Proc, line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", nil
	}
	d := q.D
	switch fields[0] {
	case "help":
		return "commands: boot | status <rank> | run <job> <program> | remap <dims> | output <job> | ls | cat <file> | packaging | power | hwstat [rank] | counters <rank> [link] | trace [n] | trace on [size] | trace off", nil
	case "boot":
		if err := d.BootAll(p); err != nil {
			return "", err
		}
		return fmt.Sprintf("booted %d nodes", d.M.NumNodes()), nil
	case "status":
		if len(fields) < 2 {
			return "", fmt.Errorf("qcsh: status <rank>")
		}
		rank, err := strconv.Atoi(fields[1])
		if err != nil || rank < 0 || rank >= d.M.NumNodes() {
			return "", fmt.Errorf("qcsh: bad rank %q", fields[1])
		}
		return d.Status(p, rank)
	case "run":
		if len(fields) < 3 {
			return "", fmt.Errorf("qcsh: run <job> <program>")
		}
		reports, err := d.Run(p, fields[1], fields[2])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("job %s completed on %d nodes", fields[1], len(reports)), nil
	case "remap":
		if len(fields) < 2 {
			return "", fmt.Errorf("qcsh: remap <dims>")
		}
		dims, err := strconv.Atoi(fields[1])
		if err != nil {
			return "", fmt.Errorf("qcsh: bad dimensionality %q", fields[1])
		}
		if err := d.Remap(dims); err != nil {
			return "", err
		}
		return fmt.Sprintf("partition remapped to %v", d.Fold().Logical()), nil
	case "output":
		if len(fields) < 2 {
			return "", fmt.Errorf("qcsh: output <job>")
		}
		return strings.Join(d.Output[fields[1]], "\n"), nil
	case "ls":
		names := make([]string, 0, len(d.FS))
		for n := range d.FS {
			names = append(names, n)
		}
		sort.Strings(names)
		return strings.Join(names, "\n"), nil
	case "cat":
		if len(fields) < 2 {
			return "", fmt.Errorf("qcsh: cat <file>")
		}
		data, ok := d.FS[fields[1]]
		if !ok {
			return "", fmt.Errorf("qcsh: no such file %q", fields[1])
		}
		return string(data), nil
	case "packaging", "power":
		pk := machine.PackagingFor(d.M.NumNodes(), d.M.Cfg.Clock)
		return pk.String(), nil
	case "hwstat":
		// One node, or a machine-wide sweep — every line is fetched from
		// the node over the Ethernet/JTAG side network, not read from
		// simulator state.
		ranks := make([]int, 0, d.M.NumNodes())
		if len(fields) >= 2 {
			rank, err := strconv.Atoi(fields[1])
			if err != nil || rank < 0 || rank >= d.M.NumNodes() {
				return "", fmt.Errorf("qcsh: bad rank %q", fields[1])
			}
			ranks = append(ranks, rank)
		} else {
			for r := 0; r < d.M.NumNodes(); r++ {
				ranks = append(ranks, r)
			}
		}
		var b strings.Builder
		for _, r := range ranks {
			st, s, err := d.HWStat(p, r)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "node%d %v: sent %d recv %d acks %d naks %d resends %d parity %d header %d dup %d\n",
				r, st, s.WordsSent, s.WordsReceived, s.AcksSent, s.NaksSent, s.Resends, s.ParityErrors, s.HeaderErrors, s.Duplicates)
		}
		return strings.TrimRight(b.String(), "\n"), nil
	case "counters":
		if len(fields) < 2 {
			return "", fmt.Errorf("qcsh: counters <rank> [link]")
		}
		rank, err := strconv.Atoi(fields[1])
		if err != nil || rank < 0 || rank >= d.M.NumNodes() {
			return "", fmt.Errorf("qcsh: bad rank %q", fields[1])
		}
		var s scu.Stats
		label := "aggregate"
		if len(fields) >= 3 {
			l, err := parseLink(fields[2])
			if err != nil {
				return "", err
			}
			if s, err = d.LinkCounters(p, rank, l); err != nil {
				return "", err
			}
			label = "link " + l.String()
		} else {
			if _, s, err = d.HWStat(p, rank); err != nil {
				return "", err
			}
		}
		var b strings.Builder
		fmt.Fprintf(&b, "node%d %s:\n", rank, label)
		s.Each(func(name string, v uint64) { fmt.Fprintf(&b, "  %s %d\n", name, v) })
		return strings.TrimRight(b.String(), "\n"), nil
	case "trace":
		// The flight recorder is a host-side diagnostic on the simulation
		// engine itself (the analogue of a logic analyzer on the global
		// clock tree); it records nothing until switched on.
		if len(fields) >= 2 && fields[1] == "on" {
			size := event.DefaultRecorderSize
			if len(fields) >= 3 {
				n, err := strconv.Atoi(fields[2])
				if err != nil || n <= 0 || n > maxTraceSize {
					return "", fmt.Errorf("qcsh: bad trace size %q", fields[2])
				}
				size = n
			}
			d.Eng.SetRecorder(event.NewRecorder(size))
			return fmt.Sprintf("flight recorder on (%d records)", size), nil
		}
		if len(fields) >= 2 && fields[1] == "off" {
			d.Eng.SetRecorder(nil)
			return "flight recorder off", nil
		}
		rec := d.Eng.Recorder()
		if rec == nil {
			return "", fmt.Errorf("qcsh: flight recorder is off (trace on [size])")
		}
		n := 16
		if len(fields) >= 2 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v <= 0 {
				return "", fmt.Errorf("qcsh: bad trace count %q", fields[1])
			}
			n = v
		}
		var b strings.Builder
		rec.Dump(&b, n)
		return strings.TrimRight(b.String(), "\n"), nil
	default:
		return "", fmt.Errorf("qcsh: unknown command %q (try help)", fields[0])
	}
}

// parseLink parses a link spec like "+0" or "-3" (geom.Link.String
// notation).
func parseLink(s string) (geom.Link, error) {
	if len(s) != 2 || (s[0] != '+' && s[0] != '-') || s[1] < '0' || s[1] > byte('0'+geom.MaxDim-1) {
		return geom.Link{}, fmt.Errorf("qcsh: bad link %q (want +0..-%d)", s, geom.MaxDim-1)
	}
	dir := geom.Fwd
	if s[0] == '-' {
		dir = geom.Bwd
	}
	return geom.Link{Dim: int(s[1] - '0'), Dir: dir}, nil
}
