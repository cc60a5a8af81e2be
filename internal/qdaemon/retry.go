package qdaemon

// Host-side RPC reliability. The management network is UDP (§2.3): a
// request or its reply can be lost, and before this layer existed a
// single lost ack wedged the boot protocol forever on a bare Recv. Every
// synchronous request/reply the daemon performs now goes through
// exchange: a per-packet timeout on the simulation clock, bounded
// exponential backoff between retransmissions, and a reply matcher that
// discards stale datagrams (late replies to an earlier attempt). All
// timers are event-engine timers, so a run with a given fault plan is
// bit-reproducible.

import (
	"fmt"

	"qcdoc/internal/ethjtag"
	"qcdoc/internal/event"
)

// The daemon's request/reply retry policy.
const (
	// rpcTimeout is the initial per-attempt reply timeout. It must cover
	// a worst-case benign round trip — including the ~450 us
	// serialization backlog the run-kernel image download leaves on the
	// host port — so the no-fault packet stream carries no
	// retransmissions.
	rpcTimeout = event.Millisecond
	// rpcMaxTimeout caps the exponential backoff.
	rpcMaxTimeout = 8 * event.Millisecond
	// rpcAttempts is the total number of attempts before giving up.
	rpcAttempts = 6
)

// RPCStats counts the retry machinery's work — the recovery audit trail
// the telemetry registry exports (qdaemon/rpc).
type RPCStats struct {
	// Exchanges is the number of request/reply transactions completed.
	Exchanges uint64
	// Timeouts counts reply timeouts (each one is a retransmission or,
	// on the last attempt, a failure).
	Timeouts uint64
	// Retries counts retransmitted requests.
	Retries uint64
	// Stale counts discarded replies that matched no outstanding request
	// (duplicates, or late replies to an attempt already retried).
	Stale uint64
	// Failures counts exchanges abandoned after all attempts.
	Failures uint64
}

// RPCStats returns the daemon's cumulative retry counters.
func (d *Daemon) RPCStats() RPCStats { return d.rpcStats }

// exchange performs one reliable request/reply transaction on a host
// port: send req, wait for a reply match accepts, retransmit on timeout
// with doubling backoff, and give up after rpcAttempts attempts.
// Non-matching datagrams (stale replies from abandoned attempts) are
// counted and discarded, restarting the wait. The caller owns the port:
// each host port has exactly one process doing synchronous exchanges on
// it (the control program on Ctl, the watchdog on Mon), so a matched
// reply always belongs to the request just sent. what names the
// transaction in the error, built only on that rare path.
func (d *Daemon) exchange(p *event.Proc, port *ethjtag.Port, req ethjtag.Packet, what func() string, match func(ethjtag.Packet) bool) (ethjtag.Packet, error) {
	timeout := rpcTimeout
	for attempt := 1; ; attempt++ {
		if err := port.Send(req); err != nil {
			return ethjtag.Packet{}, err
		}
		for {
			rep, ok := port.RecvTimeout(p, timeout)
			if !ok {
				break
			}
			if match(rep) {
				d.rpcStats.Exchanges++
				return rep, nil
			}
			d.rpcStats.Stale++
		}
		d.rpcStats.Timeouts++
		if attempt >= rpcAttempts {
			d.rpcStats.Failures++
			return ethjtag.Packet{}, fmt.Errorf("qdaemon: %s: no reply after %d attempts", what(), attempt)
		}
		d.rpcStats.Retries++
		timeout *= 2
		if timeout > rpcMaxTimeout {
			timeout = rpcMaxTimeout
		}
	}
}

// jtagExchange performs a reliable JTAG transaction with a node: the
// reply must come from the node's JTAG address and echo the op (and,
// when addrMatters, the address — OpStartBoot and OpStatus replies
// carry no address).
func (d *Daemon) jtagExchange(p *event.Proc, port *ethjtag.Port, rank int, op ethjtag.JTAGOp, addr, data uint64, addrMatters bool) (uint64, error) {
	jaddr := ethjtag.NodeJTAGAddr(rank)
	what := func() string { return fmt.Sprintf("node %d jtag op %d addr %#x", rank, op, addr) }
	rep, err := d.exchange(p, port, ethjtag.Packet{
		Dst: jaddr, Port: ethjtag.PortJTAG,
		JTAG: ethjtag.JTAGCmd{Op: op, Addr: addr, Data: data},
	}, what, func(rep ethjtag.Packet) bool {
		return rep.Src == jaddr && rep.Port == ethjtag.PortJTAG &&
			rep.JTAG.Op == op && (!addrMatters || rep.JTAG.Addr == addr)
	})
	return rep.JTAG.Data, err
}
