package scu

import (
	"fmt"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
)

// GlobalConfig programs one of the SCU's two global-operation streams
// (§2.2, "Global operations"): data words arriving on the In link are
// delivered locally (OnWord) and passed through to every link in Outs
// (about a byte of store-and-forward delay in the hardware), the
// substrate of low-latency global sums and broadcasts. The stream ends
// after Expect words, of which the first Forward pass through (a ring
// reduction forwards all but the last, which has visited every node).
type GlobalConfig struct {
	// In is the link whose inbound data words belong to this stream.
	// Ignored when HasIn is false (a pure source, e.g. a broadcast
	// origin).
	In    geom.Link
	HasIn bool
	// Outs are the links the stream passes words through to.
	Outs []geom.Link
	// Expect is the number of words to receive before the stream is done.
	Expect int
	// Forward is how many of the received words (the first ones) are
	// passed through to Outs.
	Forward int
	// OnWord takes each received word with its arrival index; arrival
	// order on a given stream is deterministic (upstream neighbour's word
	// first).
	OnWord WordSink
}

// WordSink takes the idx-th word w of global stream id; a WordFunc is a
// function taking them, whatever the stream.
type WordSink interface {
	GlobalWord(stream, idx int, w uint64)
}
type WordFunc func(idx int, w uint64)

func (f WordFunc) GlobalWord(_, idx int, w uint64) { f(idx, w) }

// globalStream is the state of one of the SCU's two streams. The SCU
// owns both (SCU.streams); configuring one resets cfg and received and
// keeps the gate, so a run of global sums allocates no stream state.
type globalStream struct {
	scu      *SCU
	id       int
	cfg      GlobalConfig
	received int
	done     event.Gate
}

// ConfigureGlobal programs stream id (0 or 1 — the "doubled"
// functionality allows two disjoint link sets to run concurrent global
// operations). The links used must be attached and disjoint from the
// other active stream's links.
func (s *SCU) ConfigureGlobal(id int, cfg GlobalConfig) error {
	if id < 0 || id >= len(s.globals) {
		return fmt.Errorf("%w: stream %d", ErrBadStream, id)
	}
	if s.globals[id] != nil {
		return fmt.Errorf("%w: stream %d already active", ErrBadStream, id)
	}
	// The 24 uni-directional connections are independent resources: a
	// stream's receive side (In) conflicts only with the other stream's
	// receive side, and transmit (Outs) only with transmit.
	other := s.globals[1-id]
	if cfg.HasIn {
		if !s.Attached(cfg.In) {
			return fmt.Errorf("%w: in link %v not attached", ErrBadStream, cfg.In)
		}
		if other != nil && other.cfg.HasIn && other.cfg.In == cfg.In {
			return fmt.Errorf("%w: receive side of %v used by both streams", ErrBadStream, cfg.In)
		}
	}
	for _, o := range cfg.Outs {
		if !s.Attached(o) {
			return fmt.Errorf("%w: out link %v not attached", ErrBadStream, o)
		}
		if other != nil {
			for _, oo := range other.cfg.Outs {
				if oo == o {
					return fmt.Errorf("%w: transmit side of %v used by both streams", ErrBadStream, o)
				}
			}
		}
	}
	if cfg.Expect < 0 || cfg.Forward > cfg.Expect {
		return fmt.Errorf("%w: expect %d forward %d", ErrBadStream, cfg.Expect, cfg.Forward)
	}
	gs := &s.streams[id]
	gs.cfg, gs.received = cfg, 0
	s.globals[id] = gs
	if cfg.HasIn {
		s.globalIn[geom.LinkIndex(cfg.In)] = int8(id)
		// Idle receive interplay (§2.2): stream words that arrived before
		// the stream was configured are being held, unacknowledged, in the
		// link's SCU registers. Drain them into the stream and release the
		// withheld acknowledgement — the global-operation analogue of
		// programming a receive.
		lu := s.links[geom.LinkIndex(cfg.In)]
		if lu.idleBufLen > 0 {
			for lu.idleBufLen > 0 {
				gs.receive(lu.popIdle())
			}
			lu.sendCumAck()
		}
	}
	return nil
}

// GlobalInject sends this node's own contribution out on the stream's
// pass-through links (the "register used for sending").
func (s *SCU) GlobalInject(id int, w uint64) error {
	gs := s.globals[id]
	if gs == nil {
		return fmt.Errorf("%w: stream %d not configured", ErrBadStream, id)
	}
	for _, o := range gs.cfg.Outs {
		s.links[geom.LinkIndex(o)].inject(w)
	}
	return nil
}

// GlobalDone reports whether stream id has received its expected words.
func (s *SCU) GlobalDone(id int) bool {
	gs := s.globals[id]
	return gs != nil && gs.received >= gs.cfg.Expect
}

// WaitGlobal blocks until stream id completes.
func (s *SCU) WaitGlobal(p *event.Proc, id int) {
	for {
		gs := s.globals[id]
		if gs == nil || gs.received >= gs.cfg.Expect {
			return
		}
		gs.done.Wait(p, [...]string{"global 0", "global 1"}[id])
	}
}

// DisableGlobal tears down stream id; its In link returns to normal DMA
// reception.
func (s *SCU) DisableGlobal(id int) {
	gs := s.globals[id]
	if gs == nil {
		return
	}
	if gs.cfg.HasIn {
		s.globalIn[geom.LinkIndex(gs.cfg.In)] = -1
	}
	s.globals[id] = nil
}

// receive handles one stream word accepted on the In link.
func (gs *globalStream) receive(w uint64) {
	idx := gs.received
	gs.received++
	if idx >= gs.cfg.Expect {
		panic(fmt.Sprintf("scu %s: global stream %d received %d words, expected %d",
			gs.scu.name, gs.id, gs.received, gs.cfg.Expect))
	}
	if gs.cfg.OnWord != nil {
		gs.cfg.OnWord.GlobalWord(gs.id, idx, w)
	}
	if idx < gs.cfg.Forward {
		for _, o := range gs.cfg.Outs {
			gs.scu.links[geom.LinkIndex(o)].inject(w)
		}
	}
	if gs.received == gs.cfg.Expect {
		gs.done.Fire()
	}
}
