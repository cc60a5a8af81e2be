package scu

import (
	"cmp"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
	"qcdoc/internal/scupkt"
)

// Fast-forward of quiet link pairs: DESIGN.md §9, "Quiet link pairs".

const (
	ffMinWords = 128 // a send shorter than this does not arm its pair
	ffFly      = 4   // frames in flight per wire a snapshot holds
	ffChunkMax = 16  // ffArm's chunks of pairs double from 4 up to this
)

// ffEngine is shared by paired SCUs on an engine: H, for Run hRun until reached.
type ffEngine struct {
	eng     *event.Engine
	horizon event.Time
	hRun    uint64
	owned   func(event.Handler, uint64) bool // isOwned, bound once
	buf     [512]uint64
	pairs   []ffPair // the chunk ffArm takes its pairs from, up to its capacity
}

// isOwned: a closed pair's event, or a transfer completion waking nobody.
func (es *ffEngine) isOwned(h event.Handler, _ uint64) bool {
	lu, ok := h.(*linkUnit)
	if w, wire := h.(*hssl.Wire); wire {
		lu, ok = w.Receiver().(*linkUnit)
	}
	t, done := h.(*transfer)
	return ok && lu.pairClosed() || done && !waited(t)
}

// horizonAt returns H, capped one past the current Run's bound.
func (es *ffEngine) horizonAt() event.Time {
	until, run := es.eng.RunBound()
	if run != es.hRun || es.eng.Now() >= es.horizon {
		es.horizon, es.hRun = es.eng.EarliestRejected(es.owned), run
	}
	return min(es.horizon, max(until, until+1)) // until+1 wraps at Forever
}

// pairClosed: nobody waits on the pair's transfers, each side keeps to it.
func (lu *linkUnit) pairClosed() bool {
	p, _ := lu.out.Receiver().(*linkUnit) // the far end
	return p != nil && lu.closedTo(p) && p.closedTo(lu) && !lu.anyTransfer(waited) && !p.anyTransfer(waited)
}

// closedTo: no hook, supervisor, partition, global or idle-held word, no retrain,
// only data and plain acks in flight, all words left covered by p's receives.
func (lu *linkUnit) closedTo(p *linkUnit) bool {
	w := lu.out
	if lu.retraining || lu.dead || lu.supPending || lu.supQueue.len() > 0 ||
		lu.injects.len() > 0 || lu.idleBufLen > 0 || lu.nakPending || lu.timeoutStreak > 0 ||
		lu.scu.globalIn[geom.LinkIndex(lu.link)] >= 0 || !w.Clean() {
		return false
	}
	for i := 0; i < w.InFlight(); i++ {
		if _, ok := frameRel(w.InFlightFrame(i).Frame, lu, p); !ok {
			return false
		}
	}
	left, room := seqBack(lu.seqNext, p.expect), -p.rxProgress
	if lu.held {
		left++
	}
	if lu.cur != nil {
		left += lu.cur.total - lu.curIdx
	}
	for _, t := range lu.txPending.items[lu.txPending.head:] {
		left += t.total
	}
	for _, t := range p.rxT.items[p.rxT.head:] {
		room += t.total
	}
	return left <= room
}

// anyTransfer: fn holds for a transfer lu sends, receives or holds a word of.
func (lu *linkUnit) anyTransfer(fn func(*transfer) bool) bool {
	for i := 0; i < lu.unackedLen; i++ {
		if t := lu.unacked[(lu.unackedHead+i)%scupkt.SeqMod].t; t != nil && fn(t) {
			return true
		}
	}
	for _, q := range [2]*fifo[*transfer]{&lu.txPending, &lu.rxT} {
		for _, t := range q.items[q.head:] {
			if fn(t) {
				return true
			}
		}
	}
	return lu.cur != nil && fn(lu.cur) || lu.held && lu.heldT != nil && fn(lu.heldT)
}

func waited(t *transfer) bool { return t.done.Waiting() > 0 }

func seqBack(next, seq int) int { return (next - seq + scupkt.SeqMod) % scupkt.SeqMod }

// frameRel places a data or plain ack frame of x's: its sequence number
// behind x's next, or 8 + the acknowledged one's behind p's next.
func frameRel(f hssl.Frame, x, p *linkUnit) (uint32, bool) {
	pkt, _, err := f.Decode()
	if seq, ok := pkt.Kind.DataSeq(); ok {
		return uint32(seqBack(x.seqNext, seq)), err == nil
	}
	a := uint8(pkt.Payload)
	return uint32(8 + seqBack(p.seqNext, int(a&scupkt.AckSeqMask))),
		err == nil && pkt.Kind == scupkt.Ack && a&(scupkt.AckSup|scupkt.AckNak) == 0
}

// ffPair, shared by lu[i] (ffSide i): a reference snapshot and the latest.
type ffPair struct {
	es        *ffEngine
	lu        [2]*linkUnit
	ref, cur  ffSnap
	age, skip int32
	lat       [2][8]uint64 // the last latencies each side's InFlight histogram took
	nlat      [2]int32
}

// ffSnap: rel (relative to at; a frame in flight: arrival<<6|frameRel) is what
// snapshots a period apart share; the rest measures the period's progress.
type ffSnap struct {
	rel [2]struct {
		busy, ackDue       event.Time
		fly                [ffFly]uint32
		tx                 txState
		sending, held      bool
		unacked, lag, nfly int8
	}
	at              event.Time
	idx, sent, lats [2]int32 // curIdx, WordsSent, nlat
	other           uint32
}

// ffArm: a long send on a serial engine (re)starts the pair's search.
func (lu *linkUnit) ffArm() {
	p, _ := lu.out.Receiver().(*linkUnit)
	if lu.cur.total >= ffMinWords && lu.ff == nil && p != nil && lu.scu.eng.Cluster() == nil {
		es := cmp.Or(lu.scu.ff, p.scu.ff)
		if es == nil {
			es = &ffEngine{eng: lu.scu.eng}
			es.owned = es.isOwned
		}
		lu.scu.ff, p.scu.ff = es, es
		if len(es.pairs) == cap(es.pairs) {
			es.pairs = make([]ffPair, 0, min(max(2*cap(es.pairs), 4), ffChunkMax))
		}
		es.pairs = append(es.pairs, ffPair{es: es, lu: [2]*linkUnit{lu, p}})
		fp := &es.pairs[len(es.pairs)-1]
		lu.ff, lu.ffSide, p.ff, p.ffSide = fp, 0, fp, 1
	}
	if fp := lu.ff; fp != nil && lu.cur.total >= ffMinWords {
		fp.age, fp.skip = 0, 0
	}
}

// arrived: snapshot when side 1's data (or, sending none, acks) reach side 0.
func (fp *ffPair) arrived(side uint8, f hssl.Frame) {
	pkt, _, _ := f.Decode()
	if _, data := pkt.Kind.DataSeq(); side != 0 || data != (fp.lu[1].cur != nil) {
		return
	}
	switch {
	case fp.skip > 0:
		fp.skip--
	case !fp.snap(&fp.cur):
		fp.age = 0
	case fp.age > 0 && fp.cur.rel == fp.ref.rel && fp.ref.at < fp.cur.at:
		if fp.age = 0; !fp.try(&fp.ref, &fp.cur) {
			fp.skip = 4 // back off
		}
	case fp.age == 0 || fp.age >= 8: // an unmatched reference is renewed
		fp.ref, fp.age = fp.cur, 1
	default:
		fp.age++
	}
}

// snap takes a snapshot, false unless the pair streams one send a side.
func (fp *ffPair) snap(s *ffSnap) bool {
	now := fp.es.eng.Now()
	s.at, s.other = now, 0
	for side, x := range fp.lu {
		p, w, r := fp.lu[1-side], x.out, &s.rel[side]
		if w.InFlight() > ffFly || x.pumpPending || x.tx == txStartup || x.idleBufLen > 0 || x.nakPending ||
			x.held && x.heldT != x.cur {
			return false
		}
		for i := 0; i < x.unackedLen; i++ {
			if x.unacked[(x.unackedHead+i)%scupkt.SeqMod].t != x.cur {
				return false
			}
		}
		due, _ := x.ackTimer.Deadline() // -1 when not armed
		r.busy, r.ackDue, r.tx, r.sending, r.held = max(0, w.BusyUntil()-now), max(-1, due-now), x.tx, x.cur != nil, x.held
		r.unacked, r.lag, r.nfly, r.fly = int8(x.unackedLen), int8(seqBack(x.seqNext, p.expect)), int8(w.InFlight()), [ffFly]uint32{}
		for i := range r.fly[:r.nfly] {
			f := w.InFlightFrame(i)
			rel, ok := frameRel(f.Frame, x, p)
			if d := f.At - now; !ok || d < 0 || d >= 1<<26 {
				return false
			}
			r.fly[i] = uint32(f.At-now)<<6 | rel
		}
		st, ws := &x.stats, w.Stats()
		s.idx[side], s.sent[side], s.lats[side] = int32(x.curIdx), int32(st.WordsSent), fp.nlat[side]
		for i := range statsFields {
			s.other += uint32(st.Value(i))
		}
		s.other += uint32(ws.Corrupted + ws.Dropped - st.WordsSent - st.WordsReceived - st.AcksSent)
	}
	return true
}

// try jumps all the periods (≥ 2) the ends and H allow, s a period after j.
func (fp *ffPair) try(j, s *ffSnap) bool {
	var dw [2]int
	m := int(^uint(0) >> 1)
	for side, x := range fp.lu {
		p, n := fp.lu[1-side], int(s.idx[side]-j.idx[side])
		if x.cur == nil {
			n = 0
		}
		if n < 0 || s.sent[side]-j.sent[side] != int32(n) || n > 0 && p.rxT.len() == 0 ||
			n > 0 && (x.scu.touches(x.cur) || p.scu.touches(p.rxT.peek()) || x.cur.desc.NumBlocks > 1 ||
				p.rxT.peek().desc.NumBlocks > 1) || x.hist != nil && (n > 8 || s.lats[side]-j.lats[side] != int32(n)) {
			return false
		}
		if dw[side] = n; n > 0 {
			m = min(m, (x.cur.total-1-x.curIdx)/n, (p.rxT.peek().total-1-p.rxProgress)/n)
		}
	}
	if dw[0]+dw[1] == 0 || s.other != j.other || m < 2 || !fp.lu[0].pairClosed() {
		return false
	}
	h := fp.es.horizonAt() // and no armed lost-ack clock's queued firing
	for _, x := range fp.lu {
		if q, ok := x.ackTimer.Queued(); ok {
			h = min(h, q)
		}
	}
	period := s.at - j.at
	m = min(m, int((h-1-s.at)/period))
	for _, r := range s.rel { // a frame's old arrival comes before H and the first moved one
		for _, f := range r.fly[:r.nfly] {
			if off := event.Time(f >> 6); off >= event.Time(m)*period || s.at+off >= h {
				return false
			}
		}
	}
	if m >= 2 {
		fp.jump(m, event.Time(m)*period, dw)
	}
	return m >= 2
}

// touches: t, one of s's transfers, has a range that meets another
// transfer's on s, one of them a receive. A transfer joins s's sets only
// when posted (s.posts counts them) and leaving cannot make an overlap,
// so a "no" holds until the next post.
func (s *SCU) touches(t *transfer) bool {
	if t.apart == s.posts+1 {
		return false
	}
	meets := func(o *transfer) bool {
		return o != t && !(t.send && o.send) && o.desc.Base < t.desc.Addr(t.total-1)+8 && t.desc.Base < o.desc.Addr(o.total-1)+8
	}
	for _, lu := range s.links {
		if lu != nil && lu.anyTransfer(meets) {
			return true
		}
	}
	t.apart = s.posts + 1
	return false
}

// jump moves the pair m periods (d) on, one "scu-ff" span in a recorder's trace.
func (fp *ffPair) jump(m int, d event.Time, dw [2]int) {
	fp.es.eng.MarkSpanBegin("scu-ff")
	defer fp.es.eng.MarkSpanEnd("scu-ff")
	for side, x := range fp.lu {
		p, w, n, np := fp.lu[1-side], x.out, m*dw[side], m*dw[1-side]
		sent := x.curIdx
		if x.held {
			sent--
		}
		for i := 0; i < w.InFlight(); i++ {
			f := w.InFlightFrame(i)
			pkt, _, _ := f.Decode()
			if seq, ok := pkt.Kind.DataSeq(); ok {
				pkt = scupkt.Packet{Kind: scupkt.DataKind(seq + n), Payload: x.scu.mem.ReadWord(x.cur.desc.Addr(sent - seqBack(x.seqNext, seq) + n))}
			} else {
				pkt.Payload = (pkt.Payload + uint64(np)) % scupkt.SeqMod // a plain ack: its sequence number alone
			}
			f.Wire = pkt.Wire()
		}
		if n > 0 {
			fp.es.move(x, sent-seqBack(x.seqNext, p.expect), n, &p.rxSum, p)
			fp.es.move(x, sent, n, &x.txSum, nil)
			regs, k := x.unacked, x.unackedLen
			for i := range k {
				pw := regs[(x.unackedHead+i)%scupkt.SeqMod]
				pw.seq, pw.word, pw.sentAt = (pw.seq+n)%scupkt.SeqMod, x.scu.mem.ReadWord(x.cur.desc.Addr(sent-k+i+n)), pw.sentAt+d
				x.unacked[(x.unackedHead+n+i)%scupkt.SeqMod] = pw
			}
			x.unackedHead = (x.unackedHead + n) % scupkt.SeqMod
			if x.curIdx += n; x.held {
				x.heldWord = x.scu.mem.ReadWord(x.cur.desc.Addr(x.curIdx - 1))
			}
			x.seqNext, p.expect = (x.seqNext+n)%scupkt.SeqMod, (p.expect+n)%scupkt.SeqMod
			p.rxT.peek().wordsDone += n
			p.rxProgress, x.cur.wordsDone = p.rxProgress+n, x.cur.wordsDone+n
		}
		for k := 0; x.hist != nil && k < n; k++ { // the period's latencies, m times over
			x.hist.InFlight.Record(fp.lat[side][(fp.nlat[side]-int32(dw[side])+int32(k%dw[side]))%8])
		}
		x.stats.WordsSent, x.stats.WordsReceived, x.stats.AcksSent = x.stats.WordsSent+uint64(n),
			x.stats.WordsReceived+uint64(np), x.stats.AcksSent+uint64(np)
		w.FastForward(d, uint64(n+np), 8*uint64(n*scupkt.DataFrame+np*scupkt.AckFrame))
		if at, ok := x.ackTimer.Deadline(); ok {
			x.ackTimer.ArmAt(at + d)
		}
	}
}

// move folds x's send words [i, i+n) into sum and stores them for p.
func (es *ffEngine) move(x *linkUnit, i, n int, sum *scupkt.Checksum, p *linkUnit) {
	for done := 0; done < n; done += len(es.buf) {
		buf := es.buf[:min(n-done, len(es.buf))]
		x.scu.mem.ReadWords(x.cur.desc.Addr(i+done), buf)
		for _, w := range buf {
			sum.Add(w)
		}
		if p != nil {
			p.scu.mem.WriteWords(p.rxT.peek().desc.Addr(p.rxProgress+done), buf)
		}
	}
}

// inFlight keeps the last latencies lu[side]'s histogram took, returning v.
func (fp *ffPair) inFlight(side uint8, v uint64) uint64 {
	if fp != nil {
		fp.lat[side][fp.nlat[side]%8], fp.nlat[side] = v, fp.nlat[side]+1
	}
	return v
}
