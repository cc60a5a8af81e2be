package scu

import (
	"errors"
	"fmt"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
	"qcdoc/internal/scupkt"
)

// pendingWord is a transmitted-but-unacknowledged data word held in the
// SCU's resend registers. sentAt is the last transmission time, kept
// for the in-flight/resend-gap histograms (telemetry only; the resend
// protocol never reads it).
type pendingWord struct {
	seq    int
	word   uint64
	sentAt event.Time
	t      *transfer // owning send transfer; nil for injected global words
}

// txState is the transmit engine's state. The zero value is an engine
// not yet started, which no kick wakes.
type txState uint8

const (
	txOff     txState = iota // not started
	txIdle                   // nothing to send
	txStartup                // charging the DMA programming/fetch pipeline
	txRun                    // streaming words
	txWindow                 // a word is held, waiting for an ack
)

// linkUnit is the per-link hardware: a transmit engine feeding the
// outbound wire and a receive engine draining the inbound wire, flat
// state machines on the engine's continuation tier. A 1024-node machine
// has 12288, so like the hardware they allocate nothing: they live in
// their SCU by value, frames are values, the registers fixed arrays,
// and the timers and wake-ups are bound to the unit itself. Acks for our
// transmissions arrive on the inbound wire with the neighbour's traffic.
type linkUnit struct {
	scu  *SCU
	link geom.Link
	out  *hssl.Wire
	in   *hssl.Wire

	stats Stats
	hist  *LinkHists      // latency distributions; nil until enabled
	txSum scupkt.Checksum // data words transmitted (first transmissions)
	rxSum scupkt.Checksum // data words accepted in order

	// Transmit side. The engine advances via pump(): every entry point
	// that creates transmit work (a programmed send, an injected global
	// word, a window-opening ack, the end of the DMA startup charge)
	// calls pump, which sends words until it must park — idle, in the
	// startup charge, or with the window full.
	tx          txState
	ackTimer    event.Timer     // lost-acknowledgement recovery
	supTimer    event.Timer     // supervisor stop-and-wait recovery
	pumpPending bool            // a deferred pump event is queued
	txPending   fifo[*transfer] // programmed send transfers
	cur         *transfer       // transfer currently streaming
	curIdx      int             // next word index within cur
	held        bool            // a fetched word is in hand, awaiting window room
	heldWord    uint64
	heldT       *transfer
	seqNext     int

	// injects holds global-operation words awaiting priority
	// transmission.
	injects fifo[uint64]

	// unacked is the hardware's resend register file: at most window
	// (< SeqMod) words, a fixed ring.
	unacked     [scupkt.SeqMod]pendingWord
	unackedHead int
	unackedLen  int

	supPending bool
	supWord    uint64
	supQueue   fifo[uint64]

	// Link-recovery escalation ladder (ack timeout → retrain → dead).
	// timeoutStreak counts consecutive recovery timeouts since the last
	// acknowledgement progress; retrainCount counts consecutive
	// re-trainings since the last progress. Both reset whenever an ack
	// pops the window or a supervisor ack lands.
	timeoutStreak int
	retrainCount  int
	retraining    bool // outbound wire is re-training; transmissions suppressed
	dead          bool // link declared permanently failed; see fail

	// Receive side: a pure continuation — HandleFrame runs directly in
	// each frame's arrival event.
	expect     int
	nakPending bool
	rxT        fifo[*transfer] // programmed receive transfers
	rxProgress int             // words stored into the head of rxT

	// idleBuf is the idle-receive register file: up to window words held
	// without acknowledgement until a receive is programmed.
	idleBuf     [scupkt.SeqMod]uint64
	idleBufHead int
	idleBufLen  int
	ff          *ffPair // fast-forward state shared with the far end; see ff.go
	ffSide      uint8
}

// fifo is a head-indexed queue that keeps its storage when it drains;
// its first item needs none (first).
type fifo[T any] struct {
	items []T
	head  int
	first [1]T
}

func (q *fifo[T]) push(v T) {
	if q.items == nil {
		q.items = q.first[:0]
	}
	q.items = append(q.items, v)
}
func (q *fifo[T]) len() int { return len(q.items) - q.head }
func (q *fifo[T]) peek() T  { return q.items[q.head] }

func (q *fifo[T]) pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero // a popped transfer is not pinned by the queue
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

func (lu *linkUnit) start() {
	lu.tx = txIdle
	lu.ackTimer.Bind(lu.scu.eng, lu, evAckTimeout)
	lu.supTimer.Bind(lu.scu.eng, lu, evSupTimeout)
	lu.in.Attach(lu)
	if lu.injects.len() > 0 {
		lu.kick(txIdle) // drain anything injected before Start
	}
}

// sendPacket transmits one packet as a value frame; an untrained wire is
// an assembly error. A re-training or dead link suppresses it: the word
// stays in the unacked ring (or under a stop-and-wait timer), re-issued
// once the link is back — or never, if it isn't.
func (lu *linkUnit) sendPacket(p scupkt.Packet) {
	if lu.retraining || lu.dead {
		return
	}
	if _, err := lu.out.Send(p.Wire()); err != nil {
		panic(fmt.Sprintf("scu %s link %v: %v", lu.scu.name, lu.link, err))
	}
}

// --- Transmit engine ---------------------------------------------------

// queueSend programs a DMA send transfer and kicks the transmit engine.
func (lu *linkUnit) queueSend(t *transfer) {
	lu.txPending.push(t)
	lu.kick(txIdle)
}

// inject queues a global-operation word for priority transmission.
func (lu *linkUnit) inject(w uint64) {
	lu.injects.push(w)
	lu.kick(txIdle)
}

// kick wakes the transmit engine parked in state with a deferred pump:
// the once-per-transfer wake-ups (a send, an injected global word, a
// retrain's end). The deferral lets the caller finish its own sends
// first, the frame order every pinned trace records; handleAck pumps
// inline. An engine not parked in state ignores the kick.
func (lu *linkUnit) kick(state txState) {
	if lu.pumpPending || lu.tx != state {
		return
	}
	lu.pumpPending = true
	lu.scu.eng.AfterHandler(0, lu, evPump)
}

// The link unit is the handler of its own two transmit wake-ups and of
// its two timers' firings, told apart by the argument.
const (
	evPump       = iota // the deferred pump of a kick
	evStartup           // the end of the DMA startup charge
	evAckTimeout        // ackTimer fired
	evSupTimeout        // supTimer fired
)

// HandleEvent runs a transmit wake-up or a recovery timeout.
func (lu *linkUnit) HandleEvent(ev uint64) {
	switch ev {
	case evAckTimeout:
		lu.ackTimeout()
		return
	case evSupTimeout:
		lu.supTimeout()
		return
	case evPump:
		lu.pumpPending = false
	default:
		lu.tx = txRun
	}
	lu.pump()
}

// pump advances the transmit engine until it parks. Word order matches
// the hardware priorities: injected global-operation words preempt
// between the words of a bulk transfer; a word fetched from memory while
// the ack window is full stays in hand and goes out first when the
// window opens.
func (lu *linkUnit) pump() {
	if lu.tx == txStartup {
		return // the startup timer will pump when the charge elapses
	}
	for {
		if !lu.held {
			switch {
			case lu.injects.len() > 0:
				lu.heldWord = lu.injects.pop()
				lu.heldT = nil
				lu.held = true
			case lu.cur != nil:
				// Fetch the next word of the streaming transfer.
				lu.heldWord = lu.scu.mem.ReadWord(lu.cur.desc.Addr(lu.curIdx))
				lu.heldT = lu.cur
				lu.held = true
				lu.curIdx++
				if lu.curIdx == lu.cur.total {
					lu.cur = nil
					lu.curIdx = 0
				}
			case lu.txPending.len() > 0:
				// DMA programming and the fetch pipeline to the first bit
				// on the wire.
				lu.cur = lu.txPending.pop()
				lu.curIdx = 0
				lu.tx = txStartup
				lu.ffArm()
				startup := lu.scu.clock.Cycles(txStartupCycles)
				lu.scu.eng.AfterHandler(startup, lu, evStartup)
				return
			default:
				lu.tx = txIdle
				return
			}
		}
		if lu.unackedLen >= window {
			lu.tx = txWindow
			return // an ack will pump
		}
		lu.sendHeld()
	}
}

// sendHeld transmits the word in hand (window room guaranteed by pump).
func (lu *linkUnit) sendHeld() {
	seq := lu.seqNext
	lu.seqNext = (lu.seqNext + 1) % scupkt.SeqMod
	lu.unacked[(lu.unackedHead+lu.unackedLen)%scupkt.SeqMod] =
		pendingWord{seq: seq, word: lu.heldWord, sentAt: lu.scu.eng.Now(), t: lu.heldT}
	lu.unackedLen++
	lu.sendPacket(scupkt.Packet{Kind: scupkt.DataKind(seq), Payload: lu.heldWord})
	lu.txSum.Add(lu.heldWord)
	lu.stats.WordsSent++
	lu.held = false
	lu.heldT = nil
	if lu.unackedLen == 1 {
		lu.ackTimer.Arm(ackTimeout)
	}
}

// ackTimeout is the lost-acknowledgement recovery: resend the oldest
// unacknowledged word and restart the clock (every window-head pop
// re-arms or stops it). A streak with no progress re-trains the link.
func (lu *linkUnit) ackTimeout() {
	if lu.unackedLen == 0 || lu.retraining || lu.dead {
		return
	}
	if lu.timeoutStreak++; lu.timeoutStreak >= retrainAfter {
		lu.beginRetrain()
		return
	}
	lu.resend(&lu.unacked[lu.unackedHead])
	lu.ackTimer.Arm(ackTimeout)
}

// resend retransmits one unacknowledged word, recording the gap since
// its last transmission (telemetry only; one nil test when disabled).
func (lu *linkUnit) resend(pw *pendingWord) {
	lu.sendPacket(scupkt.Packet{Kind: scupkt.DataKind(pw.seq), Payload: pw.word})
	lu.stats.Resends++
	now := lu.scu.eng.Now()
	if lu.hist != nil {
		lu.hist.ResendGap.Record(uint64(now - pw.sentAt))
	}
	pw.sentAt = now
}

// resendUnacked rewinds: every word still unacknowledged goes out again,
// in order.
func (lu *linkUnit) resendUnacked() {
	for i := 0; i < lu.unackedLen; i++ {
		lu.resend(&lu.unacked[(lu.unackedHead+i)%scupkt.SeqMod])
	}
}

// sendSupervisor transmits a supervisor word with stop-and-wait
// acknowledgement; further words queue behind it.
func (lu *linkUnit) sendSupervisor(w uint64) {
	if lu.supPending {
		lu.supQueue.push(w)
		return
	}
	lu.transmitSup(w)
}

func (lu *linkUnit) transmitSup(w uint64) {
	lu.supPending = true
	lu.supWord = w
	lu.sendPacket(scupkt.Packet{Kind: scupkt.Supervisor, Payload: w})
	lu.stats.SupsSent++
	lu.supTimer.Arm(ackTimeout)
}

// supTimeout resends the outstanding supervisor word (stop-and-wait
// recovery), feeding the same escalation streak as data timeouts.
func (lu *linkUnit) supTimeout() {
	if !lu.supPending || lu.retraining || lu.dead {
		return
	}
	if lu.timeoutStreak++; lu.timeoutStreak >= retrainAfter {
		lu.beginRetrain()
		return
	}
	lu.resendSup()
}

func (lu *linkUnit) resendSup() {
	lu.sendPacket(scupkt.Packet{Kind: scupkt.Supervisor, Payload: lu.supWord})
	lu.stats.Resends++
	lu.supTimer.Arm(ackTimeout)
}

// beginRetrain resets and re-trains the outbound wire (§2.2), silent for
// the training time; retrains with no ack progress escalate to fail.
func (lu *linkUnit) beginRetrain() {
	lu.retrainCount++
	if lu.retrainCount > maxRetrains {
		lu.fail()
		return
	}
	lu.stats.Retrains++
	lu.timeoutStreak = 0
	lu.retraining = true
	lu.ackTimer.Stop()
	lu.supTimer.Stop()
	lu.out.Reset()
	lu.out.TrainAsync(lu.retrainDone)
}

// retrainDone resumes the link: resend everything unacknowledged,
// restart the recovery clocks, release a parked transmit engine.
func (lu *linkUnit) retrainDone() {
	if lu.dead {
		return
	}
	lu.retraining = false
	lu.resendUnacked()
	if lu.unackedLen > 0 {
		lu.ackTimer.Arm(ackTimeout)
	}
	if lu.supPending {
		lu.resendSup()
	}
	lu.kick(txWindow)
	lu.kick(txIdle)
}

// fail declares the link dead after maxRetrains fruitless re-trainings
// and escalates through the SCU's supervisor interrupt path.
func (lu *linkUnit) fail() {
	lu.dead = true
	lu.stats.LinkFailures++
	lu.ackTimer.Stop()
	lu.supTimer.Stop()
	lu.scu.raiseLinkFailure(lu.link)
}

// --- Receive engine ----------------------------------------------------

// HandleFrame is the receive engine (an hssl.Receiver): it runs in each
// inbound frame's arrival event, then lets the pair's fast-forward look.
func (lu *linkUnit) HandleFrame(f hssl.Frame) {
	if lu.ff != nil {
		defer lu.ff.arrived(lu.ffSide, f)
	}
	pkt, _, err := f.Decode()
	if err != nil {
		lu.handleCorrupt(err)
		return
	}
	switch {
	case pkt.Kind == scupkt.Ack:
		lu.handleAck(uint8(pkt.Payload))
	case pkt.Kind == scupkt.Supervisor:
		lu.handleSupervisor(pkt.Payload)
	case pkt.Kind == scupkt.PartIRQ:
		lu.scu.part.receive(lu.link, uint8(pkt.Payload))
	case pkt.Kind == scupkt.Idle:
		// Trained links exchange idles; nothing to do.
	default:
		seq, _ := pkt.Kind.DataSeq()
		lu.handleData(seq, pkt.Payload)
	}
}

func (lu *linkUnit) handleCorrupt(err error) {
	if errors.Is(err, scupkt.ErrParity) {
		lu.stats.ParityErrors++
	} else {
		lu.stats.HeaderErrors++
	}
	lu.sendNak()
}

// lastAccepted is the sequence number an ack or nak may carry: the
// newest in-order word that has reached memory. Words idle receive still
// holds are accepted but not yet acknowledgeable — an ack or nak that
// covered them would reopen the sender's window onto a full register
// file.
func (lu *linkUnit) lastAccepted() int {
	return (lu.expect + 2*scupkt.SeqMod - 1 - lu.idleBufLen) % scupkt.SeqMod
}

// sendNak requests a rewind-resend of everything unacknowledged. One nak
// per stall: repeated errors before the next in-order acceptance are
// suppressed to avoid redundant rewinds.
func (lu *linkUnit) sendNak() {
	if lu.nakPending {
		return
	}
	lu.nakPending = true
	flags := scupkt.AckNak | uint8(lu.lastAccepted())&scupkt.AckSeqMask
	lu.sendPacket(scupkt.Packet{Kind: scupkt.Ack, Payload: uint64(flags)})
	lu.stats.NaksSent++
}

// sendCumAck acknowledges everything stored so far.
func (lu *linkUnit) sendCumAck() {
	flags := uint8(lu.lastAccepted()) & scupkt.AckSeqMask
	lu.sendPacket(scupkt.Packet{Kind: scupkt.Ack, Payload: uint64(flags)})
	lu.stats.AcksSent++
}

func (lu *linkUnit) handleData(seq int, w uint64) {
	delta := (seq - lu.expect + scupkt.SeqMod) % scupkt.SeqMod
	if delta != 0 {
		lu.stats.Duplicates++
		if lu.idleBufLen > 0 {
			// Duplicates of held words while acks are withheld; stay silent
			// so the sender remains blocked (idle receive).
			return
		}
		if delta == scupkt.SeqMod-1 {
			// Duplicate of the last accepted word: its ack was lost, re-ack.
			lu.sendCumAck()
			return
		}
		// A gap: an earlier frame was corrupt. The nak for it is normally
		// already pending; this is the defensive fallback.
		lu.sendNak()
		return
	}

	// In-order word.
	lu.nakPending = false
	lu.expect = (lu.expect + 1) % scupkt.SeqMod
	lu.rxSum.Add(w)
	lu.stats.WordsReceived++

	if gs := lu.scu.globalIn[geom.LinkIndex(lu.link)]; gs >= 0 {
		lu.sendCumAck()
		lu.scu.globals[gs].receive(w)
		return
	}
	if lu.rxT.len() == 0 {
		// Idle receive: hold the word in an SCU register and withhold the
		// acknowledgement; the sender's window will block it after
		// window words (§2.2).
		if lu.idleBufLen >= window {
			panic(fmt.Sprintf("scu %s link %v: idle-receive overflow (window protocol violated)",
				lu.scu.name, lu.link))
		}
		lu.idleBuf[(lu.idleBufHead+lu.idleBufLen)%scupkt.SeqMod] = w
		lu.idleBufLen++
		return
	}
	lu.storeWord(w)
	lu.sendCumAck()
}

// popIdle removes the oldest idle-held word.
func (lu *linkUnit) popIdle() uint64 {
	w := lu.idleBuf[lu.idleBufHead]
	lu.idleBufHead = (lu.idleBufHead + 1) % scupkt.SeqMod
	lu.idleBufLen--
	return w
}

// storeWord lands an accepted word in local memory via the receive DMA.
func (lu *linkUnit) storeWord(w uint64) {
	t := lu.rxT.peek()
	lu.scu.mem.WriteWord(t.desc.Addr(lu.rxProgress), w)
	lu.rxProgress++
	done := lu.rxProgress == t.total
	t.progress(lu.scu.eng, lu.scu.eng.Now()+lu.scu.rxStartup)
	if done {
		lu.rxT.pop()
		lu.rxProgress = 0
	}
}

// programRecv attaches a receive transfer; any idle-held words drain into
// it immediately and the withheld acknowledgement is released.
func (lu *linkUnit) programRecv(t *transfer) {
	lu.rxT.push(t)
	drained := false
	for lu.idleBufLen > 0 && lu.rxT.len() > 0 {
		lu.storeWord(lu.popIdle())
		drained = true
	}
	if drained {
		lu.sendCumAck()
	}
}

// containsSeq reports whether seq is in the unacked ring, which holds
// consecutive sequence numbers from its head.
func (lu *linkUnit) containsSeq(seq int) bool {
	return (seq-lu.unacked[lu.unackedHead].seq+scupkt.SeqMod)%scupkt.SeqMod < lu.unackedLen
}

func (lu *linkUnit) handleAck(flags uint8) {
	if flags&scupkt.AckSup != 0 {
		lu.supPending = false
		lu.supTimer.Stop()
		lu.timeoutStreak = 0
		lu.retrainCount = 0
		if lu.supQueue.len() > 0 {
			lu.transmitSup(lu.supQueue.pop())
		}
		return
	}
	a := int(flags & scupkt.AckSeqMask)
	opened := lu.containsSeq(a)
	if opened {
		// Acknowledgement progress resets the recovery escalation ladder.
		lu.timeoutStreak = 0
		lu.retrainCount = 0
		// Cumulative: pop everything up to and including a.
		for {
			pw := lu.unacked[lu.unackedHead]
			lu.unackedHead = (lu.unackedHead + 1) % scupkt.SeqMod
			lu.unackedLen--
			if lu.hist != nil {
				lu.hist.InFlight.Record(lu.ff.inFlight(lu.ffSide, uint64(lu.scu.eng.Now()-pw.sentAt)))
			}
			if pw.t != nil {
				pw.t.progress(lu.scu.eng, lu.scu.eng.Now())
			}
			if pw.seq == a {
				break
			}
		}
		// Every head pop restarts (or, with nothing left in flight,
		// stops) the lost-ack recovery clock.
		if lu.unackedLen > 0 {
			lu.ackTimer.Arm(ackTimeout)
		} else {
			lu.ackTimer.Stop()
		}
	}
	if flags&scupkt.AckNak != 0 {
		lu.resendUnacked() // the automatic hardware resend
	}
	// The window opened: release the held word, after any rewind, so the
	// wire carries the resends and then the new word.
	if opened && lu.tx == txWindow {
		lu.pump()
	}
}

func (lu *linkUnit) handleSupervisor(w uint64) {
	lu.scu.lastSup[geom.LinkIndex(lu.link)] = w
	lu.stats.SupsReceived++
	lu.sendPacket(scupkt.Packet{Kind: scupkt.Ack, Payload: uint64(scupkt.AckSup)})
	lu.stats.AcksSent++
	if lu.scu.onSupervisor != nil {
		lu.scu.onSupervisor(lu.link, w)
	}
}

func (lu *linkUnit) sendPartIRQ(mask uint8) {
	lu.sendPacket(scupkt.Packet{Kind: scupkt.PartIRQ, Payload: uint64(mask)})
	lu.stats.PartIRQsSent++
}
