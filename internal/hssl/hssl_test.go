package hssl

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"qcdoc/internal/event"
	"qcdoc/internal/scupkt"
)

func trainedWire(e *event.Engine) *Wire {
	w := NewWire(e, "test", DefaultClock, DefaultPropagation)
	w.TrainAsync(nil)
	if err := e.RunAll(); err != nil {
		panic(err)
	}
	return w
}

// arrival is one frame as the receiver saw it.
type arrival struct {
	at event.Time
	f  Frame
}

// listen attaches a receiver that logs every frame with its time.
func listen(e *event.Engine, w *Wire) *[]arrival {
	got := new([]arrival)
	w.OnFrame(func(f Frame) { *got = append(*got, arrival{e.Now(), f}) })
	return got
}

func TestUntrainedRejects(t *testing.T) {
	e := event.New()
	w := NewWire(e, "w", DefaultClock, DefaultPropagation)
	if _, err := w.Send(scupkt.WireOf([]byte{1, 2, 3})); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("err = %v", err)
	}
}

func TestTrainingTakesTime(t *testing.T) {
	e := event.New()
	w := NewWire(e, "w", DefaultClock, DefaultPropagation)
	var doneAt event.Time
	w.TrainAsync(func() { doneAt = e.Now() })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := DefaultClock.Cycles(TrainingBytes*8) + DefaultPropagation
	if doneAt != want {
		t.Fatalf("trained at %v, want %v", doneAt, want)
	}
	if !w.Trained() {
		t.Fatal("not trained")
	}
}

func TestSerializationTiming(t *testing.T) {
	// A 9-byte frame at 500 MHz is 72 bits x 2 ns = 144 ns on the wire,
	// plus 5 ns of flight.
	e := event.New()
	w := trainedWire(e)
	start := e.Now()
	arrive, err := w.Send(scupkt.WireOf(make([]byte, 9)))
	if err != nil {
		t.Fatal(err)
	}
	want := start + 144*event.Nanosecond + DefaultPropagation
	if arrive != want {
		t.Fatalf("arrive = %v, want %v", arrive, want)
	}
	got := listen(e, w)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || (*got)[0].at != want || (*got)[0].f.Len() != 9 {
		t.Fatalf("received %v, want one 9-byte frame at %v", *got, want)
	}
}

func TestFIFOAndBackToBackSerialization(t *testing.T) {
	// Two frames sent at once serialize back to back, not in parallel.
	e := event.New()
	w := trainedWire(e)
	base := e.Now()
	a1, _ := w.Send(scupkt.WireOf(make([]byte, 9)))
	a2, _ := w.Send(scupkt.WireOf(make([]byte, 9)))
	ser := w.SerializeTime(9)
	if a1 != base+ser+DefaultPropagation {
		t.Fatalf("first frame at %v", a1)
	}
	if a2 != base+2*ser+DefaultPropagation {
		t.Fatalf("second frame at %v, want serialized after first", a2)
	}
	got := listen(e, w)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 2 || (*got)[0].f.Seq != 1 || (*got)[1].f.Seq != 2 {
		t.Fatalf("received %v, want frames 1 and 2 in order", *got)
	}
}

func TestPayloadIntegrity(t *testing.T) {
	e := event.New()
	w := trainedWire(e)
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	frame := scupkt.WireOf(payload)
	if _, err := w.Send(frame); err != nil {
		t.Fatal(err)
	}
	payload[0] = 0   // frames travel by value; the source buffer is dead at Send
	frame.FlipBit(1) // and so is the caller's Wire value
	rx := listen(e, w)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := (*rx)[0].f.Bytes(); !bytes.Equal(got, []byte{0xDE, 0xAD, 0xBE, 0xEF}) {
		t.Fatalf("received % x", got)
	}
}

func TestBandwidthMatchesClock(t *testing.T) {
	// 1000 9-byte frames at 500 Mbit/s = 72000 bits = 144 us of wire time.
	e := event.New()
	w := trainedWire(e)
	start := e.Now()
	var last event.Time
	for i := 0; i < 1000; i++ {
		last, _ = w.Send(scupkt.WireOf(make([]byte, 9)))
	}
	want := start + DefaultClock.Cycles(1000*72) + DefaultPropagation
	if last != want {
		t.Fatalf("last arrival %v, want %v", last, want)
	}
	// Payload bandwidth: 8 bytes per 72 bits -> 55.6 MB/s per wire
	// direction; 24 wires -> 1.33 GB/s aggregate (checked in scupkt).
	bytesPerSec := 8.0 * 1000 / (DefaultClock.Cycles(1000 * 72)).Seconds()
	if bytesPerSec < 55e6 || bytesPerSec > 56e6 {
		t.Fatalf("payload bandwidth %.3g B/s", bytesPerSec)
	}
}

func TestFaultInjectionOnce(t *testing.T) {
	e := event.New()
	w := trainedWire(e)
	w.SetFault(FlipBitOnce(2, 3))
	for i := 0; i < 3; i++ {
		if _, err := w.Send(scupkt.WireOf([]byte{0x00})); err != nil {
			t.Fatal(err)
		}
	}
	rx := listen(e, w)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	frames := *rx
	if len(frames) != 3 || frames[0].f.Bytes()[0] != 0 || frames[2].f.Bytes()[0] != 0 {
		t.Fatalf("received %v, want frames 1 and 3 intact", frames)
	}
	if frames[1].f.Bytes()[0] != 1<<3 {
		t.Fatalf("frame 2 = %#x, want bit 3 flipped", frames[1].f.Bytes()[0])
	}
	if w.Stats().Corrupted != 1 {
		t.Fatalf("corrupted count = %d", w.Stats().Corrupted)
	}
}

func TestFaultInjectionEvery(t *testing.T) {
	e := event.New()
	w := trainedWire(e)
	w.SetFault(FlipBitEvery(4))
	for i := 0; i < 16; i++ {
		w.Send(scupkt.WireOf([]byte{0, 0}))
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Corrupted; got != 4 {
		t.Fatalf("corrupted = %d, want 4", got)
	}
	if got := w.Stats().Frames; got != 16 {
		t.Fatalf("frames = %d", got)
	}
	if got := w.Stats().Bits; got != 16*16 {
		t.Fatalf("bits = %d", got)
	}
}

func TestReset(t *testing.T) {
	e := event.New()
	w := trainedWire(e)
	w.Reset()
	if w.Trained() {
		t.Fatal("still trained after reset")
	}
	if _, err := w.Send(scupkt.WireOf([]byte{1})); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("err = %v", err)
	}
}

// TestFrameIsThreeWords pins a frame in flight to the two words of its
// scupkt.Wire plus its frame number.
func TestFrameIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(Frame{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Frame{}) = %d, want 24", got)
	}
}
