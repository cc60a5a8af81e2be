package hssl

import (
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/scupkt"
)

// TestOnFrameDelivery checks the receiver: frames reach the handler at
// their arrival times, and frames that arrived before the handler
// attached drain in order.
func TestOnFrameDelivery(t *testing.T) {
	eng := event.New()
	w := NewWire(eng, "w", DefaultClock, 0)
	w.TrainAsync(nil)
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Two frames launched before any receiver exists.
	if _, err := w.Send(scupkt.WireOf([]byte{1})); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Send(scupkt.WireOf([]byte{2})); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	var got []byte
	w.OnFrame(func(f Frame) { got = append(got, f.Bytes()[0]) })
	// A third frame arrives after the handler attaches.
	if _, err := w.Send(scupkt.WireOf([]byte{3})); err != nil {
		t.Fatal(err)
	}
	var arriveAt event.Time
	arriveAt, _ = w.Send(scupkt.WireOf([]byte{4}))
	var lastAt event.Time
	w.rx = FrameFunc(func(f Frame) {
		got = append(got, f.Bytes()[0])
		lastAt = eng.Now()
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("frames = %v", got)
	}
	if lastAt != arriveAt {
		t.Fatalf("last frame handled at %v, arrival %v", lastAt, arriveAt)
	}
}
