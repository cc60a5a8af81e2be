package hssl

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/scupkt"
)

// A wire whose two ends sit on different shards must be the same wire.
// wireRun drives one seeded schedule — back-to-back bursts, gaps, frames
// launched before a receiver attaches, every third frame corrupted, a
// Reset and retrain mid-stream (sends in between are refused), and
// finally a Kill with traffic still coming — through the wire built by
// mk, and returns everything observable: what the receiver saw and when,
// what each Send returned, and the wire's counters.

type wireLog struct {
	Got      []arrival
	Arrivals []event.Time // Send's promised arrival time, 0 when refused
	Refused  int
	Stats    Stats
}

func wireRun(t *testing.T, seed int64, host, tx, rx *event.Engine) (wireLog, uint64) {
	t.Helper()
	w := NewWireBetween(tx, rx, "w", DefaultClock, DefaultPropagation)
	w.SetFault(FlipBitEvery(3))
	w.TrainAsync(nil)

	rng := rand.New(rand.NewSource(seed))
	var log wireLog
	send := func(b []byte) func() {
		return func() {
			at, err := w.Send(scupkt.WireOf(b))
			if errors.Is(err, ErrNotTrained) {
				log.Refused++
			} else if err != nil {
				t.Errorf("send: %v", err)
			}
			log.Arrivals = append(log.Arrivals, at)
		}
	}
	now := w.TrainTime()
	const bursts = 60
	for i := 0; i < bursts; i++ {
		now += event.Time(rng.Intn(3)) * event.Time(rng.Intn(400)) * event.Nanosecond // often no gap at all
		for k := 1 + rng.Intn(4); k > 0; k-- {
			b := make([]byte, MinTransmittedFrameBytes+rng.Intn(scupkt.MaxFrameBytes-MinTransmittedFrameBytes+1))
			rng.Read(b)
			tx.At(now, send(b))
		}
		switch i {
		case bursts / 4: // everything so far was launched at a wire nobody listens to
			rx.At(now+event.Time(rng.Intn(300))*event.Nanosecond, func() {
				w.OnFrame(func(f Frame) { log.Got = append(log.Got, arrival{rx.Now(), f}) })
			})
		case bursts / 2:
			tx.At(now, func() {
				w.Reset()
				w.TrainAsync(nil)
			})
		case bursts - 10:
			tx.At(now, w.Kill)
		}
	}
	if err := host.RunAll(); err != nil {
		t.Fatal(err)
	}
	log.Stats = w.Stats()
	executed := tx.Executed()
	if rx != tx {
		executed += rx.Executed()
	}
	host.Shutdown()
	return log, executed
}

func TestCrossShardWireMatchesSameShard(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		serial := event.New()
		want, wantN := wireRun(t, seed, serial, serial, serial)
		if len(want.Got) < 40 || want.Refused == 0 || want.Stats.Dropped == 0 || want.Stats.Corrupted == 0 {
			t.Fatalf("seed %d: the schedule missed a case: %d received, %d refused, %+v", seed, len(want.Got), want.Refused, want.Stats)
		}
		for _, workers := range []int{1, 2} {
			host := event.New()
			c := event.Clusterize(host, 2, workers, MinLatency(DefaultClock, DefaultPropagation))
			got, gotN := wireRun(t, seed, host, c.Shard(0), c.Shard(1))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d workers %d: cross-shard wire diverged\n got %+v\nwant %+v", seed, workers, got, want)
			}
			if gotN != wantN {
				t.Fatalf("seed %d workers %d: shards executed %d events, the serial engine %d", seed, workers, gotN, wantN)
			}
		}
	}
}
