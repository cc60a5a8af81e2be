package faultplan

import (
	"fmt"
	"strings"
	"testing"

	"qcdoc/internal/ethjtag"
	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/machine"
	"qcdoc/internal/node"
)

func testSpec() Spec {
	return Spec{
		From:        event.Millisecond,
		To:          5 * event.Millisecond,
		NodeCrashes: 2,
		NodeHangs:   1,
		LinkDeaths:  1,
		LinkBursts:  2,
		NetDrops:    3,
		NetDups:     1,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p1 := Generate(42, testSpec(), 16)
	p2 := Generate(42, testSpec(), 16)
	if p1.Digest() != p2.Digest() {
		t.Fatalf("same seed, different digests: %#x vs %#x", p1.Digest(), p2.Digest())
	}
	if len(p1.Faults) != 10 {
		t.Fatalf("%d faults, want 10", len(p1.Faults))
	}
	for i := range p1.Faults {
		if p1.Faults[i] != p2.Faults[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, p1.Faults[i], p2.Faults[i])
		}
	}
	if Generate(43, testSpec(), 16).Digest() == p1.Digest() {
		t.Fatal("different seeds produced the same plan")
	}
	for _, f := range p1.Faults {
		switch f.Kind {
		case NetDrop, NetDup:
			if f.Nth == 0 {
				t.Fatalf("net fault with zero index: %+v", f)
			}
		default:
			if f.At < event.Millisecond || f.At >= 5*event.Millisecond {
				t.Fatalf("fault outside window: %+v", f)
			}
			if f.Rank < 0 || f.Rank >= 16 {
				t.Fatalf("victim out of range: %+v", f)
			}
		}
	}
}

// FuzzPlanPrefix holds Generate to its draw-order contract: kinds draw
// in Spec field order, each fault a fixed number of draws, so a spec
// that zeroes every count after its k-th kind generates a prefix of the
// full spec's plan. The input decodes to a seed (8 bytes), a node count
// in 1..64, the 12 fault counts in 0..3 and a cut k in 0..12; missing
// bytes read as zero.
func FuzzPlanPrefix(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{42, 0, 0, 0, 0, 0, 0, 0, 15, 2, 1, 1, 2, 3, 1, 1, 1, 1, 1, 1, 1, 6})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 63, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		var seed uint64
		for i := 0; i < 8; i++ {
			seed |= uint64(at(i)) << (8 * i)
		}
		nodes := 1 + int(at(8))%64
		full := Spec{From: event.Millisecond, To: 5 * event.Millisecond}
		for i, c := range specCounts(&full) {
			*c = int(at(9+i)) % 4
		}
		k := int(at(21)) % 13
		cut := full
		for _, c := range specCounts(&cut)[k:] {
			*c = 0
		}
		fp := Generate(seed, full, nodes)
		cp := Generate(seed, cut, nodes)
		if len(cp.Faults) > len(fp.Faults) {
			t.Fatalf("cut at %d: %d faults, full plan %d", k, len(cp.Faults), len(fp.Faults))
		}
		for i, c := range cp.Faults {
			if c != fp.Faults[i] {
				t.Fatalf("seed %#x, %d nodes, cut at %d: fault %d is %+v, full plan has %+v",
					seed, nodes, k, i, c, fp.Faults[i])
			}
		}
	})
}

// specCounts returns s's twelve fault counts in field order, the order
// Generate draws them in.
func specCounts(s *Spec) []*int {
	return []*int{
		&s.NodeCrashes, &s.NodeHangs, &s.LinkDeaths, &s.LinkBursts,
		&s.NetDrops, &s.NetDups, &s.ChunkCorrupts, &s.ChunkTorns,
		&s.NFSStalls, &s.NFSErrors, &s.WatchdogFalsePositives, &s.RecoveryCrashes,
	}
}

// Arming a plan fires each fault once; re-arming on a fresh machine
// (the recovery restart) replays only what has not yet happened.
func TestArmSpentMarking(t *testing.T) {
	spec := Spec{From: event.Millisecond, To: 2 * event.Millisecond, NodeCrashes: 1}
	plan := Generate(7, spec, 4)

	boot := func() (*event.Engine, *machine.Machine) {
		eng := event.New()
		m := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(2, 2)))
		if err := m.Boot(); err != nil {
			t.Fatal(err)
		}
		return eng, m
	}
	crashed := func(m *machine.Machine) int {
		n := 0
		for _, nd := range m.Nodes {
			if nd.State() == node.Crashed {
				n++
			}
		}
		return n
	}

	eng1, m1 := boot()
	plan.Arm(eng1, m1, nil)
	if err := eng1.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := crashed(m1); got != 1 {
		t.Fatalf("%d nodes crashed on first arm, want 1", got)
	}
	if plan.Remaining() != 0 {
		t.Fatalf("%d faults unspent after firing", plan.Remaining())
	}
	eng1.Shutdown()

	// The restarted machine re-arms the same plan: the crash is spent
	// and must not repeat.
	eng2, m2 := boot()
	plan.Arm(eng2, m2, nil)
	if err := eng2.RunAll(); err != nil {
		t.Fatal(err)
	}
	defer eng2.Shutdown()
	if got := crashed(m2); got != 0 {
		t.Fatalf("%d nodes crashed on re-arm, want 0 (fault already spent)", got)
	}
}

// The second-order/storage kinds draw after every first-order kind:
// adding them to a spec reproduces the first-order schedule bit for
// bit, and their own draws are deterministic and in range.
func TestGenerateSecondOrderKinds(t *testing.T) {
	spec := testSpec()
	spec.ChunkCorrupts = 2
	spec.ChunkTorns = 1
	spec.NFSStalls = 1
	spec.NFSErrors = 1
	spec.WatchdogFalsePositives = 1
	spec.RecoveryCrashes = 2
	p1 := Generate(42, spec, 16)
	p2 := Generate(42, spec, 16)
	if p1.Digest() != p2.Digest() {
		t.Fatalf("same seed, different digests: %#x vs %#x", p1.Digest(), p2.Digest())
	}
	if len(p1.Faults) != 18 {
		t.Fatalf("%d faults, want 18", len(p1.Faults))
	}
	// Draw-order preservation: the first-order prefix matches the plan
	// generated without any second-order kinds.
	base := Generate(42, testSpec(), 16)
	for i, f := range base.Faults {
		if p1.Faults[i] != f {
			t.Fatalf("adding second-order kinds perturbed first-order fault %d: %+v vs %+v",
				i, p1.Faults[i], f)
		}
	}
	for _, f := range p1.Faults[len(base.Faults):] {
		switch f.Kind {
		case ChunkCorrupt, ChunkTorn, WatchdogFalsePositive:
			if f.At < spec.From || f.At >= spec.To {
				t.Fatalf("fault outside window: %+v", f)
			}
			if f.Rank < 0 || f.Rank >= 16 {
				t.Fatalf("victim out of range: %+v", f)
			}
		case NFSStall, NFSError:
			if f.At < spec.From || f.At >= spec.To || f.Dur <= 0 {
				t.Fatalf("window fault malformed: %+v", f)
			}
		case RecoveryCrash:
			if f.At < 100*event.Microsecond || f.At >= 5*event.Millisecond {
				t.Fatalf("recovery crash outside its default window: %+v", f)
			}
		default:
			t.Fatalf("unexpected kind in second-order suffix: %+v", f)
		}
	}
}

// Arm is idempotent per engine: a recovery that is itself interrupted
// re-enters and re-arms on the same engine, and that nested re-arm must
// neither double-schedule faults nor count as a new attempt. Only a
// fresh engine (the next attempt) advances the attempt count that gates
// RecoveryCrash.
func TestArmIdempotentAndRecoveryCrashGating(t *testing.T) {
	spec := Spec{From: event.Millisecond, To: 2 * event.Millisecond, RecoveryCrashes: 1}
	plan := Generate(9, spec, 4)

	boot := func() (*event.Engine, *machine.Machine) {
		eng := event.New()
		m := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(2, 2)))
		if err := m.Boot(); err != nil {
			t.Fatal(err)
		}
		return eng, m
	}
	crashed := func(m *machine.Machine) int {
		n := 0
		for _, nd := range m.Nodes {
			if nd.State() == node.Crashed {
				n++
			}
		}
		return n
	}

	// Attempt 1, armed twice (interrupted recovery re-entering): the
	// recovery crash is second-order and must stay down.
	eng1, m1 := boot()
	plan.Arm(eng1, m1, nil)
	plan.Arm(eng1, m1, nil) // nested re-arm: must be a no-op
	if err := eng1.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := crashed(m1); got != 0 {
		t.Fatalf("%d nodes crashed on first attempt, want 0 (RecoveryCrash gated)", got)
	}
	if plan.Remaining() != 1 {
		t.Fatalf("%d faults unspent after first attempt, want 1", plan.Remaining())
	}
	eng1.Shutdown()

	// Attempt 2 (fresh engine): the recovery crash arms and fires.
	eng2, m2 := boot()
	plan.Arm(eng2, m2, nil)
	if err := eng2.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := crashed(m2); got != 1 {
		t.Fatalf("%d nodes crashed on second attempt, want 1", got)
	}
	if plan.Remaining() != 0 {
		t.Fatalf("%d faults unspent after firing", plan.Remaining())
	}
	eng2.Shutdown()

	// Attempt 3: spent stays spent.
	eng3, m3 := boot()
	plan.Arm(eng3, m3, nil)
	if err := eng3.RunAll(); err != nil {
		t.Fatal(err)
	}
	defer eng3.Shutdown()
	if got := crashed(m3); got != 0 {
		t.Fatalf("%d nodes crashed on re-arm, want 0 (fault already spent)", got)
	}
}

// recordingHost counts host-plane strikes and lets the test decide
// whether a chunk exists to be struck.
type recordingHost struct {
	haveChunk                 bool
	corrupts, tears, suspects int
}

func (h *recordingHost) CorruptChunk(rank int, sel uint64) bool { h.corrupts++; return h.haveChunk }
func (h *recordingHost) TearChunk(rank int, sel uint64) bool    { h.tears++; return h.haveChunk }
func (h *recordingHost) SuspectNode(rank int)                   { h.suspects++ }

// Chunk faults that find no chunk stay unspent and replay on the next
// attempt; a fired false positive is spent for good. ArmHost is
// idempotent per engine, like Arm.
func TestArmHostSpentAudit(t *testing.T) {
	spec := Spec{From: event.Millisecond, To: 2 * event.Millisecond,
		ChunkCorrupts: 1, ChunkTorns: 1, WatchdogFalsePositives: 1}
	plan := Generate(11, spec, 8)
	h := &recordingHost{}

	eng1 := event.New()
	plan.ArmHost(eng1, 8, h)
	plan.ArmHost(eng1, 8, h) // nested re-arm: no-op
	if err := eng1.RunAll(); err != nil {
		t.Fatal(err)
	}
	eng1.Shutdown()
	if h.corrupts != 1 || h.tears != 1 || h.suspects != 1 {
		t.Fatalf("first attempt strikes: %+v, want 1 of each", h)
	}
	if plan.Remaining() != 2 {
		t.Fatalf("%d faults unspent, want 2 (chunk faults missed, false positive spent)", plan.Remaining())
	}

	// Next attempt: chunks now exist; the chunk faults land and spend.
	// The spent false positive must not replay.
	h.haveChunk = true
	eng2 := event.New()
	plan.ArmHost(eng2, 8, h)
	if err := eng2.RunAll(); err != nil {
		t.Fatal(err)
	}
	eng2.Shutdown()
	if h.corrupts != 2 || h.tears != 2 || h.suspects != 1 {
		t.Fatalf("second attempt strikes: %+v, want one more corrupt+tear and no new suspect", h)
	}
	if plan.Remaining() != 0 {
		t.Fatalf("%d faults unspent after chunk faults landed", plan.Remaining())
	}
}

// Every engine-scheduled fault fires at exactly its plan time: OnFire
// runs at base+At to the picosecond, for the node and link faults Arm
// sends to the victim's engine, the NFS windows it opens on the arming
// engine, and the host-plane faults of ArmHost. Any jitter on an
// injection time, wall clock or random, fails here.
func TestArmFiresAtPlanTime(t *testing.T) {
	spec := Spec{
		From: event.Millisecond, To: 3 * event.Millisecond,
		NodeCrashes: 2, NodeHangs: 2, LinkDeaths: 2, LinkBursts: 2,
		NFSStalls: 1, NFSErrors: 1,
		ChunkCorrupts: 1, ChunkTorns: 1, WatchdogFalsePositives: 1,
	}
	plan := Generate(5, spec, 4)
	eng := event.New()
	defer eng.Shutdown()
	m := machine.Build(eng, machine.DefaultConfig(geom.MakeShape(2, 2)))
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	base := eng.Now()
	fired := 0
	plan.OnFire = func(f Fault) {
		fired++
		if now := eng.Now(); now != base+f.At {
			t.Errorf("%v fired at %d ps, want base+At = %d ps", f, now, base+f.At)
		}
	}
	plan.Arm(eng, m, ethjtag.NewNetwork(eng))
	plan.ArmHost(eng, 4, &recordingHost{haveChunk: true})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != len(plan.Faults) {
		t.Fatalf("%d of %d faults fired", fired, len(plan.Faults))
	}
}

// Fault injection is unsharded: Arm refuses a sharded machine.
func TestArmRefusesShardedMachine(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	cfg := machine.DefaultConfig(geom.MakeShape(2, 2))
	cfg.Shards = machine.ShardAuto
	m := machine.Build(eng, cfg)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "shard") {
			t.Fatalf("Arm on a sharded machine: panic %v, want one naming sharding", r)
		}
	}()
	Generate(1, testSpec(), 4).Arm(eng, m, ethjtag.NewNetwork(eng))
}
